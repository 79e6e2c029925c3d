package experiments

import (
	"strings"
	"testing"
	"time"

	"ipa/internal/core"
)

var quick = Params{Quick: true}

func TestExecuteBasic(t *testing.T) {
	o, err := Execute(Spec{Bench: "tpcb", Scheme: core.NewScheme(2, 4), BufferPct: 0.5, Eager: true, Tx: 500})
	if err != nil {
		t.Fatal(err)
	}
	if o.Results.Transactions != 500 {
		t.Errorf("tx = %d", o.Results.Transactions)
	}
	// A serial run fails on an abort rather than counting it, so every
	// transaction it reports was timed once, under its type.
	var typed uint64
	for _, l := range o.Results.PerType {
		typed += l.Count()
	}
	if n := o.Results.TxLatency.Count(); n != 500 || typed != 500 {
		t.Errorf("timed %d transactions, %d by type; want 500 each", n, typed)
	}
	if o.Region.HostWrites() == 0 || o.Region.DeltaWrites == 0 {
		t.Errorf("region stats = %+v", o.Region)
	}
	if o.Trace.Len() == 0 {
		t.Error("empty trace")
	}
	if o.DBPages == 0 || o.Frames == 0 {
		t.Error("sizing not reported")
	}
}

func TestExecuteUnknownBench(t *testing.T) {
	if _, err := Execute(Spec{Bench: "nope"}); err == nil {
		t.Error("unknown bench accepted")
	}
}

func TestExecuteOpenSSDModes(t *testing.T) {
	for _, mode := range []Testbed{OpenSSD} {
		o, err := Execute(Spec{Bench: "tpcb", Testbed: mode, Scheme: core.NewScheme(2, 4), BufferPct: 0.10, Eager: true, Tx: 400})
		if err != nil {
			t.Fatal(err)
		}
		if o.Region.DeltaWrites == 0 {
			t.Error("no appends on OpenSSD profile")
		}
	}
}

func TestHeadlineClaimErasesDrop(t *testing.T) {
	// The paper's core claim, via the real stack: [2×4] cuts erases per
	// host write substantially vs [0×0] on TPC-B.
	base, err := Execute(Spec{Bench: "tpcb", Scheme: core.Scheme{}, BufferPct: 0.20, Eager: true, Tx: 2500})
	if err != nil {
		t.Fatal(err)
	}
	o, err := Execute(Spec{Bench: "tpcb", Scheme: core.NewScheme(2, 4), BufferPct: 0.20, Eager: true, Tx: 2500})
	if err != nil {
		t.Fatal(err)
	}
	be, ie := base.Region.ErasesPerHostWrite(), o.Region.ErasesPerHostWrite()
	if be == 0 {
		t.Skip("baseline run too small to trigger GC")
	}
	if ie > 0.8*be {
		t.Errorf("erases/host-write: IPA %.4f not clearly below baseline %.4f", ie, be)
	}
	// And the write-amplification reduction is ≥ ~1.5x.
	bw, iw := writeAmplification(base), writeAmplification(o)
	if iw <= 0 || bw/iw < 1.3 {
		t.Errorf("WA reduction = %.2fx (base %.1f, ipa %.1f)", bw/iw, bw, iw)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"a", "b"}}
	tab.AddRow("r1", 1.5)
	tab.AddRow(42, uint64(7))
	tab.Notes = append(tab.Notes, "a note")
	out := tab.Render()
	for _, want := range []string{"demo", "r1", "1.500", "42", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestOopVsIPA(t *testing.T) {
	if got := oopVsIPA(0.67); got != "33/67" {
		t.Errorf("oopVsIPA = %q", got)
	}
	if got := oopVsIPA(0); got != "100/0" {
		t.Errorf("oopVsIPA(0) = %q", got)
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("zzz", quick); err == nil {
		t.Error("unknown id accepted")
	}
}

// Smoke-run each experiment in quick mode; shapes are asserted on the
// cheap ones, the rest must simply complete and render.
func TestTable1Quick(t *testing.T) {
	tab, err := Table1(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
	t.Log("\n" + tab.Render())
}

func TestTable2Quick(t *testing.T) {
	tab, err := Table2(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
}

func TestTable3Quick(t *testing.T) {
	tab, err := Table3(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
}

func TestTable4Quick(t *testing.T) {
	tab, err := Table4(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
}

func TestTable5Quick(t *testing.T) {
	tab, err := Table5(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
}

func TestTable6Quick(t *testing.T) {
	tab, err := Table6(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
}

func TestTable7Quick(t *testing.T) {
	tab, err := Table7(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
}

// TestTable7VerdictAcrossSeeds pins the verdict of Table 7 that once
// depended on which B+tree the rig ran: at the 20 % buffer, with Table
// 7's spec, [2×4] and [3×4] each lower GC migrations per host write
// relative to [0×0], on every seed. It holds on seeds 1–24 and 42.
// "[3×4] below [2×4]" is not asserted: it holds on 21 of those 25 seeds
// and misses on 17, 22, 23 and 42, the default seed (EXPERIMENTS.md,
// Table 7).
func TestTable7VerdictAcrossSeeds(t *testing.T) {
	if raceEnabled {
		t.Skip("27 serial rig runs on one goroutine: nothing for the race detector to check, and it makes them 30× slower")
	}
	run := func(seed int64, s core.Scheme) float64 {
		o, err := Execute(Spec{
			Bench: "tpcb", Scale: tpcbSweepScale, Scheme: s, BufferPct: 0.20,
			Eager: true, Duration: 4 * time.Second, Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d %v: %v", seed, s, err)
		}
		return o.Region.MigrationsPerHostWrite()
	}
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 42} {
		base := run(seed, core.Scheme{})
		for _, s := range []core.Scheme{core.NewScheme(2, 4), core.NewScheme(3, 4)} {
			got := run(seed, s)
			t.Logf("seed %d %v: migrations/HW %.4f vs [0×0] %.4f (%+.1f%%)", seed, s, got, base, rel(base, got))
			if got >= base {
				t.Errorf("seed %d: %v migrations/HW %.4f, not below [0×0]'s %.4f", seed, s, got, base)
			}
		}
	}
}

func TestTable8Quick(t *testing.T) {
	tab, err := Table8(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
}

func TestTable9Quick(t *testing.T) {
	tab, err := Table9(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
}

func TestTable10Quick(t *testing.T) {
	tab, err := Table10(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
}

func TestTable11Quick(t *testing.T) {
	tab, err := Table11(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
}

func TestFig1Quick(t *testing.T) {
	tab, err := Fig1(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
}

func TestFig6Quick(t *testing.T) {
	tab, err := Fig6(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
}

func TestFigCDFsQuick(t *testing.T) {
	for _, fn := range []func(Params) (*Table, error){Fig7, Fig8, Fig9, Fig10} {
		tab, err := fn(quick)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s empty", tab.ID)
		}
		t.Log("\n" + tab.Render())
	}
}
