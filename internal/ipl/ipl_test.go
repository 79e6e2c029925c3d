package ipl

import (
	"bytes"
	"math/rand"
	"testing"

	"ipa/internal/core"
	"ipa/internal/trace"
)

// synthTrace builds a trace of random fetch/evict pairs over `pages`
// pages with update sizes drawn from sizes. Accesses follow the OLTP
// 80/20 skew (75% of accesses hit 20% of the data in TPC-C), which is
// what makes greedy garbage collection effective on the IPA side.
func synthTrace(seed int64, pages, events int, sizes []int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	t := trace.New()
	// Initial population: every page is written new once.
	for p := 1; p <= pages; p++ {
		t.RecordEvict(core.PageID(p), 0, 0, true)
	}
	hot := pages / 5
	if hot < 1 {
		hot = 1
	}
	for i := 0; i < events; i++ {
		var p core.PageID
		if rng.Intn(100) < 80 {
			p = core.PageID(rng.Intn(hot) + 1)
		} else {
			p = core.PageID(rng.Intn(pages) + 1)
		}
		t.RecordFetch(p)
		n := sizes[rng.Intn(len(sizes))]
		t.RecordEvict(p, n, n+10, false)
	}
	return t
}

func TestIPLSimulatorBasics(t *testing.T) {
	tr := synthTrace(1, 64, 2000, []int{3, 4, 6})
	res := NewSimulator(Config{}).Replay(tr)
	if res.Fetches != 2000 || res.Evictions != 2064 {
		t.Fatalf("counts: %+v", res)
	}
	// Appendix B: every fetch reads the page AND the log region → RA ≈ 2
	// plus merge overhead.
	if res.ReadAmplific < 2.0 {
		t.Errorf("IPL RA = %.2f, want ≥ 2", res.ReadAmplific)
	}
	if res.Merges == 0 || res.Erases != res.Merges {
		t.Errorf("merges/erases = %d/%d", res.Merges, res.Erases)
	}
	// Log region is 4 of 64 physical pages.
	if res.ReservedSpaceF != 0.0625 {
		t.Errorf("reserved = %v", res.ReservedSpaceF)
	}
}

func TestIPLMergeCost(t *testing.T) {
	// Hammer a single erase unit: log region (8KB) absorbs 16 sector
	// flushes before each merge.
	tr := trace.New()
	tr.RecordEvict(1, 0, 0, true)
	for i := 0; i < 64; i++ {
		tr.RecordEvict(1, 4, 14, false)
	}
	res := NewSimulator(Config{}).Replay(tr)
	// 64 sector flushes fill the 16-sector log region four times; the
	// merge runs when the NEXT flush finds it full, so 3 merges (the
	// fourth region is full but not yet merged).
	if res.Merges != 3 {
		t.Errorf("merges = %d, want 3", res.Merges)
	}
	// Each merge reads 16 logical pages (64 phys) and writes 15 (60).
	wantReads := res.Merges * 64
	if res.PhysReads != wantReads {
		t.Errorf("reads = %d, want %d", res.PhysReads, wantReads)
	}
}

func TestIPAModelBasics(t *testing.T) {
	tr := synthTrace(2, 64, 2000, []int{3, 4})
	m := NewIPAModel(IPAConfig{Scheme: core.NewScheme(2, 4)}, 64)
	res := m.Replay(tr)
	if res.Fetches != 2000 {
		t.Fatalf("fetches = %d", res.Fetches)
	}
	if res.DeltaWrites == 0 {
		t.Fatal("no delta writes for small updates")
	}
	// RA for IPA stays near 1 (only GC reads add).
	if res.ReadAmplific < 1.0 || res.ReadAmplific > 1.6 {
		t.Errorf("IPA RA = %.2f, want ≈1", res.ReadAmplific)
	}
	if res.WriteAmplific >= 1.0 {
		t.Errorf("IPA WA = %.2f, want < 1 for tiny updates", res.WriteAmplific)
	}
}

func TestIPAModelBudgetReset(t *testing.T) {
	// One page, N=2: two deltas then an out-of-place write, repeating.
	tr := trace.New()
	tr.RecordEvict(1, 0, 0, true)
	for i := 0; i < 9; i++ {
		tr.RecordEvict(1, 2, 8, false)
	}
	m := NewIPAModel(IPAConfig{Scheme: core.NewScheme(2, 3)}, 1)
	res := m.Replay(tr)
	if res.DeltaWrites != 6 {
		t.Errorf("deltas = %d, want 6", res.DeltaWrites)
	}
	if res.OutOfPlace != 4 { // initial + 3 resets
		t.Errorf("oop = %d, want 4", res.OutOfPlace)
	}
}

func TestIPADisabledScheme(t *testing.T) {
	tr := synthTrace(3, 16, 200, []int{3})
	m := NewIPAModel(IPAConfig{}, 16)
	res := m.Replay(tr)
	if res.DeltaWrites != 0 {
		t.Error("deltas on disabled scheme")
	}
	if res.OutOfPlace != res.Evictions {
		t.Errorf("oop %d != evictions %d", res.OutOfPlace, res.Evictions)
	}
}

// The Table 2 shape: on the same small-update OLTP trace, IPA must beat
// IPL on reads, writes and erases.
func TestIPABeatsIPLOnOLTPTraces(t *testing.T) {
	cases := []struct {
		name   string
		sizes  []int
		scheme core.Scheme
	}{
		{"tpcb-like", []int{4, 4, 4, 4, 4, 4, 4, 8, 8, 20}, core.NewScheme(2, 4)},
		{"tpcc-like", []int{3, 3, 3, 3, 3, 3, 6, 6, 9, 40}, core.NewScheme(2, 3)},
		{"tatp-like", []int{1, 2, 2, 2, 4, 4}, core.NewScheme(2, 4)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := synthTrace(7, 256, 20000, c.sizes)
			iplRes := NewSimulator(Config{}).Replay(tr)
			// Claim 2 (Sec. 2.1): IPL's merge cost is constant no matter
			// how empty the drive is, while IPA can use unused space to
			// amortise garbage collection. The comparison therefore runs
			// the IPA model with the free space a half-full drive offers.
			ipaRes := NewIPAModel(IPAConfig{Scheme: c.scheme, OverProvision: 0.5}, 256).Replay(tr)
			if ipaRes.PhysReads >= iplRes.PhysReads {
				t.Errorf("IPA reads %d ≥ IPL %d", ipaRes.PhysReads, iplRes.PhysReads)
			}
			if ipaRes.PhysWrites >= iplRes.PhysWrites {
				t.Errorf("IPA writes %d ≥ IPL %d", ipaRes.PhysWrites, iplRes.PhysWrites)
			}
			if ipaRes.Erases >= iplRes.Erases {
				t.Errorf("IPA erases %d ≥ IPL %d", ipaRes.Erases, iplRes.Erases)
			}
			// Space: IPA [2×3]/[2×4] ≤ 2%, IPL 6.25%.
			if ipaRes.ReservedSpaceF > 0.025 || iplRes.ReservedSpaceF != 0.0625 {
				t.Errorf("space: ipa %v ipl %v", ipaRes.ReservedSpaceF, iplRes.ReservedSpaceF)
			}
		})
	}
}

func TestTraceSaveLoad(t *testing.T) {
	tr := synthTrace(9, 8, 50, []int{4})
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("len %d != %d", got.Len(), tr.Len())
	}
	a, b := tr.Events(), got.Events()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d: %+v != %+v", i, a[i], b[i])
		}
	}
}
