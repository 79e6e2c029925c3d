package workload

import (
	"math/rand"
	"testing"
	"time"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
)

// newBenchDB builds a timed SLC device and DB sized for small-scale
// workload tests.
func newBenchDB(t *testing.T, scheme core.Scheme, frames int) (*engine.DB, *sim.Timeline) {
	t.Helper()
	return openMain(t, 4, 128, scheme, engine.Options{BufferFrames: frames})
}

// openMain opens a stack of one region, main, over the chips × blocks
// of 32 1 KiB pages of an SLC device, with the 1 MiB log budget the
// workload tests share.
func openMain(tb testing.TB, chips, blocks int, scheme core.Scheme, opts engine.Options) (*engine.DB, *sim.Timeline) {
	tb.Helper()
	mode := noftl.ModeSLC
	if scheme.Disabled() {
		mode = noftl.ModeNone
	}
	opts.LogCapacity, opts.LogReclaimThreshold = 1<<20, 0.4
	db, tl, err := engine.Open(engine.Spec{
		Geometry: flash.Geometry{Chips: chips, BlocksPerChip: blocks, PagesPerBlock: 32, PageSize: 1024, Cell: flash.SLC},
		Regions:  []noftl.RegionConfig{{Name: "main", Mode: mode, Scheme: scheme, OverProvision: 0.15}},
		Options:  opts,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return db, tl
}

func TestTPCBLoadAndRun(t *testing.T) {
	db, tl := newBenchDB(t, core.NewScheme(2, 4), 256)
	b := NewTPCB(db, "main", 2, 500)
	loader := tl.NewWorker()
	if err := b.Load(loader); err != nil {
		t.Fatal(err)
	}
	terminals := []*sim.Worker{tl.NewWorker(), tl.NewWorker()}
	for _, w := range terminals {
		w.SetNow(loader.Now())
	}
	res, err := Run(b, terminals, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 500 {
		t.Fatalf("results = %+v", res)
	}
	if res.Throughput <= 0 {
		t.Error("zero throughput")
	}
	if res.PerType["Account_Update"].Count() != 500 {
		t.Error("per-type latency missing")
	}
	// The write profile: flush-time net update sizes concentrate ≤ 8B.
	db.FlushAll(loader)
	st := db.Store("main")
	net := st.Stats().NetBytes
	if net.Count() == 0 {
		t.Fatal("no update-size samples")
	}
	if frac := net.FractionLE(8); frac < 0.5 {
		t.Errorf("only %.0f%% of TPC-B updates ≤ 8 net bytes; paper expects most", 100*frac)
	}
	if st.Stats().FlushesDelta == 0 {
		t.Error("no in-place appends during TPC-B")
	}
}

func TestTPCBBalanceConservation(t *testing.T) {
	db, tl := newBenchDB(t, core.NewScheme(2, 4), 256)
	b := NewTPCB(db, "main", 1, 200)
	w := tl.NewWorker()
	if err := b.Load(w); err != nil {
		t.Fatal(err)
	}
	// Sum of (account+teller+branch) deltas must be 3× the history sum.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if _, err := b.RunOne(w, rng); err != nil {
			t.Fatal(err)
		}
	}
	var histSum, histCount uint64
	b.history.Scan(w, func(_ core.RID, tup []byte) bool {
		histSum += b.schHist.GetUint(tup, 3)
		histCount++
		return true
	})
	if histCount != 100 {
		t.Fatalf("history rows = %d", histCount)
	}
	var acctSum uint64
	b.account.Scan(w, func(_ core.RID, tup []byte) bool {
		acctSum += b.schAcct.GetUint(tup, 2) - 10_000
		return true
	})
	if acctSum != histSum {
		t.Errorf("account delta %d != history sum %d", acctSum, histSum)
	}
}

func TestTPCCLoadAndRun(t *testing.T) {
	db, tl := newBenchDB(t, core.NewScheme(2, 3), 512)
	c := NewTPCC(db, "main", 1, 400, 60)
	w := tl.NewWorker()
	if err := c.Load(w); err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, []*sim.Worker{w}, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 300 {
		t.Fatalf("%d of 300 transactions", res.Transactions)
	}
	db.FlushAll(w)
	st := db.Store("main")
	if st.Stats().FlushesDelta == 0 {
		t.Error("no in-place appends during TPC-C")
	}
	// Mix sanity: NewOrder ≈ 45%.
	no := float64(res.PerType["NewOrder"].Count()) / float64(res.Transactions)
	if no < 0.3 || no > 0.6 {
		t.Errorf("NewOrder fraction = %.2f", no)
	}
}

func TestTATPLoadAndRun(t *testing.T) {
	db, tl := newBenchDB(t, core.NewScheme(2, 4), 256)
	ta := NewTATP(db, "main", 2000)
	w := tl.NewWorker()
	if err := ta.Load(w); err != nil {
		t.Fatal(err)
	}
	res, err := Run(ta, []*sim.Worker{w}, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 1000 {
		t.Fatalf("%d of 1000 transactions", res.Transactions)
	}
	// Read-dominated: ~80% GetSubscriberData.
	reads := res.PerType["GetSubscriberData"].Count()
	if f := float64(reads) / float64(res.Transactions); f < 0.7 || f > 0.9 {
		t.Errorf("read fraction = %.2f", f)
	}
	db.FlushAll(w)
	net := db.Store("main").Stats().NetBytes
	if net.Count() > 0 && net.FractionLE(8) < 0.5 {
		t.Errorf("TATP updates too large: ≤8B at %.0f%%", 100*net.FractionLE(8))
	}
}

func TestLinkBenchLoadAndRun(t *testing.T) {
	db, tl := newBenchDB(t, core.NewScheme(2, 100), 512)
	lb := NewLinkBench(db, "main", 500, 4)
	w := tl.NewWorker()
	if err := lb.Load(w); err != nil {
		t.Fatal(err)
	}
	res, err := Run(lb, []*sim.Worker{w}, 800, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 800 {
		t.Fatalf("%d of 800 transactions", res.Transactions)
	}
	db.FlushAll(w)
	st := db.Store("main")
	gross := st.Stats().GrossBytes
	if gross.Count() == 0 {
		t.Fatal("no update-size samples")
	}
	// LinkBench updates are larger than OLTP but most stay under ~200B
	// gross (paper Fig. 10 shape).
	if f := gross.FractionLE(200); f < 0.4 {
		t.Errorf("only %.0f%% of LinkBench updates ≤ 200 gross bytes", 100*f)
	}
	if st.Stats().FlushesDelta == 0 {
		t.Error("no in-place appends with M=100")
	}
}

func TestNURandInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := NURand(rng, 1023, 1, 3000)
		if v < 1 || v > 3000 {
			t.Fatalf("NURand out of range: %d", v)
		}
	}
	// Skew: the distribution must not be uniform (chi-square-ish check on
	// the first decile).
	counts := make([]int, 10)
	for i := 0; i < 50000; i++ {
		v := NURand(rng, 1023, 1, 3000)
		counts[(v-1)*10/3000]++
	}
	max, min := 0, 1<<30
	for _, c := range counts {
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	if float64(max) < 1.2*float64(min) {
		t.Errorf("NURand looks uniform: %v", counts)
	}
}

func TestZipf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := NewZipf(rng, 1.5, 1000)
	lowCount := 0
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("zipf out of range: %d", v)
		}
		if v < 10 {
			lowCount++
		}
	}
	if lowCount < 5000 {
		t.Errorf("zipf head mass too small: %d/10000", lowCount)
	}
	// s ≤ 1 is clamped instead of panicking.
	_ = NewZipf(rng, 0.5, 100)
}

func TestRunNoTerminals(t *testing.T) {
	if _, err := Run(nil, nil, 10, 1); err == nil {
		t.Error("Run with no terminals accepted")
	}
}

func TestIPAReducesErasesTPCB(t *testing.T) {
	// The headline claim, end-to-end at miniature scale: the same TPC-B
	// run with [2×4] must erase substantially less than [0×0].
	erases := func(scheme core.Scheme) uint64 {
		db, tl := newBenchDB(t, scheme, 96)
		b := NewTPCB(db, "main", 1, 800)
		w := tl.NewWorker()
		if err := b.Load(w); err != nil {
			t.Fatal(err)
		}
		db.Device().Array().ResetStats()
		if _, err := Run(b, []*sim.Worker{w}, 3000, 7); err != nil {
			t.Fatal(err)
		}
		db.FlushAll(w)
		return db.Device().Array().Stats().Erases
	}
	base := erases(core.Scheme{})
	ipa := erases(core.NewScheme(2, 4))
	if base == 0 {
		t.Skip("workload too small to trigger GC")
	}
	if float64(ipa) > 0.8*float64(base) {
		t.Errorf("IPA erases %d not clearly below baseline %d", ipa, base)
	}
}

func TestRunForDuration(t *testing.T) {
	db, tl := newBenchDB(t, core.NewScheme(2, 4), 128)
	b := NewTPCB(db, "main", 1, 400)
	w := tl.NewWorker()
	if err := b.Load(w); err != nil {
		t.Fatal(err)
	}
	res, err := RunForDuration(b, []*sim.Worker{w}, 200*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions == 0 {
		t.Fatal("no transactions in 200ms of simulated time")
	}
	if res.SimSeconds < 0.19 {
		t.Errorf("SimSeconds = %v, want ≥ ~0.2", res.SimSeconds)
	}
	if res.Throughput <= 0 {
		t.Error("zero throughput")
	}
	// A second run for twice the interval executes roughly twice the work.
	res2, err := RunForDuration(b, []*sim.Worker{w}, 400*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Transactions < res.Transactions {
		t.Errorf("longer run did fewer txs: %d < %d", res2.Transactions, res.Transactions)
	}
	if _, err := RunForDuration(b, nil, time.Second, 1); err == nil {
		t.Error("no terminals accepted")
	}
}
