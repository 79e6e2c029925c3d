// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 8). Each experiment builds the full stack — flash
// array, NoFTL regions, storage engine, workload driver — runs the
// measured phase, and prints the same rows/series the paper reports.
//
// Absolute numbers differ from the paper (our substrate is a simulator,
// not the authors' OpenSSD board or Xeon testbed, and scales are reduced
// to keep runs fast); the experiments reproduce the paper's *shapes*:
// who wins, by roughly what factor, and where the effects disappear.
package experiments

import (
	"fmt"
	"time"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
	"ipa/internal/trace"
	"ipa/internal/workload"
)

// Testbed selects the hardware profile of Sec. 8.1.
type Testbed int

const (
	// Emulator models the real-time flash emulator: 16 SLC chips, full
	// parallelism, 10% over-provisioning, page-level mapping.
	Emulator Testbed = iota
	// OpenSSD models the Jasmine board: MLC flash, effectively one
	// outstanding I/O (no NCQ), tiny 1.5% buffer host.
	OpenSSD
)

// Spec describes one measured run.
type Spec struct {
	Bench     string // "tpcb" | "tpcc" | "tatp" | "linkbench"
	Testbed   Testbed
	Mode      noftl.IPAMode // derived from Scheme/Testbed when zero and scheme enabled
	Scheme    core.Scheme
	BufferPct float64 // buffer size as fraction of loaded DB pages
	Eager     bool    // eager eviction + eager log reclamation
	PageSize  int     // default 4096 (8192 for LinkBench in the paper)
	Scale     int     // workload scale knob (≥1)
	Tx        int     // measured transactions (ignored when Duration > 0)
	// Duration switches to the paper's measurement mode: run for a fixed
	// simulated interval so faster configurations execute more
	// transactions (Tables 6-10 report absolute host I/O this way).
	Duration  time.Duration
	Terminals int
	Seed      int64
	UseECC    bool
	// Storage selects the region's write-reduction scheme. The zero value
	// (noftl.StorageIPA) is the paper's path, out of place on the [0×0]
	// Scheme; StoragePDL forces a plain layout (no delta area, IPA off).
	Storage noftl.Storage
	// GCVictim selects the GC victim policy (greedy by default).
	GCVictim noftl.GCVictim
}

func (s Spec) withDefaults() Spec {
	if s.PageSize == 0 {
		if s.Bench == "linkbench" {
			s.PageSize = 8192
		} else {
			s.PageSize = 4096
		}
	}
	if s.Scale < 1 {
		s.Scale = 1
	}
	if s.Tx == 0 {
		s.Tx = 4000
	}
	if s.Terminals == 0 {
		s.Terminals = 4
	}
	if s.BufferPct == 0 {
		s.BufferPct = 0.5
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Storage != noftl.StorageIPA {
		// PDL regions write raw page images: no delta layout, IPA off
		// (see noftl.RegionConfig.Validate).
		s.Scheme = core.Scheme{}
		s.Mode = noftl.ModeNone
		return s
	}
	if s.Mode == noftl.ModeNone && !s.Scheme.Disabled() {
		if s.Testbed == OpenSSD {
			s.Mode = noftl.ModePSLC
		} else {
			s.Mode = noftl.ModeSLC
		}
	}
	if s.Scheme.Disabled() {
		s.Mode = noftl.ModeNone
	}
	return s
}

// Out carries everything an experiment table needs from one run. The
// per-layer stats are views into one engine.Stats snapshot taken at the
// end of the measured phase.
type Out struct {
	Spec    Spec
	Results workload.Results
	Engine  engine.Stats
	Region  noftl.Stats
	Store   engine.StoreStats
	Flash   flash.Stats
	DBPages int
	Frames  int
	Trace   *trace.Trace
	DB      *engine.DB
}

// estimatePages guesses the loaded database size in pages to size the
// flash array (generous margins; growth from History/Order appends is
// covered by the ×3 capacity factor in Execute).
func estimatePages(s Spec) int {
	ps := s.PageSize
	var bytes int
	switch s.Bench {
	case "tpcb":
		accounts := 2000 * s.Scale
		bytes = accounts*120 + accounts*20 + 4096
	case "tpcc":
		items := 2400 * s.Scale
		cust := 100 * 10 * s.Scale
		bytes = items*220 + cust*320 + 8192
	case "tatp":
		subs := 4000 * s.Scale
		bytes = subs*110 + 4096
	case "linkbench":
		nodes := 1500 * s.Scale
		bytes = nodes*150 + nodes*4*60 + 8192
	default:
		bytes = 1 << 20
	}
	return bytes/ps + 64
}

// Execute builds the stack, loads the workload, resizes the buffer to
// the requested percentage, runs the measured phase and collects stats.
func Execute(s Spec) (*Out, error) {
	s = s.withDefaults()
	pages := estimatePages(s)
	// Measured-phase appends (History, Orders) plus delta-area overhead
	// plus GC headroom.
	capPages := pages*3 + s.Tx/4
	if s.Mode == noftl.ModePSLC {
		capPages *= 2 // only LSB pages usable
	}

	cell := flash.SLC
	timing := flash.SLCTiming()
	chips := 16
	if s.Testbed == OpenSSD {
		cell = flash.MLC
		timing = flash.MLCTiming()
		// The Jasmine board executes effectively one host I/O at a time
		// (Appendix D, point 1): a single queueing resource.
		chips = 1
	}
	pagesPerBlock := 64
	blocksPerChip := capPages/(chips*pagesPerBlock) + 4

	g := flash.Geometry{
		Chips: chips, BlocksPerChip: blocksPerChip, PagesPerBlock: pagesPerBlock,
		PageSize: s.PageSize, OOBSize: s.PageSize / 16, Cell: cell,
	}
	tl := sim.NewTimeline(chips)
	maxApp := 8
	if n := s.Scheme.N; n > maxApp {
		maxApp = n
	}
	if s.Storage == noftl.StoragePDL && maxApp < 64 {
		// PDL packs many small differential records per log page; the
		// partial-program budget bounds records per page, not correctness.
		maxApp = 64
	}
	arr, err := flash.New(flash.Config{
		Geometry: g, Timing: timing, StrictProgramOrder: true,
		MaxAppends: maxApp, Seed: s.Seed,
	}, tl)
	if err != nil {
		return nil, err
	}
	dev := noftl.Open(arr)
	if _, err := dev.CreateRegion(noftl.RegionConfig{
		Name: "data", Mode: s.Mode, Scheme: s.Scheme,
		BlocksPerChip: blocksPerChip, OverProvision: 0.10,
		Storage: s.Storage, GCVictim: s.GCVictim,
	}); err != nil {
		return nil, err
	}

	opts := engine.Options{
		PageSize: s.PageSize, BufferFrames: pages + 64,
		Timeline: tl, UseECC: s.UseECC,
		// PoolShards stays 1: the paper's update-size and buffer-sweep
		// tables (1/9/10/11) depend on the deterministic global CLOCK
		// eviction order, which only the single-shard pool guarantees.
		PoolShards: 1,
	}
	if s.Eager {
		opts.DirtyThreshold = 0.125
		opts.LogCapacity = 1 << 22
		opts.LogReclaimThreshold = 0.35
	} else {
		opts.DirtyThreshold = 0.75
		opts.LogCapacity = 0 // unbounded: no eager log reclamation
	}
	db, err := engine.New(dev, opts)
	if err != nil {
		return nil, err
	}

	var wl workload.Workload
	switch s.Bench {
	case "tpcb":
		wl = workload.NewTPCB(db, "data", s.Scale, 2000)
	case "tpcc":
		wl = workload.NewTPCC(db, "data", s.Scale, 2400, 100)
	case "tatp":
		wl = workload.NewTATP(db, "data", 4000*s.Scale)
	case "linkbench":
		wl = workload.NewLinkBench(db, "data", 1500*s.Scale, 4)
	default:
		return nil, fmt.Errorf("experiments: unknown bench %q", s.Bench)
	}

	loader := tl.NewWorker()
	if err := wl.Load(loader); err != nil {
		return nil, fmt.Errorf("experiments: load %s: %w", s.Bench, err)
	}
	dbPages := db.Store("data").Region().MappedPages()
	frames := int(s.BufferPct * float64(dbPages))
	if frames < 16 {
		frames = 16
	}
	if err := db.ResizePool(loader, frames); err != nil {
		return nil, err
	}

	// Reset counters after load; attach the trace recorder.
	db.Store("data").Region().ResetStats()
	arr.ResetStats()
	st := db.Store("data")
	st.Stats().NetBytes.Reset()
	st.Stats().GrossBytes.Reset()
	tr := trace.New()
	st.SetTraceSink(tr)

	terminals := make([]*sim.Worker, s.Terminals)
	for i := range terminals {
		terminals[i] = tl.NewWorker()
		terminals[i].SetNow(loader.Now())
	}
	var res workload.Results
	if s.Duration > 0 {
		res, err = workload.RunForDuration(wl, terminals, s.Duration, s.Seed)
	} else {
		res, err = workload.Run(wl, terminals, s.Tx, s.Seed)
	}
	if err != nil {
		return nil, err
	}
	// Final flush so trailing updates are accounted (and traced).
	if err := db.FlushAll(terminals[0]); err != nil {
		return nil, err
	}
	st.SetTraceSink(nil)

	stats, err := db.Stats()
	if err != nil {
		return nil, err
	}
	return &Out{
		Spec:    s,
		Results: res,
		Engine:  stats,
		Region:  stats.Regions["data"],
		Store:   stats.Stores["data"],
		Flash:   stats.Flash,
		DBPages: dbPages,
		Frames:  frames,
		Trace:   tr,
		DB:      db,
	}, nil
}

// rel returns the relative change in percent from base to v
// (negative = reduction).
func rel(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (v - base) / base
}

// grossWritten is the paper's Gross_Written_Data: page-size bytes per
// out-of-place write plus record-size bytes per delta write.
func grossWritten(o *Out) float64 {
	rs := o.Spec.Scheme.RecordSize()
	if rs == 0 {
		rs = o.Spec.PageSize
	}
	return float64(o.Region.OutOfPlaceWrites)*float64(o.Spec.PageSize) +
		float64(o.Region.DeltaWrites)*float64(rs)
}

// netChanged is the paper's Net_Changed_Data: the sum of changed bytes
// across update flushes.
func netChanged(o *Out) float64 {
	h := o.Store.NetBytes
	return h.Mean() * float64(h.Count())
}

// writeAmplification is Gross_Written / Net_Changed.
func writeAmplification(o *Out) float64 {
	n := netChanged(o)
	if n == 0 {
		return 0
	}
	return grossWritten(o) / n
}
