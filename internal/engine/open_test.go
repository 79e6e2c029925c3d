package engine

import (
	"errors"
	"testing"
	"time"

	"ipa/internal/core"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
)

// TestOpenDerivesTheStack pins what Open works out for its caller: the
// timeline from Chips, the timing from Cell, strict program order, the
// OOB size, the append budget, the engine's page size and a region's
// blocks.
func TestOpenDerivesTheStack(t *testing.T) {
	slc := flash.Geometry{Chips: 2, BlocksPerChip: 16, PagesPerBlock: 8, PageSize: 512, Cell: flash.SLC}
	mlc := slc
	mlc.Cell = flash.MLC
	oob64 := slc
	oob64.OOBSize = 64
	ipa := func(name string, scheme core.Scheme, blocks int) noftl.RegionConfig {
		return noftl.RegionConfig{Name: name, Mode: noftl.ModeSLC, Scheme: scheme, BlocksPerChip: blocks}
	}
	for _, c := range []struct {
		name       string
		g          flash.Geometry
		regions    []noftl.RegionConfig
		timing     flash.Timing
		oob        int
		maxAppends int
		capacity   int // logical pages of the first region
	}{
		{"slc", slc, []noftl.RegionConfig{ipa("a", core.NewScheme(2, 3), 0)}, flash.SLCTiming(), 32, 8, 2 * 16 * 8 * 9 / 10},
		{"largest N", slc, []noftl.RegionConfig{ipa("a", core.NewScheme(2, 3), 8), ipa("b", core.NewScheme(12, 2), 8)},
			flash.SLCTiming(), 32, 12, 2 * 8 * 8 * 9 / 10},
		{"pdl", slc, []noftl.RegionConfig{{Name: "a", Storage: noftl.StoragePDL}}, flash.SLCTiming(), 32, 64, 2 * 16 * 8 * 9 / 10},
		{"explicit OOB", oob64, []noftl.RegionConfig{ipa("a", core.Scheme{}, 4)}, flash.SLCTiming(), 64, 8, 2 * 4 * 8 * 9 / 10},
		{"mlc", mlc, []noftl.RegionConfig{{Name: "a", Mode: noftl.ModeOddMLC, Scheme: core.NewScheme(2, 3)}},
			flash.MLCTiming(), 32, 8, 2 * 16 * 8 * 9 / 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, tl, err := Open(Spec{Geometry: c.g, Regions: c.regions, Options: Options{BufferFrames: 8}})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if tl.Resources() != c.g.Chips || db.opts.Timeline != tl {
				t.Errorf("timeline: %d resources, engine's is the returned one: %v", tl.Resources(), db.opts.Timeline == tl)
			}
			if db.opts.PageSize != c.g.PageSize {
				t.Errorf("Options.PageSize = %d, want %d", db.opts.PageSize, c.g.PageSize)
			}
			arr := db.Device().Array()
			if got := arr.Geometry().OOBSize; got != c.oob {
				t.Errorf("OOBSize = %d, want %d", got, c.oob)
			}
			if got := arr.MaxAppends(); got != c.maxAppends {
				t.Errorf("MaxAppends = %d, want %d", got, c.maxAppends)
			}
			if got := db.Device().Region("a").LogicalCapacity(); got != c.capacity {
				t.Errorf("region a holds %d pages, want %d", got, c.capacity)
			}
			// Page 0 is an LSB page on either cell; the worker's clock is
			// at 0 and the chip idle, so the latency is the program alone.
			w, page := tl.NewWorker(), make([]byte, c.g.PageSize)
			lat, err := arr.Program(w, 0, page, nil)
			if want := c.timing.ProgramLSB + time.Duration(len(page))*c.timing.TransferPerByte; err != nil || lat != want {
				t.Errorf("program latency %v (%v), want %v", lat, err, want)
			}
			if _, err := arr.Program(w, 2, page, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := arr.Program(w, 1, page, nil); !errors.Is(err, flash.ErrProgramOrder) {
				t.Errorf("page 1 after page 2: %v, want ErrProgramOrder", err)
			}
		})
	}
}

// TestOpenRefusesWhatDoesNotFit: a spec the device cannot hold, or
// engine options that contradict what Open derives, is an error, not a
// panic.
func TestOpenRefusesWhatDoesNotFit(t *testing.T) {
	g := flash.Geometry{Chips: 2, BlocksPerChip: 16, PagesPerBlock: 8, PageSize: 512, Cell: flash.SLC}
	noChips := g
	noChips.Chips = -1
	region := func(name string, blocks int) noftl.RegionConfig {
		return noftl.RegionConfig{Name: name, BlocksPerChip: blocks}
	}
	a4 := []noftl.RegionConfig{region("a", 4)}
	opts := Options{BufferFrames: 8}
	for _, c := range []struct {
		name    string
		g       flash.Geometry
		regions []noftl.RegionConfig
		opts    Options
	}{
		{"region larger than the device", g, []noftl.RegionConfig{region("a", 17)}, opts},
		{"regions larger than the device", g, []noftl.RegionConfig{region("a", 10), region("b", 10)}, opts},
		{"second region on a full device", g, []noftl.RegionConfig{region("a", 0), region("b", 0)}, opts},
		{"duplicate region", g, []noftl.RegionConfig{region("a", 4), region("a", 4)}, opts},
		{"negative chips", noChips, a4, opts},
		{"no buffer", g, a4, Options{}},
		{"page size not the flash's", g, a4, Options{BufferFrames: 8, PageSize: 1024}},
		{"a timeline of its own", g, a4, Options{BufferFrames: 8, Timeline: sim.NewTimeline(2)}},
	} {
		if db, _, err := Open(Spec{Geometry: c.g, Regions: c.regions, Options: c.opts}); err == nil {
			db.Close()
			t.Errorf("%s: Open succeeded", c.name)
		}
	}
	// The flash page size itself is accepted.
	db, _, err := Open(Spec{Geometry: g, Regions: a4, Options: Options{BufferFrames: 8, PageSize: 512}})
	if err != nil {
		t.Fatalf("Options.PageSize equal to the flash's: %v", err)
	}
	db.Close()
}
