package engine

import (
	"errors"
	"fmt"

	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
)

// Spec is everything a program decides about a stack: the device's
// shape, the regions laid out on it and the engine's options. Open works
// out the rest.
type Spec struct {
	Geometry flash.Geometry
	Regions  []noftl.RegionConfig
	Options  Options
}

// Open assembles flash → NoFTL → regions → engine, the one stack of the
// paper's Figure 3, and returns the database with its timeline. What
// every stack shares is decided here, not by the caller:
//   - one timeline with a resource per chip, for the array and the
//     engine (Options.Timeline);
//   - the timing of the geometry's cell type;
//   - strict program order within a block;
//   - an OOB area of PageSize/16 when Geometry.OOBSize is 0;
//   - an append budget of max(8, the largest scheme's N), at least 64 when a
//     region is PDL, which packs many small records per log page;
//   - the engine's page size, the flash page size (Options.PageSize, if
//     set, must be that; Options.Timeline must be unset);
//   - a region's BlocksPerChip, when 0, the geometry's.
func Open(s Spec) (*DB, *sim.Timeline, error) {
	g, opts := s.Geometry, s.Options
	if opts.PageSize != 0 && opts.PageSize != g.PageSize {
		return nil, nil, fmt.Errorf("engine: Options.PageSize %d is not the flash page size %d", opts.PageSize, g.PageSize)
	}
	if opts.Timeline != nil {
		return nil, nil, errors.New("engine: Options.Timeline is Open's to set")
	}
	if g.OOBSize == 0 {
		g.OOBSize = g.PageSize / 16
	}
	// Checked before the timeline is sized from Chips.
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	timing := flash.SLCTiming()
	if g.Cell == flash.MLC {
		timing = flash.MLCTiming()
	}
	tl := sim.NewTimeline(g.Chips)
	arr, err := flash.New(flash.Config{
		Geometry: g, Timing: timing, StrictProgramOrder: true,
		MaxAppends: maxAppends(s.Regions),
	}, tl)
	if err != nil {
		return nil, nil, err
	}
	dev := noftl.Open(arr)
	for _, rc := range s.Regions {
		if rc.BlocksPerChip == 0 {
			rc.BlocksPerChip = g.BlocksPerChip
		}
		if _, err := dev.CreateRegion(rc); err != nil {
			return nil, nil, err
		}
	}
	opts.PageSize = g.PageSize
	opts.Timeline = tl
	db, err := New(dev, opts)
	if err != nil {
		return nil, nil, err
	}
	return db, tl, nil
}

// maxAppends is the device's re-program budget for the regions: enough
// for the largest delta area, never below the SLC default of 8. PDL's
// budget bounds records per log page, not correctness.
func maxAppends(regions []noftl.RegionConfig) int {
	n := 8
	for _, rc := range regions {
		n = max(n, rc.Scheme.N)
		if rc.Storage == noftl.StoragePDL {
			n = max(n, 64)
		}
	}
	return n
}
