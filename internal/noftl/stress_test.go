package noftl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ipa/internal/core"
	"ipa/internal/flash"
	"ipa/internal/sim"
)

// The -race stress gate of this package: two regions share one array,
// each hammered by concurrent writers that collect inline on every
// chip. Afterwards every shadow entry must read back,
// physical locations must be unique, and a ScanPhysical + Adopt rebuild
// must reproduce a consistent region.
func TestConcurrentGCStress(t *testing.T) {
	const (
		chips         = 4
		blocksPerChip = 24 // per region: 12 each
		pagesPerBlock = 16
		pageSize      = 512
		writers       = 4
		opsPerWriter  = 1200
	)
	g := flash.Geometry{
		Chips: chips, BlocksPerChip: blocksPerChip, PagesPerBlock: pagesPerBlock,
		PageSize: pageSize, OOBSize: pageSize / 16, Cell: flash.SLC,
	}
	tl := sim.NewTimeline(chips)
	arr, err := flash.New(flash.Config{
		Geometry: g, Timing: flash.SLCTiming(), StrictProgramOrder: true, MaxAppends: 8,
	}, tl)
	if err != nil {
		t.Fatal(err)
	}
	dev := Open(arr)

	regions := make([]*Region, 2)
	for i := range regions {
		regions[i], err = dev.CreateRegion(RegionConfig{
			Name: fmt.Sprintf("r%d", i), Mode: ModeSLC,
			BlocksPerChip: blocksPerChip / 2, OverProvision: 0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	type shadow struct {
		fill byte
		has  bool
	}
	// Writers own disjoint id ranges, so each shadow cell has a single
	// owner and needs no lock.
	shadows := make([][][]shadow, len(regions))
	perWriter := regions[0].LogicalCapacity() / writers
	var wg sync.WaitGroup
	errCh := make(chan error, len(regions)*writers)
	for ri, r := range regions {
		shadows[ri] = make([][]shadow, writers)
		for k := 0; k < writers; k++ {
			shadows[ri][k] = make([]shadow, perWriter)
			wg.Add(1)
			go func(r *Region, ri, k int) {
				defer wg.Done()
				w := tl.NewWorker()
				rng := rand.New(rand.NewSource(int64(ri*writers+k)*2654435761 + 1))
				sh := shadows[ri][k]
				base := k * perWriter
				for op := 0; op < opsPerWriter; op++ {
					slot := rng.Intn(perWriter)
					id := core.PageID(base + slot + 1)
					fill := byte(op)
					if err := r.Write(w, id, pageOf(r.dev, fill), nil); err != nil {
						errCh <- fmt.Errorf("region %d write %d: %w", ri, id, err)
						return
					}
					sh[slot].fill, sh[slot].has = fill, true
					if rng.Intn(8) == 0 {
						got, _, err := readPage(r, w, id)
						if err != nil {
							errCh <- fmt.Errorf("region %d read %d: %w", ri, id, err)
							return
						}
						if got[0] != fill {
							errCh <- fmt.Errorf("region %d page %d read fill %d, want %d", ri, id, got[0], fill)
							return
						}
					}
				}
			}(r, ri, k)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		for ri, r := range regions {
			t.Logf("region %d state:\n%s", ri, dumpChips(r))
		}
		t.Fatal(err)
	}
	for ri, r := range regions {
		s := r.Stats()
		if s.GCErases == 0 {
			t.Errorf("region %d: churn never triggered GC (%+v)", ri, s)
		}
		// Every live shadow entry reads back with its last value, and no
		// two logical pages share a physical location.
		seen := make(map[flash.PPN]core.PageID)
		mapping := make(map[core.PageID]flash.PPN)
		live := 0
		for k := 0; k < writers; k++ {
			for slot, sh := range shadows[ri][k] {
				if !sh.has {
					continue
				}
				live++
				id := core.PageID(k*perWriter + slot + 1)
				got, _, err := readPage(r, nil, id)
				if err != nil {
					t.Fatalf("region %d final read %d: %v", ri, id, err)
				}
				if got[0] != sh.fill {
					t.Fatalf("region %d page %d fill %d, want %d", ri, id, got[0], sh.fill)
				}
				ppn := mustPPN(t, r, id)
				if prev, dup := seen[ppn]; dup {
					t.Fatalf("region %d: pages %d and %d share ppn %d", ri, prev, id, ppn)
				}
				seen[ppn] = id
				mapping[id] = ppn
			}
		}
		if r.MappedPages() != live {
			t.Errorf("region %d MappedPages = %d, shadow has %d", ri, r.MappedPages(), live)
		}
		// Every mapped location must be programmed flash: ScanPhysical
		// must surface each of them.
		programmed := make(map[flash.PPN]bool)
		if err := r.ScanPhysical(nil, func(p PhysicalPage) bool {
			programmed[p.PPN] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for id, ppn := range mapping {
			if !programmed[ppn] {
				t.Fatalf("region %d: page %d maps to unprogrammed ppn %d", ri, id, ppn)
			}
		}
		// Rebuild from the collected mapping and verify again — the
		// crash-recovery contract under the sharded layout.
		if err := r.Adopt(mapping); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < writers; k++ {
			for slot, sh := range shadows[ri][k] {
				if !sh.has {
					continue
				}
				id := core.PageID(k*perWriter + slot + 1)
				got, _, err := readPage(r, nil, id)
				if err != nil || got[0] != sh.fill {
					t.Fatalf("region %d post-adopt read %d: %v", ri, id, err)
				}
			}
		}
	}
}

// dumpChips renders per-chip occupancy for stress-failure diagnostics.
func dumpChips(r *Region) string {
	var b strings.Builder
	for _, c := range r.chips {
		cs := r.byChip[c]
		cs.mu.Lock()
		totValid, occupied, full := 0, 0, 0
		for _, bm := range cs.blocks {
			totValid += bm.valid
			if !bm.free {
				occupied++
			}
			if bm.valid >= r.usablePagesPerBlock() {
				full++
			}
		}
		fmt.Fprintf(&b, "  chip %d: free=%d occupied=%d fullValidBlocks=%d totValid=%d reverse=%d\n",
			cs.chip, cs.freeLen(), occupied, full, totValid, len(cs.reverse))
		cs.mu.Unlock()
	}
	return b.String()
}

// Concurrent first-writes of the same id race to different chips; the
// loser's copy must be dropped and the capacity counter must not leak.
// Every goroutine writes ids 1..10 in turn, five times each, so each id
// starts with a race of first writes.
func TestRacingFirstWrites(t *testing.T) {
	dev := newDevice(t, flash.SLC, 4, 8, 8, 256)
	r, err := dev.CreateRegion(RegionConfig{
		Name: "d", Mode: ModeSLC, BlocksPerChip: 8, OverProvision: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, ids = 8, 10
	var wg sync.WaitGroup
	for k := 0; k < goroutines; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			img := pageOf(dev, byte(k))
			for i := 0; i < 5*ids; i++ {
				if err := r.Write(nil, core.PageID(1+i/5), img, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	mapped := r.MappedPages()
	if mapped != ids {
		t.Fatalf("MappedPages = %d after racing writes of %d ids", mapped, ids)
	}
	for id := core.PageID(1); id <= ids; id++ {
		if got, _, err := readPage(r, nil, id); err != nil || !bytes.Equal(got[1:16], got[0:15]) {
			t.Fatalf("winner of page %d unreadable: %v", id, err)
		}
	}
	// The capacity counter must be exact: filling the remaining logical
	// space succeeds and one more write fails with ErrRegionFull.
	capPages := r.LogicalCapacity()
	for i := mapped; i < capPages; i++ {
		if err := r.Write(nil, core.PageID(i+1000), pageOf(dev, 7), nil); err != nil {
			t.Fatalf("fill to capacity at %d/%d: %v", i, capPages, err)
		}
	}
	if err := r.Write(nil, core.PageID(capPages+1000), pageOf(dev, 7), nil); !errors.Is(err, ErrRegionFull) {
		t.Fatalf("write past capacity: %v", err)
	}
}
