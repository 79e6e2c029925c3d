package flash_test

import (
	"runtime"
	"testing"

	"ipa/internal/flash"
	"ipa/internal/noftl"
)

// The memory guards of the device (`make footprint`): capacity costs
// nothing until it is programmed, and an erase gives it back.

// heapAlloc is the live heap after a collection.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestIdleDeviceHoldsNoPageMemory: a 64 MiB array costs its per-page
// bookkeeping (three bytes a page) and nothing else, also once a NoFTL
// device has laid a region over all of it.
func TestIdleDeviceHoldsNoPageMemory(t *testing.T) {
	g := flash.Geometry{Chips: 8, BlocksPerChip: 64, PagesPerBlock: 32, PageSize: 4096, OOBSize: 128, Cell: flash.SLC}
	if g.Capacity() != 64<<20 {
		t.Fatalf("geometry holds %d bytes", g.Capacity())
	}
	const limit = 1 << 20
	before := heapAlloc()
	arr, err := flash.New(flash.Config{Geometry: g, Timing: flash.SLCTiming()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if grew := int64(heapAlloc() - before); grew > limit {
		t.Errorf("flash.New holds %d bytes of heap, want < %d", grew, limit)
	}
	dev := noftl.Open(arr)
	region, err := dev.CreateRegion(noftl.RegionConfig{Name: "main", Mode: noftl.ModeSLC, BlocksPerChip: g.BlocksPerChip})
	if err != nil {
		t.Fatal(err)
	}
	if grew := int64(heapAlloc() - before); grew > limit {
		t.Errorf("array + device + region hold %d bytes of heap, want < %d", grew, limit)
	}
	if got := arr.Stats().ResidentBytes; got != 0 {
		t.Errorf("ResidentBytes = %d on a device nothing was written to", got)
	}
	runtime.KeepAlive(region)
}

// TestEraseReleasesAndReusesBlock: programming every page makes every
// block resident, erasing them all gives everything back, and filling the
// device a second time runs on the buffers of the first.
func TestEraseReleasesAndReusesBlock(t *testing.T) {
	g := flash.Geometry{Chips: 2, BlocksPerChip: 6, PagesPerBlock: 8, PageSize: 512, OOBSize: 16, Cell: flash.SLC}
	arr, err := flash.New(flash.Config{Geometry: g, Timing: flash.SLCTiming()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	img, oob := make([]byte, g.PageSize), make([]byte, g.OOBSize)
	cycle := func() {
		for p := 0; p < g.TotalPages(); p++ {
			if _, err := arr.Program(nil, flash.PPN(p), img, oob); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := arr.Stats().ResidentBytes, uint64(g.TotalPages()*(g.PageSize+g.OOBSize)); got != want {
			t.Fatalf("ResidentBytes = %d on a fully programmed device, want %d", got, want)
		}
		for b := 0; b < g.TotalBlocks(); b++ {
			if _, err := arr.Erase(nil, b); err != nil {
				t.Fatal(err)
			}
		}
		if got := arr.Stats().ResidentBytes; got != 0 {
			t.Fatalf("ResidentBytes = %d after erasing every block, want 0", got)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(3, cycle); allocs != 0 {
		t.Errorf("a second fill of the device allocated %.0f times, want 0", allocs)
	}
	// One page is enough to make its block resident, and only its block.
	if _, err := arr.Program(nil, g.FirstPageOfBlock(3), img, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := arr.Stats().ResidentBytes, uint64(g.PagesPerBlock*(g.PageSize+g.OOBSize)); got != want {
		t.Errorf("ResidentBytes = %d with one page programmed, want one block (%d)", got, want)
	}
}

// TestInjectLeakOnErasedPage: uncharged cells have nothing to leak, and
// asking does not bring the page's block into being.
func TestInjectLeakOnErasedPage(t *testing.T) {
	g := flash.Geometry{Chips: 1, BlocksPerChip: 2, PagesPerBlock: 4, PageSize: 256, OOBSize: 8, Cell: flash.SLC}
	arr, err := flash.New(flash.Config{Geometry: g, Timing: flash.SLCTiming()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := arr.InjectLeak(5, 16); n != 0 || err != nil {
		t.Errorf("InjectLeak on an erased page = %d, %v; want 0, nil", n, err)
	}
	if st := arr.Stats(); st.LeakedBits != 0 || st.ResidentBytes != 0 {
		t.Errorf("after a leak on an erased page: %+v", st)
	}
}
