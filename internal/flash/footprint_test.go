package flash_test

import (
	"runtime"
	"testing"
	"time"

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

// settledMappedBytes collects until every finalizer due has run and then
// reads the mapped-block gauge. A sentinel's finalizer is waited for
// twice: the runtime runs queued finalizers a batch at a time, so the
// second sentinel runs only after the whole batch of the first
// collection, every dropped Array's arena included.
func settledMappedBytes(t *testing.T) int64 {
	t.Helper()
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		sentinel := new([32]byte)
		runtime.SetFinalizer(sentinel, func(*[32]byte) { close(done) })
		sentinel = nil
		runtime.GC()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("no finalizer ran within 10 s of a collection")
		}
	}
	return flash.MappedBlockBytes()
}

// fill programs every page of the array.
func fill(t *testing.T, arr *flash.Array) {
	t.Helper()
	g := arr.Geometry()
	img, oob := make([]byte, g.PageSize), make([]byte, g.OOBSize)
	for p := 0; p < g.TotalPages(); p++ {
		img[0] = byte(p)
		if _, err := arr.Program(nil, flash.PPN(p), img, oob); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIdleDeviceHoldsNoPageMemory: a 64 MiB array costs its per-page
// bookkeeping (three bytes a page) and nothing else, also once a NoFTL
// device has laid a region over all of it.
func TestIdleDeviceHoldsNoPageMemory(t *testing.T) {
	g := flash.Geometry{Chips: 8, BlocksPerChip: 64, PagesPerBlock: 32, PageSize: 4096, OOBSize: 128, Cell: flash.SLC}
	if c := g.TotalPages() * g.PageSize; c != 64<<20 {
		t.Fatalf("geometry holds %d bytes", c)
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

// TestMappedBlocksFollowTheArray: where block buffers are mappings, an
// idle array maps nothing, a full one maps exactly its blocks, erasing
// and refilling it maps nothing more (the free list hands the buffers
// back), and once the array is dropped a collection unmaps all of it.
func TestMappedBlocksFollowTheArray(t *testing.T) {
	if !flash.BlockMemOffHeap {
		t.Skip("block buffers are heap slices in this build")
	}
	g := flash.Geometry{Chips: 4, BlocksPerChip: 8, PagesPerBlock: 16, PageSize: 2048, OOBSize: 64, Cell: flash.SLC}
	blockBytes := int64(g.PagesPerBlock * (g.PageSize + g.OOBSize))
	base := settledMappedBytes(t)
	arr, err := flash.New(flash.Config{Geometry: g, Timing: flash.SLCTiming()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := flash.MappedBlockBytes() - base; got != 0 {
		t.Fatalf("an idle array maps %d bytes, want 0", got)
	}
	fill(t, arr)
	full := int64(g.TotalBlocks()) * blockBytes
	if got := flash.MappedBlockBytes() - base; got != full {
		t.Fatalf("a full array maps %d bytes, want %d blocks × %d = %d", got, g.TotalBlocks(), blockBytes, full)
	}
	for b := 0; b < g.TotalBlocks(); b++ {
		if _, err := arr.Erase(nil, b); err != nil {
			t.Fatal(err)
		}
	}
	fill(t, arr)
	if got := flash.MappedBlockBytes() - base; got != full {
		t.Fatalf("after erasing and refilling, the array maps %d bytes, want %d", got, full)
	}
	// The bytes are what was programmed, read back through the mapping.
	data := make([]byte, g.PageSize)
	if _, err = arr.ReadInto(nil, flash.PPN(g.TotalPages()-1), data, nil); err != nil || data[0] != byte(g.TotalPages()-1) {
		t.Fatalf("last page reads %#02x, %v", data[0], err)
	}
	arr = nil
	if got := settledMappedBytes(t) - base; got != 0 {
		t.Fatalf("%d bytes stay mapped after the array was collected", got)
	}
}

// TestProgrammedDeviceStaysOffHeap: where block buffers are mappings,
// programming every page of a 64 MiB device leaves the Go heap where it
// was — the device's bytes are not the collector's to scan or to pace.
func TestProgrammedDeviceStaysOffHeap(t *testing.T) {
	if !flash.BlockMemOffHeap {
		t.Skip("block buffers are heap slices in this build")
	}
	g := flash.Geometry{Chips: 8, BlocksPerChip: 64, PagesPerBlock: 32, PageSize: 4096, OOBSize: 128, Cell: flash.SLC}
	if c := g.TotalPages() * g.PageSize; c != 64<<20 {
		t.Fatalf("geometry holds %d bytes", c)
	}
	arr, err := flash.New(flash.Config{Geometry: g, Timing: flash.SLCTiming()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := heapAlloc()
	fill(t, arr)
	if grew := int64(heapAlloc() - before); grew >= 1<<20 {
		t.Errorf("programming all 64 MiB grew the heap by %d bytes, want < 1 MiB", grew)
	}
	if got, want := arr.Stats().ResidentBytes, uint64(g.TotalPages()*(g.PageSize+g.OOBSize)); got != want {
		t.Errorf("ResidentBytes = %d, want %d", got, want)
	}
}
