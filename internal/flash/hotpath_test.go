package flash

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ipa/internal/sim"
)

// Allocation guards: the device hot path must not allocate in steady
// state — the whole point of ReadInto and the word-scan kernels is that
// a TPC-B run's per-transaction flash traffic is GC-silent.

func TestReadIntoZeroAllocs(t *testing.T) {
	g := Geometry{Chips: 2, BlocksPerChip: 4, PagesPerBlock: 16, PageSize: 2048, OOBSize: 64, Cell: SLC}
	arr, err := New(Config{Geometry: g, Timing: SLCTiming()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, g.PageSize)
	for i := range img {
		img[i] = byte(i)
	}
	if _, err := arr.Program(nil, 3, img, nil); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, g.PageSize)
	oob := make([]byte, g.OOBSize)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := arr.ReadInto(nil, 3, data, oob); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadInto: %.1f allocs/op, want 0", allocs)
	}
	if !bytes.Equal(data, img) {
		t.Error("ReadInto returned wrong data")
	}
}

func TestProgramDeltaZeroAllocs(t *testing.T) {
	g := Geometry{Chips: 1, BlocksPerChip: 4, PagesPerBlock: 16, PageSize: 2048, OOBSize: 64, Cell: SLC}
	arr, err := New(Config{Geometry: g, Timing: SLCTiming(), MaxAppends: 1 << 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, g.PageSize)
	for i := range img {
		img[i] = 0xFF
	}
	if _, err := arr.Program(nil, 0, img, nil); err != nil {
		t.Fatal(err)
	}
	delta := make([]byte, 46) // zeros: always a legal 1→0 program
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := arr.ProgramDelta(nil, 0, 1000, delta, 0, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ProgramDelta: %.1f allocs/op, want 0", allocs)
	}
}

// TestConcurrentChipOps hammers the sharded array from many goroutines —
// several per chip, each owning distinct blocks — with the full
// Read/ReadInto/Program/ProgramDelta/Erase mix on a shared timeline. Run
// under -race (the Makefile gate does) this is the proof that per-chip
// sharding plus the striped timeline need no global lock.
func TestConcurrentChipOps(t *testing.T) {
	g := Geometry{Chips: 4, BlocksPerChip: 8, PagesPerBlock: 8, PageSize: 512, OOBSize: 16, Cell: SLC}
	tl := sim.NewTimeline(g.Chips)
	arr, err := New(Config{Geometry: g, Timing: SLCTiming(), MaxAppends: 1 << 30}, tl)
	if err != nil {
		t.Fatal(err)
	}
	totalBlocks := g.Chips * g.BlocksPerChip
	workers := 8 // two per chip
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			w := tl.NewWorker()
			img := make([]byte, g.PageSize)
			data := make([]byte, g.PageSize)
			oob := make([]byte, g.OOBSize)
			delta := make([]byte, 16)
			for round := 0; round < 3; round++ {
				for blk := wk; blk < totalBlocks; blk += workers {
					if _, err := arr.Erase(w, blk); err != nil {
						errs <- fmt.Errorf("worker %d erase %d: %w", wk, blk, err)
						return
					}
					base := g.FirstPageOfBlock(blk)
					for pi := 0; pi < g.PagesPerBlock; pi++ {
						p := base + PPN(pi)
						for i := range img {
							img[i] = byte(wk + round + pi)
						}
						if _, err := arr.Program(w, p, img, nil); err != nil {
							errs <- fmt.Errorf("worker %d program %d: %w", wk, p, err)
							return
						}
						if _, err := arr.ProgramDelta(w, p, 32, delta, 0, nil); err != nil {
							errs <- fmt.Errorf("worker %d delta %d: %w", wk, p, err)
							return
						}
						if _, err := arr.ReadInto(w, p, data, oob); err != nil {
							errs <- fmt.Errorf("worker %d read %d: %w", wk, p, err)
							return
						}
						for i := 32; i < 48; i++ {
							if data[i] != 0 {
								errs <- fmt.Errorf("worker %d page %d: delta bytes not zero", wk, p)
								return
							}
						}
					}
				}
			}
		}(wk)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := arr.Stats()
	wantPrograms := uint64(workers * 3 * (totalBlocks / workers) * g.PagesPerBlock)
	if st.Programs != wantPrograms {
		t.Errorf("aggregated Programs = %d, want %d", st.Programs, wantPrograms)
	}
	if st.DeltaPrograms != wantPrograms {
		t.Errorf("aggregated DeltaPrograms = %d, want %d", st.DeltaPrograms, wantPrograms)
	}
	if st.Erases != uint64(workers*3*(totalBlocks/workers)) {
		t.Errorf("aggregated Erases = %d", st.Erases)
	}
	if tl.Horizon() <= 0 {
		t.Error("timeline horizon did not advance")
	}
}

func TestReadStatsCountOOBBytes(t *testing.T) {
	g := Geometry{Chips: 1, BlocksPerChip: 2, PagesPerBlock: 4, PageSize: 512, OOBSize: 16, Cell: SLC}
	arr, err := New(Config{Geometry: g, Timing: SLCTiming()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := arr.Read(nil, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := arr.Stats().BytesRead, uint64(g.PageSize+g.OOBSize); got != want {
		t.Errorf("BytesRead after one read = %d, want %d (data+OOB)", got, want)
	}
}

// benchGeometry is the device of the whole-stack benchmark's flash
// workloads (bench/stack.go): 16 chips, a pages-per-chip count that is
// not a power of two, 64-page blocks of 4 KiB pages with 256 B spares.
var benchGeometry = Geometry{Chips: 16, BlocksPerChip: 41, PagesPerBlock: 64, PageSize: 4096, OOBSize: 256, Cell: SLC}

// benchArray returns that device with every page programmed, and the page
// image and spare area it was programmed with.
func benchArray(b *testing.B) (*Array, []byte, []byte) {
	b.Helper()
	arr, err := New(Config{Geometry: benchGeometry, Timing: SLCTiming(), Endurance: 1 << 30}, nil)
	if err != nil {
		b.Fatal(err)
	}
	img, oob := make([]byte, benchGeometry.PageSize), make([]byte, benchGeometry.OOBSize)
	for i := range img {
		img[i] = byte(i * 7)
	}
	for p := 0; p < benchGeometry.TotalPages(); p++ {
		if _, err := arr.Program(nil, PPN(p), img, oob); err != nil {
			b.Fatal(err)
		}
	}
	return arr, img, oob
}

// BenchmarkArrayRandomRead is the device read path of both flash
// workloads: uniform-random ReadInto (data and spare) over a fully
// programmed array. The page order is drawn before the clock starts.
func BenchmarkArrayRandomRead(b *testing.B) {
	arr, _, oob := benchArray(b)
	rng := rand.New(rand.NewSource(1))
	order := make([]PPN, 1<<16)
	for i := range order {
		order[i] = PPN(rng.Intn(benchGeometry.TotalPages()))
	}
	data := make([]byte, benchGeometry.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arr.ReadInto(nil, order[i&(len(order)-1)], data, oob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArrayEraseProgramBlock is one garbage-collection cycle of a
// block as the device sees it in steady state — every block has been
// programmed before — erase, then program every page with its spare area,
// walking the blocks of the array round-robin.
func BenchmarkArrayEraseProgramBlock(b *testing.B) {
	arr, img, oob := benchArray(b)
	blocks := benchGeometry.TotalBlocks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := i % blocks
		if _, err := arr.Erase(nil, blk); err != nil {
			b.Fatal(err)
		}
		first := benchGeometry.FirstPageOfBlock(blk)
		for pi := 0; pi < benchGeometry.PagesPerBlock; pi++ {
			if _, err := arr.Program(nil, first+PPN(pi), img, oob); err != nil {
				b.Fatal(err)
			}
		}
	}
}
