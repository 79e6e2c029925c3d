package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPageTableBasics(t *testing.T) {
	var pt PageTable[int]
	if pt.Lookup(1) != nil {
		t.Error("empty table has an entry")
	}
	// Ids in the first chunk, the second, and far enough out to grow the
	// top level twice.
	ids := []PageID{0, 1, tableChunkLen - 1, tableChunkLen, 9 * tableChunkLen, 40*tableChunkLen + 17}
	for i, id := range ids {
		e, err := pt.Entry(id)
		if err != nil {
			t.Fatalf("Entry(%d): %v", id, err)
		}
		if *e != 0 {
			t.Errorf("fresh entry %d = %d", id, *e)
		}
		*e = i + 1
	}
	for i, id := range ids {
		e := pt.Lookup(id)
		if e == nil || *e != i+1 {
			t.Errorf("Lookup(%d) = %v, want %d", id, e, i+1)
		}
		if again, _ := pt.Entry(id); again != e {
			t.Errorf("entry %d moved", id)
		}
	}
	if pt.Lookup(20*tableChunkLen) != nil {
		t.Error("an id in a chunk nobody touched has an entry")
	}
	pt.Reset()
	for _, id := range ids {
		if pt.Lookup(id) != nil {
			t.Errorf("entry %d survived Reset", id)
		}
	}
}

// Out-of-range ids are an error and size no allocation, whatever the
// upper bits say.
func TestPageTableBound(t *testing.T) {
	var pt PageTable[uint64]
	if _, err := pt.Entry(MaxPageID); err != nil {
		t.Fatalf("Entry(MaxPageID): %v", err)
	}
	for _, id := range []PageID{MaxPageID + 1, 1 << 40, 1 << 63, ^PageID(0)} {
		if e, err := pt.Entry(id); !errors.Is(err, ErrPageIDRange) || e != nil {
			t.Errorf("Entry(%d) = %v, %v; want ErrPageIDRange", id, e, err)
		}
		if pt.Lookup(id) != nil {
			t.Errorf("Lookup(%d) found an entry", id)
		}
	}
	// The largest id sizes the largest top level there can be: 8 MiB.
	if top := *pt.top.Load(); len(top) != int(MaxPageID>>tableChunkBits)+1 {
		t.Errorf("top level has %d entries, want %d", len(top), int(MaxPageID>>tableChunkBits)+1)
	}
}

func TestPageTableLookupAllocs(t *testing.T) {
	var pt PageTable[atomic.Uint64]
	e, _ := pt.Entry(12345)
	e.Store(7)
	allocs := testing.AllocsPerRun(1000, func() {
		if pt.Lookup(12345).Load() != 7 {
			t.Fatal("entry lost")
		}
		if _, err := pt.Entry(12345); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Lookup+Entry of a present id: %.1f allocs/op, want 0", allocs)
	}
}

// Writers set, swap and compare-and-swap entries of ids they own while
// the table grows under them (each writer walks into fresh chunks, which
// also doubles the top level several times) and readers sweep the whole
// id range. Every entry must end with its writer's last value, no entry
// may move, and a reader may only ever see values a writer stored.
func TestPageTableConcurrent(t *testing.T) {
	const (
		writers = 4
		perW    = 6 * tableChunkLen // ids per writer, interleaved: id%writers = writer
		rounds  = 3
	)
	var pt PageTable[atomic.Uint64]
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for id := PageID(0); id < writers*perW; id += 7 {
					if e := pt.Lookup(id); e != nil {
						if v := e.Load(); v != 0 && (v>>8) != uint64(id) {
							t.Errorf("entry %d holds %#x, a value stored for id %d", id, v, v>>8)
							return
						}
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seen := make(map[PageID]*atomic.Uint64)
			for round := 1; round <= rounds; round++ {
				for i := 0; i < perW; i++ {
					id := PageID(i*writers + w)
					e, err := pt.Entry(id)
					if err != nil {
						t.Errorf("Entry(%d): %v", id, err)
						return
					}
					if prev, ok := seen[id]; ok && prev != e {
						t.Errorf("entry %d moved", id)
						return
					}
					seen[id] = e
					val := uint64(id)<<8 | uint64(round)
					switch round {
					case 1:
						e.Store(val)
					case 2:
						if old := e.Swap(val); old != uint64(id)<<8|1 {
							t.Errorf("entry %d: swapped out %#x", id, old)
							return
						}
					default:
						if !pt.Lookup(id).CompareAndSwap(uint64(id)<<8|2, val) {
							t.Errorf("entry %d: compare-and-swap lost against nobody", id)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for id := PageID(0); id < writers*perW; id++ {
		if got, want := pt.Lookup(id).Load(), uint64(id)<<8|rounds; got != want {
			t.Fatalf("entry %d = %#x, want %#x", id, got, want)
		}
	}
}
