package engine

import (
	"fmt"
	"sync/atomic"

	"ipa/internal/core"
)

// pageDir maps page ids to their owning store: a flat table of atomic
// pointers, so the buffer pool's fetch/flush router — on the path of
// every miss and eviction — pays one array load and takes no lock. A nil
// entry is a page nobody allocated.
type pageDir struct {
	t core.PageTable[atomic.Pointer[PageStore]]
}

// get returns the store owning id, or nil.
func (pd *pageDir) get(id core.PageID) *PageStore {
	if e := pd.t.Lookup(id); e != nil {
		return e.Load()
	}
	return nil
}

// put registers id as owned by st. It fails for an id beyond
// core.MaxPageID, which only an id from outside the engine can be.
func (pd *pageDir) put(id core.PageID, st *PageStore) error {
	e, err := pd.t.Entry(id)
	if err != nil {
		return err
	}
	e.Store(st)
	return nil
}

// delete removes id (failed allocation, page free).
func (pd *pageDir) delete(id core.PageID) {
	if e := pd.t.Lookup(id); e != nil {
		e.Store(nil)
	}
}

// wireIDWindow is how far above a high-water mark a page id from another
// node may lie. Ids are issued from a dense counter, so the RecAlloc
// stream of an honest leader runs ahead of the follower's own counter
// only by the allocations that were in flight or failed after taking
// their id: a handful. core.MaxPageID alone is not enough of a bound: a
// page table pays a 32 KiB chunk for the first id in every run of 4096,
// so a stream of ids stepping by 4096 would pin a chunk per 60-byte
// record in the directory, and another in the pool and in the region
// once the page is touched. Within the window an id costs at most 64
// entries (512 B) per table, less than the log record it arrives in
// retains.
const wireIDWindow = 64

// checkWireID refuses a page id from another node that is beyond
// core.MaxPageID or more than wireIDWindow above high.
func checkWireID(id core.PageID, high uint64) error {
	if id > core.MaxPageID || uint64(id) > high && uint64(id)-high > wireIDWindow {
		return fmt.Errorf("%w: %d is not within %d of the high-water mark %d",
			core.ErrPageIDRange, id, wireIDWindow, high)
	}
	return nil
}

// clear empties the directory (replica snapshot install; the state latch
// is held exclusively, so nobody is reading).
func (pd *pageDir) clear() { pd.t.Reset() }
