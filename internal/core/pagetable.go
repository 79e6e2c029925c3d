package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// MaxPageID is the largest page id a PageTable holds an entry for. Page
// ids are issued densely from a counter, so the bound is never met by an
// id the engine allocated itself; it exists for ids that arrive from
// outside (a shipped log record, a snapshot, a recovered page header),
// which are arbitrary 64-bit values and must not size an allocation.
const MaxPageID PageID = 1<<32 - 1

// ErrPageIDRange is returned for a page id beyond MaxPageID.
var ErrPageIDRange = errors.New("core: page id out of range")

const (
	tableChunkBits = 12
	tableChunkLen  = 1 << tableChunkBits
)

// PageTable is a flat translation table from PageID to an entry of type
// E: a two-level array, because page ids are dense small integers and a
// hash map pays for generality they do not need. The zero value is an
// empty table, and the zero E means "absent".
//
// Chunks of 4096 entries are allocated on first use and never move or
// go away (short of Reset), so the *E that Lookup and Entry return stays
// valid and reads take no lock. The top level doubles copy-on-write
// under mu. The table synchronises only its own structure: what guards
// the entries — an atomic E, or a lock of the owner's — is the owner's
// choice.
type PageTable[E any] struct {
	top atomic.Pointer[[]atomic.Pointer[[tableChunkLen]E]]
	mu  sync.Mutex // chunk allocation and top-level growth
}

// Lookup returns the entry of id, or nil when its chunk was never
// allocated (in particular for every id beyond MaxPageID).
func (t *PageTable[E]) Lookup(id PageID) *E {
	top := t.top.Load()
	hi := uint64(id) >> tableChunkBits
	if top == nil || hi >= uint64(len(*top)) {
		return nil
	}
	c := (*top)[hi].Load()
	if c == nil {
		return nil
	}
	return &c[uint64(id)&(tableChunkLen-1)]
}

// Entry returns the entry of id, allocating its chunk if need be. Ids
// beyond MaxPageID fail with ErrPageIDRange.
func (t *PageTable[E]) Entry(id PageID) (*E, error) {
	if e := t.Lookup(id); e != nil {
		return e, nil
	}
	if id > MaxPageID {
		return nil, fmt.Errorf("%w: %d (max %d)", ErrPageIDRange, id, MaxPageID)
	}
	hi := int(uint64(id) >> tableChunkBits)
	t.mu.Lock()
	defer t.mu.Unlock()
	top := t.top.Load()
	if top == nil || hi >= len(*top) {
		n := 8
		for n <= hi {
			n *= 2
		}
		grown := make([]atomic.Pointer[[tableChunkLen]E], n)
		if top != nil {
			for i := range *top {
				grown[i].Store((*top)[i].Load())
			}
		}
		top = &grown
		t.top.Store(top)
	}
	c := (*top)[hi].Load()
	if c == nil {
		c = new([tableChunkLen]E)
		(*top)[hi].Store(c)
	}
	return &c[uint64(id)&(tableChunkLen-1)], nil
}

// Reset empties the table. Entries handed out before are orphaned, so
// the caller must have quiesced every user.
func (t *PageTable[E]) Reset() {
	t.mu.Lock()
	t.top.Store(nil)
	t.mu.Unlock()
}
