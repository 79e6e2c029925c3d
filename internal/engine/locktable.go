package engine

import (
	"math/bits"
	"sync"

	"ipa/internal/core"
)

// lockShardBits sizes the RID lock table: 1<<lockShardBits independent
// shards, chosen by the top bits of the RID's hash.
const (
	lockShardBits = 6
	lockShards    = 1 << lockShardBits

	// A shard's slot array starts at minLockSlots and doubles while more
	// than half of it is in use. One that held a large transaction's locks
	// is given back once it is empty again, so it does not keep that
	// transaction's memory, while the small tables of the steady state
	// stay allocated.
	minLockSlots     = 8
	maxIdleLockSlots = 64
)

// lockTable is a sharded no-wait exclusive lock table at RID granularity.
// Acquire either succeeds immediately or fails with the current owner —
// there is no waiting, so deadlocks cannot arise (no-wait deadlock
// avoidance); callers abort and retry.
//
// Each shard has its own mutex and no cache line holds fields of two
// shards. The hash mixes a tuple's slot with its page, so the rows of one
// page spread over the shards. Two transactions locking different tuples
// therefore write no common cache line unless the tuples' hashes pick the
// same shard.
type lockTable struct {
	_      [64]byte // off the line of whatever precedes the table
	shards [lockShards]lockShard
}

// lockShard maps the RIDs locked in its part of the hash space to their
// owners: open addressing with linear probing, at most half full, and a
// release shifts the entries behind the freed slot back into it instead
// of leaving a tombstone. A probe therefore stays O(1) expected however
// many locks a transaction holds and however many came and went before.
//
// The fields take 48 bytes and a line of padding follows them, so a
// shard's fields share no line with its neighbours' wherever the table
// starts.
type lockShard struct {
	mu    sync.Mutex
	n     int        // locks held
	shift uint       // 64 − log2(len(slots))
	slots []lockSlot // nil or a power of two long
	_     [80]byte
}

// lockSlot is one entry; owner 0 marks a free slot (transaction ids
// start at 1).
type lockSlot struct {
	rid   core.RID
	owner uint64
}

// lockHash is Fibonacci hashing of the whole RID: its top lockShardBits
// pick the shard, the bits below them the home slot within it.
func lockHash(rid core.RID) uint64 {
	return (uint64(rid.Page)<<16 | uint64(rid.Slot)) * 0x9e3779b97f4a7c15
}

func (lt *lockTable) shard(h uint64) *lockShard {
	return &lt.shards[h>>(64-lockShardBits)]
}

// home is the slot a hash probes first.
func (s *lockShard) home(h uint64) int {
	return int((h << lockShardBits) >> s.shift)
}

// acquire takes the exclusive lock on rid for txID. ok reports success
// (including re-acquisition); fresh reports a first-time acquisition the
// caller must remember for release; owner is the holder on conflict.
func (lt *lockTable) acquire(rid core.RID, txID uint64) (ok, fresh bool, owner uint64) {
	h := lockHash(rid)
	s := lt.shard(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := len(s.slots) - 1
	for i := s.home(h); ; i = (i + 1) & mask {
		e := &s.slots[i]
		if e.owner == 0 {
			*e = lockSlot{rid: rid, owner: txID}
			s.n++
			return true, true, txID
		}
		if e.rid == rid {
			return e.owner == txID, false, e.owner
		}
	}
}

// grow doubles the slot array and reinserts every entry.
func (s *lockShard) grow() {
	old := s.slots
	size := max(2*len(old), minLockSlots)
	s.slots = make([]lockSlot, size)
	s.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, e := range old {
		if e.owner == 0 {
			continue
		}
		i := s.home(lockHash(e.rid))
		for s.slots[i].owner != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = e
	}
}

// release drops rid's lock if txID still owns it.
func (lt *lockTable) release(rid core.RID, txID uint64) {
	h := lockHash(rid)
	s := lt.shard(h)
	s.mu.Lock()
	s.remove(h, rid, txID)
	s.mu.Unlock()
}

func (s *lockShard) remove(h uint64, rid core.RID, txID uint64) {
	if s.n == 0 {
		return
	}
	mask := len(s.slots) - 1
	i := s.home(h)
	for s.slots[i].rid != rid {
		if s.slots[i].owner == 0 {
			return
		}
		i = (i + 1) & mask
	}
	if s.slots[i].owner != txID {
		return // a free slot (owner 0) or another transaction's lock
	}
	// Backward-shift deletion: every entry of the probe run after the hole
	// whose probe path passes the hole — its home is at least as far
	// behind it as the hole is — moves into the hole, which moves on.
	for j := (i + 1) & mask; s.slots[j].owner != 0; j = (j + 1) & mask {
		if k := s.home(lockHash(s.slots[j].rid)); (j-k)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = lockSlot{}
	s.n--
	if s.n == 0 && len(s.slots) > maxIdleLockSlots {
		s.slots, s.shift = nil, 0
	}
}

// releaseAll drops every lock in rids owned by txID (commit/abort).
func (lt *lockTable) releaseAll(rids []core.RID, txID uint64) {
	for _, rid := range rids {
		lt.release(rid, txID)
	}
}

// clear empties the whole table (crash simulation).
func (lt *lockTable) clear() {
	for i := range lt.shards {
		s := &lt.shards[i]
		s.mu.Lock()
		s.n, s.shift, s.slots = 0, 0, nil
		s.mu.Unlock()
	}
}
