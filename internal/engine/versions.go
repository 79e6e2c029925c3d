package engine

import (
	"sync"
	"sync/atomic"

	"ipa/internal/core"
	"ipa/internal/wal"
)

// This file implements the MVCC version store behind Options.MVCC:
// snapshot readers resolve tuples through per-RID before-image chains
// instead of the no-wait lock table, so long analytical scans never
// block writers and never abort (the reader-vs-writer abort class the
// no-wait protocol otherwise pays under skew).
//
// Design notes:
//
//   - Versions are BEFORE-images. A chain entry tagged with commit LSN C
//     means "before C, the tuple's value was entry.data" (absent=true
//     means "before C there was no tuple in this slot"). The heap page
//     always holds the newest committed-or-pending state; the chain
//     holds history.
//
//   - The store owns every image it holds. A writer hands it the bytes
//     it sees (the page's own tuple under the exclusive latch, a shipped
//     record's Before) and keeps no copy for it: installPending copies
//     them once, into the buffer of the entry it takes. A reader gets a
//     copy made under the shard lock, never the buffer itself: once the
//     lock is released, setPending may rewrite a pending entry's buffer
//     in place, and a buffer the reaper recycles is refilled by the next
//     install.
//
//   - A chain is oldest first: stamped entries in strictly ascending
//     commit-LSN order, then at most one pending entry, the newest, so
//     an install appends. Entries are linked, and the shard's map holds
//     only the chain's two ends. The reaper puts the entries it prunes
//     on a per-shard free list with their image buffers; installs take
//     them from there, so in steady state neither a write nor the reaper
//     allocates. The free list is bounded (freeEntries, freeImageBytes):
//     what is kept for reuse stays small, and the rest goes back to the
//     Go heap when the history that needed it is pruned.
//
//   - Writers install a PENDING entry (commit==0, owner==txID) at the
//     chain's newest end while holding the page's exclusive frame latch
//     — the same latch that orders the heap mutation and the WAL append
//     — so a snapshot reader that observes the modified heap tuple is
//     guaranteed to find the covering before-image in the chain.
//     Commit stamps the pending entry with the commit LSN before locks
//     release; abort stamps it with the end-record LSN after the heap
//     rollback, also before locks release. Per-RID writers serialise on
//     the tuple lock, so a chain has at most one pending entry and
//     stamped entries are in ascending commit-LSN order.
//
//   - Snapshot visibility: a reader pinned at snapshot LSN S must see
//     the tuple state as of S. Resolution returns the before-image of
//     the OLDEST chain entry whose commit LSN is > S (pending counts as
//     +infinity); if no entry is newer than S, the heap tuple itself is
//     the answer.
//
//   - Snapshot LSNs and commit visibility: the commit record's LSN is
//     allocated and registered in an in-flight set atomically (both
//     under vs.mu), and deregistered only after every owned chain entry
//     is stamped. BeginSnapshot pins S = min(in-flight)-1 (or the log
//     head when none are in flight) under the same mutex, so every
//     commit <= S is fully stamped and fully visible — a snapshot can
//     never observe a half-stamped transaction.
//
//   - Pruning: a background reaper (parked on a capacity-1 doorbell,
//     drained by Close) trims every chain's prefix of entries whose
//     commit LSN is <= the prune bound: min(active snapshot LSNs,
//     in-flight commit LSNs - 1), or the log head when both sets are
//     empty. Pending entries are never pruned.
type versionStore struct {
	shards [versionShards]versionShard

	// mu guards the snapshot/commit visibility state below.
	mu       sync.Mutex
	inflight map[core.LSN]int    // commit LSNs appended but not yet fully stamped
	snaps    map[uint64]core.LSN // active snapshot LSN by tx id

	// Monotonic counters (see MVCCStats).
	live      atomic.Int64
	installed atomic.Uint64
	pruned    atomic.Uint64
	pruneRuns atomic.Uint64
	snapsEver atomic.Uint64
	snapReads atomic.Uint64
	snapScans atomic.Uint64

	// sinceReap counts stamped versions since the last reaper poke; the
	// reaper is also poked whenever a snapshot ends (the prune bound may
	// have advanced past retained history).
	sinceReap atomic.Uint64

	reapCh   chan struct{}
	reapStop chan struct{}
	reapWG   sync.WaitGroup
}

const (
	versionShardBits = 6
	versionShards    = 1 << versionShardBits
	// reapBatch is how many newly stamped versions accumulate before the
	// reaper is poked. Small enough to keep chains short under write
	// pressure, large enough to amortise the full-store sweep.
	reapBatch = 1024
	// freeEntries and freeImageBytes bound each shard's free list: 256
	// entries, whose image buffers hold at most 12 KiB, so the 64 shards
	// keep at most 768 KiB of images for reuse. A reaper pass releases
	// about reapBatch entries, 16 a shard, so TPC-B's working set of
	// 100-byte rows stays well inside both.
	freeEntries    = 256
	freeImageBytes = 12 << 10
)

type versionShard struct {
	mu     sync.Mutex
	chains map[core.RID]versionChain
	// free is the shard's list of recycled entries, linked through next;
	// nfree and freeBytes (the capacity of their buffers) bound it.
	free      *version
	nfree     int
	freeBytes int
	// imageBytes is the capacity of every image buffer the shard owns,
	// in chains and on the free list. Written under mu, read by stats.
	imageBytes atomic.Int64
}

// versionChain holds a RID's history, oldest first: stamped entries in
// strictly ascending commit-LSN order, linked through next, and at the
// newest end possibly the single pending entry. A RID without history
// has no chain in the map.
type versionChain struct {
	oldest, newest *version
}

// version is one before-image. commit==0 marks a pending entry owned by
// the in-flight transaction owner; stamped entries have owner 0.
type version struct {
	commit core.LSN
	owner  uint64
	data   []byte // the store's own buffer; its capacity outlives the entry
	absent bool   // the tuple did not exist before the tagged change
	next   *version
}

func newVersionStore() *versionStore {
	vs := &versionStore{
		inflight: make(map[core.LSN]int),
		snaps:    make(map[uint64]core.LSN),
		reapCh:   make(chan struct{}, 1),
	}
	for i := range vs.shards {
		vs.shards[i].chains = make(map[core.RID]versionChain)
	}
	return vs
}

// shard hashes the whole RID, slot included, so that the rows of one hot
// page — TPC-B's branches — spread over the shards and their free lists.
func (vs *versionStore) shard(rid core.RID) *versionShard {
	h := (uint64(rid.Page)<<16 | uint64(rid.Slot)) * 0x9e3779b97f4a7c15
	return &vs.shards[h>>(64-versionShardBits)]
}

// take returns an entry holding a copy of image, recycled from the free
// list when it has one. Caller holds sh.mu.
func (sh *versionShard) take(image []byte, absent bool) *version {
	e := sh.free
	if e == nil {
		e = new(version)
	} else {
		sh.free = e.next
		sh.nfree--
		sh.freeBytes -= cap(e.data)
		e.next = nil
	}
	sh.setImage(e, image, absent)
	return e
}

// setImage copies image into e's buffer, growing it only when it is too
// small. Caller holds sh.mu.
func (sh *versionShard) setImage(e *version, image []byte, absent bool) {
	had := cap(e.data)
	e.data = append(e.data[:0], image...)
	e.absent = absent
	if grown := cap(e.data) - had; grown != 0 {
		sh.imageBytes.Add(int64(grown))
	}
}

// release puts a pruned entry on the free list, or drops it — buffer and
// all — when the list is at its bound. Caller holds sh.mu.
func (sh *versionShard) release(e *version) {
	if sh.nfree >= freeEntries || sh.freeBytes+cap(e.data) > freeImageBytes {
		sh.imageBytes.Add(-int64(cap(e.data)))
		return
	}
	e.commit, e.owner, e.next = 0, 0, sh.free
	sh.free = e
	sh.nfree++
	sh.freeBytes += cap(e.data)
}

// installPending records the before-image of rid under the writing
// transaction, copying image into a buffer the store owns: the caller
// may pass bytes it is about to overwrite, such as the page's own tuple.
// The caller holds the page's exclusive frame latch and the tuple's
// lock. Idempotent per (rid, owner): only the first write a transaction
// makes to a tuple contributes the before-image — later writes by the
// same transaction refine an uncommitted state no snapshot may see.
func (vs *versionStore) installPending(rid core.RID, owner uint64, image []byte, absent bool) {
	sh := vs.shard(rid)
	sh.mu.Lock()
	ch := sh.chains[rid]
	if ch.newest != nil && ch.newest.commit == 0 {
		// Already pending. The tuple lock guarantees the owner matches.
		sh.mu.Unlock()
		return
	}
	e := sh.take(image, absent)
	e.owner = owner
	if ch.newest == nil {
		ch.oldest = e
	} else {
		ch.newest.next = e
	}
	ch.newest = e
	sh.chains[rid] = ch
	sh.mu.Unlock()
	vs.live.Add(1)
	vs.installed.Add(1)
}

// setPending is installPending for an image that later records of the
// same transaction refine: the replication applier rebuilding
// before-images on a snapshot-primed page (see Applier.imageBeforeTx).
// It overwrites the owner's pending entry instead of keeping the first.
func (vs *versionStore) setPending(rid core.RID, owner uint64, image []byte, absent bool) {
	sh := vs.shard(rid)
	sh.mu.Lock()
	if e := sh.chains[rid].newest; e != nil && e.commit == 0 {
		sh.setImage(e, image, absent)
		sh.mu.Unlock()
		return
	}
	sh.mu.Unlock()
	vs.installPending(rid, owner, image, absent)
}

// stampCommitted tags the transaction's pending entries with its commit
// LSN. Runs after the commit record is appended (and registered
// in-flight) and before locks release. The abort path reuses it with
// the end-record LSN: the before-image is exactly what the rollback
// restored, so the stamped entry stays true, and a snapshot reader that
// copied pre-rollback heap state still resolves the committed value.
func (vs *versionStore) stampCommitted(rids []core.RID, owner uint64, commit core.LSN) {
	var stamped uint64
	for _, rid := range rids {
		sh := vs.shard(rid)
		sh.mu.Lock()
		if e := sh.chains[rid].newest; e != nil && e.commit == 0 && e.owner == owner {
			e.commit = commit
			e.owner = 0
			stamped++
		}
		sh.mu.Unlock()
	}
	if vs.sinceReap.Add(stamped) >= reapBatch {
		vs.sinceReap.Store(0)
		vs.pokeReaper()
	}
}

// resolve answers "what did rid hold at snapshot S?". override reports
// whether the chain supplies the answer: if true, absent or data is the
// tuple state at S, and data is the caller's own copy, made under the
// shard lock because the entry's buffer may be recycled once the lock
// is released. If false, the current heap tuple is the answer.
func (vs *versionStore) resolve(rid core.RID, snap core.LSN) (data []byte, absent, override bool) {
	sh := vs.shard(rid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Entries are oldest-first; find the oldest one newer than snap.
	for e := sh.chains[rid].oldest; e != nil; e = e.next {
		if e.commit == 0 || e.commit > snap {
			if e.absent {
				return nil, true, true
			}
			return append([]byte(nil), e.data...), false, true
		}
	}
	return nil, false, false
}

// beginSnapshot pins a snapshot LSN for the transaction. head is
// consulted only when no commit is in flight. head is the log's
// contiguous published horizon (lock-free — the log takes no mutex
// under vs.mu): every completed Commit has group-flushed past its
// commit LSN, so a snapshot begun after a commit returns always pins
// an LSN covering it (read-your-commits is preserved).
func (vs *versionStore) beginSnapshot(txID uint64, head func() core.LSN) core.LSN {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	var s core.LSN
	if len(vs.inflight) == 0 {
		s = head()
	} else {
		first := true
		for lsn := range vs.inflight {
			if first || lsn-1 < s {
				s = lsn - 1
				first = false
			}
		}
	}
	vs.snaps[txID] = s
	vs.snapsEver.Add(1)
	return s
}

// endSnapshot releases the transaction's snapshot pin and pokes the
// reaper (the prune bound may have advanced).
func (vs *versionStore) endSnapshot(txID uint64) {
	vs.mu.Lock()
	_, had := vs.snaps[txID]
	delete(vs.snaps, txID)
	vs.mu.Unlock()
	if had {
		vs.pokeReaper()
	}
}

// commitAppend appends the transaction's commit record and registers
// its LSN in-flight in one atomic step, so no snapshot can pin an LSN
// that covers a not-yet-stamped commit.
func (vs *versionStore) commitAppend(log *wal.Log, txID uint64, prev core.LSN) core.LSN {
	vs.mu.Lock()
	lsn := log.Append(wal.Record{Type: wal.RecCommit, TxID: txID, PrevLSN: prev})
	vs.inflight[lsn]++
	vs.mu.Unlock()
	return lsn
}

// registerInflight registers an already-known commit LSN as in flight,
// for the replication applier: the shipped commit record's LSN is fixed
// by log parity, so the applier registers it BEFORE appending locally —
// guaranteeing no snapshot pins an LSN covering the commit while its
// chain entries are still being stamped.
func (vs *versionStore) registerInflight(lsn core.LSN) {
	vs.mu.Lock()
	vs.inflight[lsn]++
	vs.mu.Unlock()
}

// finishCommit deregisters a fully stamped commit.
func (vs *versionStore) finishCommit(lsn core.LSN) {
	vs.mu.Lock()
	if vs.inflight[lsn]--; vs.inflight[lsn] <= 0 {
		delete(vs.inflight, lsn)
	}
	vs.mu.Unlock()
}

// pruneBound computes the newest commit LSN whose before-images are no
// longer needed: everything at or below min(active snapshots, in-flight
// commits - 1) is invisible to every current and future snapshot.
func (vs *versionStore) pruneBound(head core.LSN) core.LSN {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	bound := head
	for lsn := range vs.inflight {
		if lsn-1 < bound {
			bound = lsn - 1
		}
	}
	for _, s := range vs.snaps {
		if s < bound {
			bound = s
		}
	}
	return bound
}

// prune trims every chain's prefix of entries with commit <= bound and
// recycles them. Pending entries (commit==0) are never touched. Returns
// how many versions were released.
func (vs *versionStore) prune(bound core.LSN) uint64 {
	var removed uint64
	for i := range vs.shards {
		sh := &vs.shards[i]
		sh.mu.Lock()
		for rid, ch := range sh.chains {
			// Oldest-first and ascending: everything before the first
			// pending entry or the first entry above the bound can go.
			e := ch.oldest
			for e != nil && e.commit != 0 && e.commit <= bound {
				next := e.next
				sh.release(e)
				removed++
				e = next
			}
			switch {
			case e == nil:
				delete(sh.chains, rid)
			case e != ch.oldest:
				ch.oldest = e
				sh.chains[rid] = ch
			}
		}
		sh.mu.Unlock()
	}
	if removed > 0 {
		vs.live.Add(-int64(removed))
		vs.pruned.Add(removed)
	}
	return removed
}

// pokeReaper wakes the reaper without blocking (capacity-1 doorbell; a
// pending poke already covers later ones).
func (vs *versionStore) pokeReaper() {
	select {
	case vs.reapCh <- struct{}{}:
	default:
	}
}

// startReaper launches the background prune goroutine. Called from
// engine.New and from Recover when it reopens the instance.
func (vs *versionStore) startReaper(head func() core.LSN) {
	stop := make(chan struct{})
	vs.reapStop = stop
	vs.reapWG.Add(1)
	go func() {
		defer vs.reapWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-vs.reapCh:
			}
			vs.reap(head())
		}
	}()
}

// reap is one reaper pass: prune everything below the current bound.
func (vs *versionStore) reap(head core.LSN) uint64 {
	vs.pruneRuns.Add(1)
	return vs.prune(vs.pruneBound(head))
}

// stopReaper drains the reaper deterministically (Close, SimulateCrash).
func (vs *versionStore) stopReaper() {
	if vs.reapStop == nil {
		return
	}
	close(vs.reapStop)
	vs.reapWG.Wait()
	vs.reapStop = nil
}

// reset throws away all volatile MVCC state — chains, snapshot pins and
// in-flight commits — for SimulateCrash. Before-images only shadow
// uncommitted or superseded heap state, so an empty store after restart
// recovery is consistent: recovery rolls uncommitted changes back on
// the heap itself, and new snapshots simply start from live state.
// Cumulative counters survive (they are observability, not state).
func (vs *versionStore) reset() {
	vs.mu.Lock()
	vs.inflight = make(map[core.LSN]int)
	vs.snaps = make(map[uint64]core.LSN)
	vs.mu.Unlock()
	for i := range vs.shards {
		sh := &vs.shards[i]
		sh.mu.Lock()
		sh.chains = make(map[core.RID]versionChain)
		sh.free, sh.nfree, sh.freeBytes = nil, 0, 0
		sh.imageBytes.Store(0)
		sh.mu.Unlock()
	}
	vs.live.Store(0)
	vs.sinceReap.Store(0)
}

// MVCCStats reports version-store observability counters (zero value
// with Enabled=false when Options.MVCC is off).
type MVCCStats struct {
	Enabled           bool
	VersionsLive      int64  // before-images currently retained
	VersionsInstalled uint64 // pending entries ever installed
	VersionsPruned    uint64 // entries released by the reaper
	PruneRuns         uint64 // reaper sweeps
	ImageBytes        int64  // capacity of the image buffers held, in chains and kept for reuse
	SnapshotsStarted  uint64 // BeginSnapshot calls
	SnapshotsActive   int    // currently pinned snapshots
	SnapshotReads     uint64 // point reads resolved at a snapshot
	SnapshotScans     uint64 // table scans resolved at a snapshot
}

func (vs *versionStore) stats() MVCCStats {
	if vs == nil {
		return MVCCStats{}
	}
	vs.mu.Lock()
	active := len(vs.snaps)
	vs.mu.Unlock()
	var images int64
	for i := range vs.shards {
		images += vs.shards[i].imageBytes.Load()
	}
	return MVCCStats{
		Enabled:           true,
		VersionsLive:      vs.live.Load(),
		VersionsInstalled: vs.installed.Load(),
		VersionsPruned:    vs.pruned.Load(),
		PruneRuns:         vs.pruneRuns.Load(),
		ImageBytes:        images,
		SnapshotsStarted:  vs.snapsEver.Load(),
		SnapshotsActive:   active,
		SnapshotReads:     vs.snapReads.Load(),
		SnapshotScans:     vs.snapScans.Load(),
	}
}
