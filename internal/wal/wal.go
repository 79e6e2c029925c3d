// Package wal implements an ARIES-style write-ahead log: physiological
// update records with before/after images, per-transaction backward
// chains, compensation log records (CLRs), fuzzy checkpoints, and
// log-space accounting.
//
// The log matters to the paper in two ways. First, IPA leaves recovery
// untouched (Sec. 6.2 "Remaining DBMS functionality"): pages reconstructed
// from flash + delta-records carry the correct PageLSN, so redo/undo work
// as usual — the recovery tests exercise exactly that. Second, Shore-MT's
// *eager log-space reclamation* (reclaiming when 25–50% of the log is
// consumed) forces dirty-page flushes even with huge buffer pools, which
// is why the paper still sees host writes at 90% buffer size (Sec. 8.4,
// Tables 9/10); the Capacity/usage mechanism reproduces that behaviour.
//
// # Scalable append path
//
// Every transaction funnels through the log (BEGIN, one update record
// per change, COMMIT, END), so the log is the last global serialization
// point once everything else is sharded. Appends therefore use lock-free
// LSN/space reservation instead of a mutex:
//
//   - A single atomic fetch-add on the LSN counter hands each appender
//     its LSN; a second fetch-add reserves its bytes in the space
//     accounting. Concurrent appenders serialize only on these atomics.
//   - Records live in a chunked ring of pre-sized segments (segRecords
//     slots each). The appender fills the reserved slot — a compact,
//     pointer-free header on a cache line of its own, which also keeps
//     the record's size — copies its before/after images once, at their
//     real size, into the segment's on-demand image arena, then
//     *publishes* the slot by raising its publication word. The log
//     retains the bytes a record has, not a fixed-size unit around them.
//   - The readable horizon ("published") is the highest LSN up to which
//     every slot is published, i.e. the log prefix with no holes. After
//     publishing, an appender that closed the hole at published+1
//     advances the horizon with a CAS scan. Go atomics are sequentially
//     consistent, so whichever of two racing publishers stores its flag
//     last is guaranteed to observe the other's and complete the
//     advance — the horizon never stalls on a published slot.
//
// What an append writes that another appender also writes is what the
// protocol needs and no more: the LSN counter (with the byte total on
// the same line, written right after it), the arena offset when the
// record has images, and the published horizon. Its slot is its own
// line (another appender's scan may read it), the ring table and the
// tail accounting sit on lines appenders only read, and a segment keeps
// no running byte total. A commit adds the durable horizon and one
// counter (GroupFlush).
//
// Readers (Get, Scan, recovery) only ever observe the contiguous
// published prefix, so they can never see an LSN gap. The durable
// horizon (Flush/GroupFlush) trails the published horizon, preserving
// the WAL rule.
//
// Truncation retires whole ring segments by offset arithmetic and
// counts the bytes it frees from the dropped slots' sizes, so space
// accounting stays byte-accurate per record.
package wal

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ipa/internal/core"
)

// RecType enumerates log record kinds.
type RecType uint8

const (
	RecBegin RecType = iota + 1
	RecUpdate
	RecCommit
	RecAbort // transaction entered rollback
	RecEnd   // rollback or commit processing finished
	RecCLR   // compensation record written during undo
	RecCheckpoint
	// RecAlloc and RecTable make the log self-describing for log-shipping
	// replication (engine.Options.Replicated): a follower rebuilds the
	// page directory and catalog from the stream alone. Meta carries the
	// binding (page → region/table, table → region/id); neither record is
	// transactional — they have no TxID chain and recovery ignores them.
	RecAlloc
	RecTable
)

func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecUpdate:
		return "UPDATE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecEnd:
		return "END"
	case RecCLR:
		return "CLR"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecAlloc:
		return "ALLOC"
	case RecTable:
		return "TABLE"
	default:
		return fmt.Sprintf("RecType(%d)", uint8(t))
	}
}

// PageOp is the physiological operation an update record describes.
type PageOp uint8

const (
	OpNone   PageOp = iota
	OpInsert        // tuple inserted at Slot; After = tuple image
	OpUpdate        // tuple at Slot replaced; Before/After = tuple images
	OpDelete        // tuple at Slot deleted; Before = tuple image
	OpFormat        // page formatted (allocation); no images
	// OpPatch overwrites bytes [Off, Off+len(After)) of the tuple at Slot —
	// the logged form of a field update (Table.UpdateField/AddField).
	// Before/After carry only the bytes that change, so an 8-byte update
	// costs an 8-byte undo and an 8-byte redo image, and the tuple may
	// move within its page between the record and its redo or undo.
	OpPatch
)

// Record is one log entry. Update/CLR records are physiological: they
// address a tuple slot within a page and are redone/undone through the
// slotted-page API, guarded by the PageLSN.
//
// Append copies Before/After into log-owned storage, so callers may
// reuse their buffers; records returned by Get/Scan alias that storage
// and must be treated as immutable.
type Record struct {
	LSN     core.LSN
	Type    RecType
	TxID    uint64
	PrevLSN core.LSN // backward chain within the transaction

	// Update / CLR payload.
	Page   core.PageID
	Op     PageOp
	Slot   uint16
	Off    uint16 // OpPatch only: where in the tuple the images apply
	Before []byte // undo image (empty for CLRs)
	After  []byte // redo image

	// CLR only: next record to undo for this transaction.
	UndoNext core.LSN

	// Meta is the self-description payload of RecAlloc/RecTable records
	// (replicated mode). Copied into log-owned storage like the images.
	Meta []byte

	// Checkpoint payload: active transactions (txID → lastLSN) and dirty
	// pages (page → recLSN).
	ActiveTxs  map[uint64]core.LSN
	DirtyPages map[core.PageID]core.LSN
}

// Size is the bytes the record occupies in the log (a fixed header,
// which has room for an OpPatch's offset, plus the images at their real
// length), driving log-space accounting.
//
// Checkpoint records carry the two checkpoint tables: each costs an
// 8-byte entry count plus 24 bytes per entry (16 B of key/value payload
// plus 8 B of per-entry slot directory). The historical accounting
// charged a flat 16 B per entry — payload only, no per-entry or
// per-table overhead — under-counting every checkpoint record.
func (r Record) Size() int {
	n := 48 + len(r.Before) + len(r.After) + len(r.Meta)
	if r.Type == RecCheckpoint {
		n += 16 + 24*(len(r.ActiveTxs)+len(r.DirtyPages))
	}
	return n
}

// Errors of the log.
var (
	ErrTruncated = errors.New("wal: record truncated away")
	ErrNotFound  = errors.New("wal: no such LSN")
)

const (
	// segShift sizes the ring segments: 1<<segShift record slots each.
	segShift   = 9
	segRecords = 1 << segShift
	segMask    = segRecords - 1

	// arenaChunkBytes sizes the chunks of a segment's image arena. They
	// are allocated on demand — a segment whose records carry no images
	// allocates none, one of small OLTP updates (16 B of images per
	// record) exactly one — so a segment retains its images plus at most
	// one part-filled chunk, while allocations stay amortised at two per
	// chunk. A record whose images exceed a chunk gets one of exactly
	// their size.
	arenaChunkBytes = 8 << 10
)

// A slot addresses its images with a 16-bit chunk offset: a reservation
// either lands inside an arenaChunkBytes chunk or sits at offset 0 of a
// chunk made to its size.
const _ = uint16(arenaChunkBytes - 1)

// slot is one record cell of a segment: the fixed fields of a Record
// plus the location of its images in the segment's arena. It holds no
// pointers, so the garbage collector never scans the slot arrays.
//
//	 0  pub      u32  publication word: 0 = reserved, 1 = published
//	 4  typ      u8   RecType
//	 5  op       u8   PageOp
//	 6  slotNo   u16  tuple slot within the page
//	 8  txID     u64
//	16  prev     u64  PrevLSN
//	24  page     u64
//	32  undoNext u64  CLRs only
//	40  imgOff   u16  offset of Before in its arena chunk; After follows
//	42  off      u16  OpPatch: offset of the images within the tuple
//	44  nBefore  u32
//	48  nAfter   u32
//	52  chunk    u16  arena chunk index within the segment
//	54  side     bool Meta / checkpoint tables live in the side table
//	56  size     u32  Record.Size(), what truncation frees
//	60           padding to 64 bytes: a slot per cache line
//
// Readers load pub (or the published horizon, which is raised only over
// published slots) with acquire semantics before touching the rest, so
// the contents are race-free without a lock. Consecutive LSNs go to
// whichever appenders reserved them, so two clients' records alternate;
// the padding keeps one appender's fill and publication off the line the
// other is filling.
type slot struct {
	pub      atomic.Uint32
	typ      RecType
	op       PageOp
	slotNo   uint16
	txID     uint64
	prev     core.LSN
	page     core.PageID
	undoNext core.LSN
	imgOff   uint16
	off      uint16
	nBefore  uint32
	nAfter   uint32
	chunk    uint16
	side     bool
	size     uint32
	_        [4]byte
}

// chunk is one piece of a segment's image arena. Appenders reserve
// space with a fetch-add on off and copy their images exactly once.
// Chunks form a list through prev, newest first; idx is the position a
// slot refers to.
type chunk struct {
	prev *chunk
	idx  uint16
	off  atomic.Uint64
	buf  []byte
}

// sideRec holds what does not fit the fixed slot and is rare enough not
// to deserve space in it: the Meta payload of RecAlloc/RecTable records
// (copied) and a checkpoint's two tables (kept as handed in).
type sideRec struct {
	meta       []byte
	activeTxs  map[uint64]core.LSN
	dirtyPages map[core.PageID]core.LSN
}

// segment is one pre-sized chunk of the record ring, covering the fixed
// LSN range [firstLSN, firstLSN+segRecords). Segments are never reused:
// truncation drops them wholesale and growth allocates fresh ones, so a
// published slot stays immutable for its whole life.
type segment struct {
	firstLSN core.LSN
	// slots is its own allocation so that it lands exactly in a
	// pointer-free size class.
	slots *[segRecords]slot

	// arena is the newest image chunk, the one appenders reserve from.
	// mu serialises chunk installation and guards the side table; it is
	// taken once per chunk and once per side record, never per append.
	arena atomic.Pointer[chunk]
	mu    sync.Mutex
	side  map[uint16]*sideRec // slot index → side payload
	mem   atomic.Uint64       // arena + side bytes, for Stats
}

// slotBytes is the size of a slot and segmentBytes what an empty
// segment retains (slot array + header); TestSlotLayout holds them to
// the structs.
const (
	slotBytes    = 64
	segmentBytes = segRecords*slotBytes + 48
)

func newSegment(firstLSN core.LSN) *segment {
	return &segment{firstLSN: firstLSN, slots: new([segRecords]slot)}
}

// reserveImages hands the appender n bytes of image storage: the chunk
// and the offset within it.
func (s *segment) reserveImages(n int) (*chunk, int) {
	for {
		c := s.arena.Load()
		if c != nil {
			if end := c.off.Add(uint64(n)); end <= uint64(len(c.buf)) {
				return c, int(end) - n
			}
		}
		s.mu.Lock()
		if s.arena.Load() != c {
			s.mu.Unlock()
			continue // someone else installed a chunk; try it
		}
		size := arenaChunkBytes
		if size < n {
			size = n
		}
		nc := &chunk{prev: c, buf: make([]byte, size)}
		if c != nil {
			nc.idx = c.idx + 1
		}
		nc.off.Store(uint64(n)) // our reservation comes first
		s.mem.Add(uint64(size))
		s.arena.Store(nc)
		s.mu.Unlock()
		return nc, 0
	}
}

// chunkAt returns the arena chunk with the given index. The list is a
// handful of nodes long unless the segment holds very large images.
func (s *segment) chunkAt(idx uint16) *chunk {
	c := s.arena.Load()
	for c.idx != idx {
		c = c.prev
	}
	return c
}

// record materialises the published record at lsn. The images alias
// the arena, which is immutable once the slot is published.
func (s *segment) record(lsn core.LSN) Record {
	i := (uint64(lsn) - 1) & segMask
	sl := &s.slots[i]
	r := Record{
		LSN: lsn, Type: sl.typ, TxID: sl.txID, PrevLSN: sl.prev,
		Page: sl.page, Op: sl.op, Slot: sl.slotNo, Off: sl.off, UndoNext: sl.undoNext,
	}
	if sl.nBefore+sl.nAfter > 0 {
		buf := s.chunkAt(sl.chunk).buf
		off := int(sl.imgOff)
		mid := off + int(sl.nBefore)
		end := mid + int(sl.nAfter)
		if mid > off {
			r.Before = buf[off:mid:mid]
		}
		if end > mid {
			r.After = buf[mid:end:end]
		}
	}
	if sl.side {
		s.mu.Lock()
		sd := s.side[uint16(i)]
		s.mu.Unlock()
		r.Meta, r.ActiveTxs, r.DirtyPages = sd.meta, sd.activeTxs, sd.dirtyPages
	}
	return r
}

// ring is an immutable snapshot of the segment table, swapped atomically
// on growth and truncation. Segment k (absolute numbering) covers LSNs
// [k*segRecords+1, (k+1)*segRecords].
type ring struct {
	firstSeg uint64 // absolute segment number of segs[0]
	segs     []*segment
}

func segNum(lsn core.LSN) uint64 { return (uint64(lsn) - 1) >> segShift }

// segmentOf returns the segment holding lsn, or nil when the ring does
// not (yet, or anymore) cover it.
func (r *ring) segmentOf(lsn core.LSN) *segment {
	sn := segNum(lsn)
	if sn < r.firstSeg || sn-r.firstSeg >= uint64(len(r.segs)) {
		return nil
	}
	return r.segs[sn-r.firstSeg]
}

// Log is an in-memory write-ahead log with byte-accurate space
// accounting. LSNs are 1-based sequence numbers; the zero LSN means
// "none".
//
// Appends are lock-free (see the package comment); the only mutexes are
// flushMu, which coordinates group-commit leadership (never held across
// the flush itself), and ringMu, which serialises segment-table growth
// and truncation (taken once per segRecords appends, never on the slot
// hot path). All counters are atomics read lock-free, so stats sampling
// never contends with appenders or the group-commit leader.
type Log struct {
	// Read on every append, written only by growth, truncation and the
	// replication floor, so each appender's copy of these lines stays.
	ring      atomic.Pointer[ring]
	ringMu    sync.Mutex    // guards ring replacement (growth, truncation)
	first     atomic.Uint64 // oldest retained LSN
	tailBytes atomic.Uint64 // bytes reclaimed
	capacity  uint64        // log device size; 0 = unbounded

	// retainFloor clamps Truncate: records at or above the floor survive
	// reclamation because a replication cursor still needs to ship them
	// (0 = no floor). See SetRetainFloor.
	retainFloor atomic.Uint64

	// The words every append or commit writes, on lines apart from the
	// above and from each other: the reservation (the LSN, then the
	// bytes, by the same appender one after the other), the contiguous
	// published horizon, the durable horizon.
	_         [64]byte
	next      atomic.Uint64 // next LSN to reserve
	headBytes atomic.Uint64 // total bytes ever reserved
	_         [64]byte
	published atomic.Uint64 // highest contiguously published LSN
	_         [64]byte
	flushed   atomic.Uint64 // durable horizon (WAL rule), as a core.LSN
	_         [64]byte

	// State of GroupFlush's leader path, taken by a committer that finds
	// a hole below its LSN: one leader flushes on behalf of every
	// committer whose records are already published; followers covered by
	// the in-flight flush wait on its done channel and are absorbed
	// without a flush of their own, and followers beyond it form the next
	// batch.
	flushMu     sync.Mutex
	flushing    bool
	flushTarget core.LSN      // horizon the in-flight flush will cover
	flushDone   chan struct{} // closed when the in-flight flush completes

	// A GroupFlush call writes one counter: the batch-size bucket of a
	// leader batch (their sum is the leader batch count) or absorbed.
	// flushes counts the horizon movements of plain Flush calls.
	flushes   atomic.Uint64
	absorbed  atomic.Uint64
	batchHist [batchBuckets]atomic.Uint64
}

// NewLog creates a log with the given capacity in bytes (0 = unbounded,
// no log-space pressure).
func NewLog(capacity int) *Log {
	l := &Log{capacity: uint64(capacity)}
	l.next.Store(1)
	l.first.Store(1)
	l.ring.Store(&ring{})
	return l
}

// Append assigns the next LSN, stores the record and returns its LSN.
// Lock-free: concurrent appenders serialize only on the LSN and space
// fetch-adds. Before/after images are copied exactly once, into the
// segment's image arena, so callers may reuse their buffers and the
// hot path performs no per-record allocation.
func (l *Log) Append(r Record) core.LSN {
	lsn := core.LSN(l.next.Add(1) - 1)
	size := uint64(r.Size())
	l.headBytes.Add(size)
	seg := l.segment(lsn)
	i := (uint64(lsn) - 1) & segMask
	s := &seg.slots[i]
	s.typ, s.op, s.slotNo, s.off = r.Type, r.Op, r.Slot, r.Off
	s.txID, s.prev, s.page, s.undoNext = r.TxID, r.PrevLSN, r.Page, r.UndoNext
	s.size = uint32(size)
	if nb, na := len(r.Before), len(r.After); nb+na > 0 {
		c, off := seg.reserveImages(nb + na)
		copy(c.buf[off:], r.Before)
		copy(c.buf[off+nb:], r.After)
		s.chunk, s.imgOff, s.nBefore, s.nAfter = c.idx, uint16(off), uint32(nb), uint32(na)
	}
	if len(r.Meta) > 0 || r.ActiveTxs != nil || r.DirtyPages != nil {
		sd := &sideRec{activeTxs: r.ActiveTxs, dirtyPages: r.DirtyPages}
		if len(r.Meta) > 0 {
			sd.meta = append([]byte(nil), r.Meta...)
		}
		seg.mu.Lock()
		if seg.side == nil {
			seg.side = make(map[uint16]*sideRec)
		}
		seg.side[uint16(i)] = sd
		seg.mu.Unlock()
		seg.mem.Add(sideRecBytes + uint64(len(r.Meta)) +
			sideEntryBytes*uint64(len(r.ActiveTxs)+len(r.DirtyPages)))
		s.side = true
	}
	s.pub.Store(1)
	l.advancePublished()
	return lsn
}

// What a side record is charged in Stats.RetainedBytes: the struct and
// its map-table slot, and per checkpoint-table entry a key, a value and
// the hash table's load-factor slack. An estimate, unlike the slot and
// arena bytes, which are exact.
const (
	sideRecBytes   = 96
	sideEntryBytes = 32
)

// segment returns the segment that owns lsn, growing the ring if the
// reservation ran ahead of it.
func (l *Log) segment(lsn core.LSN) *segment {
	if seg := l.ring.Load().segmentOf(lsn); seg != nil {
		return seg
	}
	return l.grow(lsn)
}

// grow extends the segment table to cover lsn. The ring snapshot is
// copied under ringMu and swapped in atomically; appenders and readers
// keep using their snapshots unlocked.
func (l *Log) grow(lsn core.LSN) *segment {
	l.ringMu.Lock()
	defer l.ringMu.Unlock()
	r := l.ring.Load()
	if seg := r.segmentOf(lsn); seg != nil {
		return seg
	}
	sn := segNum(lsn)
	segs := append([]*segment(nil), r.segs...)
	for next := r.firstSeg + uint64(len(segs)); next <= sn; next++ {
		segs = append(segs, newSegment(core.LSN(next*segRecords+1)))
	}
	l.ring.Store(&ring{firstSeg: r.firstSeg, segs: segs})
	return segs[sn-r.firstSeg]
}

// advancePublished moves the contiguous published horizon over every
// freshly published slot. Liveness: if publisher A (slot n+1) and B
// (slot n+2) race, whichever stores its publication word later in the
// sequentially-consistent order observes the other's word set and
// completes the advance past both — a published slot can never be
// stranded behind the horizon.
func (l *Log) advancePublished() {
	for {
		cur := l.published.Load()
		r := l.ring.Load()
		n := cur
		for {
			seg := r.segmentOf(core.LSN(n + 1))
			if seg == nil {
				// The ring may have grown since the snapshot.
				r = l.ring.Load()
				if seg = r.segmentOf(core.LSN(n + 1)); seg == nil {
					break // slot n+1 not reserved yet
				}
			}
			if seg.slots[n&segMask].pub.Load() == 0 {
				break // hole: an appender is still copying
			}
			n++
		}
		if n == cur {
			return
		}
		if l.published.CompareAndSwap(cur, n) {
			// Rescan: slots published while we advanced are ours to cover.
			continue
		}
		// Lost the CAS to another publisher; retry against its horizon.
	}
}

// Flush makes all records up to lsn durable. In this in-memory model it
// only moves the durability horizon and counts flushes (the cost shows up
// on a log device we do not model; the paper's experiments count data-page
// I/O). The horizon is clamped to the contiguous published prefix — a
// record becomes flushable only once everything before it is published.
func (l *Log) Flush(lsn core.LSN) {
	if pub := core.LSN(l.published.Load()); lsn > pub {
		lsn = pub
	}
	if _, moved := l.advanceFlushed(lsn); moved {
		l.flushes.Add(1)
	}
}

// advanceFlushed is a monotonic max-CAS on the durable horizon. Returns
// the horizon it replaced and whether it moved.
func (l *Log) advanceFlushed(lsn core.LSN) (core.LSN, bool) {
	for {
		cur := l.flushed.Load()
		if uint64(lsn) <= cur {
			return core.LSN(cur), false
		}
		if l.flushed.CompareAndSwap(cur, uint64(lsn)) {
			return core.LSN(cur), true
		}
	}
}

// GroupFlush makes all records up to lsn durable using adaptive,
// pipelined leader-based group commit:
//
//   - The first committer to arrive becomes the leader. It absorbs
//     everything contiguously published at that moment and flushes
//     once.
//   - Committers arriving while a flush is in flight never block
//     appends: if the in-flight flush already covers their LSN they
//     wait only for its completion and are absorbed; otherwise they
//     form the next batch — the first of them takes over leadership the
//     moment the current flush completes, pipelining batch k+1's
//     formation with batch k's device write.
//
// Under G concurrent workers this turns up to G per-commit flushes into
// one, and no committer ever holds a lock across the flush itself.
//
// The common case needs no leader at all: a committer's own Append
// published its record, so unless an earlier appender is still copying,
// the published horizon already covers lsn and one max-CAS of the
// durable horizon up to it is the whole flush — no mutex, no channel.
// Only a committer that finds a hole below its LSN takes the
// leader/follower path above.
func (l *Log) GroupFlush(lsn core.LSN) {
	for {
		if core.LSN(l.flushed.Load()) >= lsn {
			l.absorbed.Add(1)
			return
		}
		if pub := core.LSN(l.published.Load()); pub >= lsn {
			l.flushTo(pub)
			return
		}
		l.flushMu.Lock()
		if core.LSN(l.flushed.Load()) >= lsn {
			l.flushMu.Unlock()
			l.absorbed.Add(1)
			return
		}
		if !l.flushing {
			l.flushing = true
			l.flushTarget = lsn
			done := make(chan struct{})
			l.flushDone = done
			l.flushMu.Unlock()
			l.lead(lsn, done)
			return
		}
		covered := lsn <= l.flushTarget
		done := l.flushDone
		l.flushMu.Unlock()
		<-done
		if covered {
			// The completed flush's horizon covered our LSN.
			l.absorbed.Add(1)
			return
		}
		// Not covered: loop — either the leader absorbed us anyway
		// (flushed check above) or we contend to lead the next batch.
	}
}

// lead runs one group flush. flushMu is NOT held across the flush: the
// horizon publication — the "device write" of this in-memory model —
// happens with no lock held, so concurrent Appends and arriving
// followers are never blocked behind a flushing leader.
func (l *Log) lead(lsn core.LSN, done chan struct{}) {
	target := l.waitPublished(lsn)
	l.flushMu.Lock()
	if target > l.flushTarget {
		// Publish the true horizon so followers inside it are absorbed
		// by this flush instead of queueing for the next.
		l.flushTarget = target
	}
	l.flushMu.Unlock()
	l.flushTo(target)
	l.flushMu.Lock()
	l.flushing = false
	l.flushMu.Unlock()
	close(done)
}

// flushTo makes a group flush up to the published LSN target: a leader
// batch if it moved the durable horizon, an absorption if another flush
// had covered target first. Every GroupFlush call ends in exactly one of
// the two.
func (l *Log) flushTo(target core.LSN) {
	if prev, moved := l.advanceFlushed(target); moved {
		l.recordBatch(uint64(target - prev))
	} else {
		l.absorbed.Add(1)
	}
}

// waitPublished waits until the contiguous published horizon covers lsn
// and returns it. A hole below lsn is another appender mid-copy, so the
// wait is bounded by a few memcpys.
func (l *Log) waitPublished(lsn core.LSN) core.LSN {
	for spins := 0; ; spins++ {
		if pub := core.LSN(l.published.Load()); pub >= lsn {
			return pub
		}
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Microsecond)
		}
	}
}

// batchBuckets is the power-of-two batch-size histogram depth (2^23
// records per batch tops out the last bucket).
const batchBuckets = 24

func (l *Log) recordBatch(n uint64) {
	if n == 0 {
		return
	}
	b := bits.Len64(n) // bucket b-1 holds sizes [2^(b-1), 2^b)
	if b > batchBuckets {
		b = batchBuckets
	}
	l.batchHist[b-1].Add(1)
}

// batches loads the batch-size histogram and returns it with its total,
// the number of leader batches.
func (l *Log) batches() (counts [batchBuckets]uint64, total uint64) {
	for i := range l.batchHist {
		counts[i] = l.batchHist[i].Load()
		total += counts[i]
	}
	return counts, total
}

// batchQuantile returns the approximate q-quantile of leader batch
// sizes, as the lower bound of the histogram bucket containing it
// (exact for batch sizes that are powers of two).
func batchQuantile(counts [batchBuckets]uint64, total uint64, q float64) uint64 {
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if rank < cum {
			return 1 << uint(i)
		}
	}
	return 1 << (batchBuckets - 1)
}

// Flushed returns the durable horizon. Lock-free.
func (l *Log) Flushed() core.LSN { return core.LSN(l.flushed.Load()) }

// Flushes returns how many flush operations moved the horizon. Lock-free.
func (l *Log) Flushes() uint64 {
	_, batches := l.batches()
	return l.flushes.Load() + batches
}

// Get returns the record with the given LSN. Lock-free: the slot's
// publication word is the only synchronisation, so rollback walking a
// transaction's chain never contends with appenders.
func (l *Log) Get(lsn core.LSN) (Record, error) {
	first := core.LSN(l.first.Load())
	if lsn < first {
		return Record{}, fmt.Errorf("%w: %d (tail at %d)", ErrTruncated, lsn, first)
	}
	next := core.LSN(l.next.Load())
	if lsn >= next {
		return Record{}, fmt.Errorf("%w: %d (head at %d)", ErrNotFound, lsn, next)
	}
	seg := l.ring.Load().segmentOf(lsn)
	if seg == nil {
		// Raced a concurrent truncation (segment retired) or the owning
		// appender has not grown the ring yet (slot reserved, unwritten).
		if lsn < core.LSN(l.first.Load()) {
			return Record{}, fmt.Errorf("%w: %d (tail at %d)", ErrTruncated, lsn, core.LSN(l.first.Load()))
		}
		return Record{}, fmt.Errorf("%w: %d (head at %d)", ErrNotFound, lsn, next)
	}
	if seg.slots[(uint64(lsn)-1)&segMask].pub.Load() == 0 {
		return Record{}, fmt.Errorf("%w: %d (head at %d)", ErrNotFound, lsn, next)
	}
	return seg.record(lsn), nil
}

// Scan calls fn for every record with LSN ≥ from, in order, until fn
// returns false. Only the contiguous published prefix is visited, so a
// scan can never observe an LSN gap: records still being copied by
// concurrent appenders (and everything after them) are simply not yet
// part of the log it sees.
func (l *Log) Scan(from core.LSN, fn func(Record) bool) {
	// Order matters: load the horizon before the ring snapshot, so the
	// snapshot is guaranteed to contain a segment for every LSN ≤ limit.
	limit := core.LSN(l.published.Load())
	r := l.ring.Load()
	if f := core.LSN(l.first.Load()); from < f {
		from = f
	}
	if from < 1 {
		from = 1
	}
	var seg *segment
	for lsn := from; lsn <= limit; lsn++ {
		if seg == nil || lsn >= seg.firstLSN+segRecords {
			if seg = r.segmentOf(lsn); seg == nil {
				// A concurrent truncation retired this segment; skip to
				// the new tail (or stop if it passed the horizon).
				f := core.LSN(l.first.Load())
				if f <= lsn {
					return
				}
				lsn = f - 1
				seg = nil
				continue
			}
		}
		if !fn(seg.record(lsn)) {
			return
		}
	}
}

// Head returns the newest contiguously published LSN (0 when empty) —
// the LSN horizon every reader is allowed to observe.
func (l *Log) Head() core.LSN { return core.LSN(l.published.Load()) }

// Tail returns the oldest retained LSN. Lock-free.
func (l *Log) Tail() core.LSN { return core.LSN(l.first.Load()) }

// Truncate discards records below lsn, reclaiming their log space. It is
// called after a checkpoint establishes that no active transaction or
// dirty page needs them.
//
// Cost: segments retire by offset arithmetic; the bytes freed are the
// sizes the dropped slots hold, one load per record dropped — a segment
// keeps no running total, which every append would have to write.
func (l *Log) Truncate(lsn core.LSN) {
	l.ringMu.Lock()
	defer l.ringMu.Unlock()
	first := core.LSN(l.first.Load())
	// Never drop past the contiguous published horizon: a reserved but
	// unpublished slot is still owned by its appender.
	if max := core.LSN(l.published.Load()) + 1; lsn > max {
		lsn = max
	}
	// Honour the replication retain floor: a connected follower's cursor
	// must never find its next record truncated away.
	if floor := core.LSN(l.retainFloor.Load()); floor != 0 && lsn > floor {
		lsn = floor
	}
	if lsn <= first {
		return
	}
	r := l.ring.Load()
	var freed uint64
	for cur := first; cur < lsn; {
		seg := r.segmentOf(cur)
		for stop := min(seg.firstLSN+segRecords, lsn); cur < stop; cur++ {
			freed += uint64(seg.slots[(uint64(cur)-1)&segMask].size)
		}
	}
	l.tailBytes.Add(freed)
	l.first.Store(uint64(lsn))
	if newFirstSeg := segNum(lsn); newFirstSeg > r.firstSeg {
		drop := newFirstSeg - r.firstSeg
		if drop > uint64(len(r.segs)) {
			drop = uint64(len(r.segs))
		}
		l.ring.Store(&ring{
			firstSeg: r.firstSeg + drop,
			segs:     append([]*segment(nil), r.segs[drop:]...),
		})
	}
}

// ReadFrom visits a batch of consecutive records starting at exactly
// `from`, bounded by maxRecords and maxBytes (≤ 0 means unbounded), up
// to the contiguous published horizon, and returns how many it visited.
// It is the replication shipping cursor: unlike Scan — which silently
// skips over truncated segments to the new tail — a cursor that has
// fallen behind the tail gets a clean error wrapping ErrTruncated
// ("horizon behind tail"), including when it resumes exactly at a
// retired-segment edge after a Truncate. The caller (the shipping loop)
// reacts by switching to a full snapshot resync; a zero record here
// would silently corrupt the follower's log.
//
// Records are handed to fn by value, straight from their slots, so the
// shipper encodes them without an intermediate batch slice. Zero
// visited with a nil error means the cursor is caught up with the
// published horizon.
func (l *Log) ReadFrom(from core.LSN, maxRecords, maxBytes int, fn func(Record)) (int, error) {
	if from < 1 {
		from = 1
	}
	// Horizon before ring snapshot, same as Scan: the snapshot then
	// covers every LSN ≤ limit that has not been truncated meanwhile.
	limit := core.LSN(l.published.Load())
	r := l.ring.Load()
	if f := core.LSN(l.first.Load()); from < f {
		return 0, fmt.Errorf("%w: cursor horizon %d behind log tail %d", ErrTruncated, from, f)
	}
	var n, bytes int
	var seg *segment
	for lsn := from; lsn <= limit; lsn++ {
		if maxRecords > 0 && n >= maxRecords {
			break
		}
		if seg == nil || lsn >= seg.firstLSN+segRecords {
			if seg = r.segmentOf(lsn); seg == nil {
				// Truncate stores the tail before the ring, so a cursor in
				// a retired segment already failed the check above; this
				// guards the invariant — a zero record must never ship.
				return n, fmt.Errorf("%w: cursor horizon %d behind log tail %d",
					ErrTruncated, lsn, core.LSN(l.first.Load()))
			}
		}
		rec := seg.record(lsn)
		if maxBytes > 0 && bytes > 0 && bytes+rec.Size() > maxBytes {
			break
		}
		bytes += rec.Size()
		fn(rec)
		n++
	}
	return n, nil
}

// SetRetainFloor pins the truncation horizon for replication: Truncate
// never drops records with LSN ≥ floor while the floor is set (0 clears
// it). The leader keeps the floor at the minimum acked LSN + 1 of its
// connected followers so their cursors never hit ErrTruncated in steady
// state; a follower that falls too far behind is dropped from the floor
// and resynced by snapshot instead of pinning the log forever.
func (l *Log) SetRetainFloor(floor core.LSN) { l.retainFloor.Store(uint64(floor)) }

// AppendedBytes is the total log volume ever appended (monotonic, never
// reduced by truncation). Two logs holding the same record stream report
// the same value, which is what makes leader-minus-follower the exact
// replication lag in bytes. Lock-free.
func (l *Log) AppendedBytes() uint64 { return l.headBytes.Load() }

// Reset reinitialises the log in place to an empty state positioned at
// head: the next append receives LSN head+1, the tail and durable
// horizon sit at head, and all retained records are dropped. Installing
// a replica snapshot uses this to splice the follower's log onto the
// primary's LSN sequence; it must happen in place (not by swapping the
// Log pointer) because a long-lived goroutine — the MVCC reaper —
// captured this instance. The caller guarantees no
// concurrent appends or reads (the engine holds its state latch
// exclusively).
func (l *Log) Reset(head core.LSN) {
	l.ringMu.Lock()
	defer l.ringMu.Unlock()
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.next.Store(uint64(head) + 1)
	l.published.Store(uint64(head))
	l.first.Store(uint64(head) + 1)
	l.flushed.Store(uint64(head))
	l.ring.Store(&ring{firstSeg: segNum(head + 1)})
	l.headBytes.Store(0)
	l.tailBytes.Store(0)
	l.retainFloor.Store(0)
}

// UsedBytes is the live log volume. Lock-free: tail is read before head
// so the difference never underflows (both only grow, and tail ≤ head at
// every instant).
func (l *Log) UsedBytes() uint64 {
	tail := l.tailBytes.Load()
	return l.headBytes.Load() - tail
}

// Usage is the fraction of the log device consumed (0 when unbounded).
// Lock-free.
func (l *Log) Usage() float64 {
	if l.capacity == 0 {
		return 0
	}
	return float64(l.UsedBytes()) / float64(l.capacity)
}

// Capacity returns the configured log device size.
func (l *Log) Capacity() uint64 { return l.capacity }

// Stats is one lock-free snapshot of the log's contention and space
// counters — the observability for the reservation-based append path
// and adaptive group commit (Flashmon is the monitoring precedent: the
// counters exist to *prove* where the contention went).
type Stats struct {
	// Reservations is how many LSN/space reservations appenders took
	// (every record ever appended, including reserved-but-unpublished
	// in-flight ones).
	Reservations uint64
	// Published is the highest contiguously published LSN; Flushed the
	// durable horizon trailing it.
	Published core.LSN
	Flushed   core.LSN
	// Flushes counts horizon movements; LeaderBatches the subset driven
	// by a group-commit leader; Absorbed the committers a leader's flush
	// covered (the group-commit win).
	Flushes       uint64
	LeaderBatches uint64
	Absorbed      uint64
	// BatchP50/BatchP99 are approximate quantiles of leader batch sizes
	// in records, bucketed to powers of two.
	BatchP50 uint64
	BatchP99 uint64
	// Space accounting and ring shape. AppendedBytes is the log volume
	// ever appended (Σ Record.Size, monotonic — see Log.AppendedBytes);
	// UsedBytes the part of it still retained; RetainedBytes is the
	// memory the ring actually holds for that — slot arrays, image
	// arena chunks and side records.
	AppendedBytes uint64
	UsedBytes     uint64
	RetainedBytes uint64
	Usage         float64
	Segments      int
}

// Stats assembles a snapshot. Lock-free; counters keep moving while it
// is taken.
func (l *Log) Stats() Stats {
	segs := l.ring.Load().segs
	retained := uint64(len(segs)) * segmentBytes
	for _, seg := range segs {
		retained += seg.mem.Load()
	}
	hist, batches := l.batches()
	return Stats{
		Reservations:  l.next.Load() - 1,
		Published:     core.LSN(l.published.Load()),
		Flushed:       core.LSN(l.flushed.Load()),
		Flushes:       l.flushes.Load() + batches,
		LeaderBatches: batches,
		Absorbed:      l.absorbed.Load(),
		BatchP50:      batchQuantile(hist, batches, 0.50),
		BatchP99:      batchQuantile(hist, batches, 0.99),
		AppendedBytes: l.AppendedBytes(),
		UsedBytes:     l.UsedBytes(),
		RetainedBytes: retained,
		Usage:         l.Usage(),
		Segments:      len(segs),
	}
}
