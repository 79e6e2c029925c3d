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
// Behind the head the log is packed: once the published horizon is a
// full segment past a segment, growth encodes the segment's records into
// one buffer of exactly their size (about 13–20 bytes a record besides
// its images) and hands its 64-byte slots to a segment to come. A reader
// pins the segment it reads, so an array is handed on only when no
// reader is inside.
//
// Truncation retires whole ring segments by offset arithmetic and
// counts the bytes it frees from the dropped records' sizes, so space
// accounting stays byte-accurate per record.
package wal

import (
	"encoding/binary"
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
	n := fixedSize(r.Type) + len(r.Before) + len(r.After) + len(r.Meta)
	if r.Type == RecCheckpoint {
		n += 24 * (len(r.ActiveTxs) + len(r.DirtyPages))
	}
	return n
}

// fixedSize is what Size charges a record of type t besides its images,
// Meta and checkpoint entries: the header, and a checkpoint's two entry
// counts. A packed record without a side entry stores no size; this and
// its image lengths give it.
func fixedSize(t RecType) int {
	if t == RecCheckpoint {
		return 48 + 16
	}
	return 48
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

// fields are a record's fixed fields and the location of its images in
// the segment's arena: what a hot slot holds behind its publication
// word, and what a packed segment encodes. No pointers, so the garbage
// collector never scans the slot arrays.
//
//	 0  txID     u64
//	 8  prev     u64  PrevLSN
//	16  page     u64
//	24  undoNext u64  CLRs only
//	32  typ      u8   RecType
//	33  op       u8   PageOp
//	34  slotNo   u16  tuple slot within the page
//	36  imgOff   u16  offset of Before in its arena chunk; After follows
//	38  off      u16  OpPatch: offset of the images within the tuple
//	40  nBefore  u32
//	44  nAfter   u32
//	48  size     u32  Record.Size(), what truncation frees
//	52  chunk    u16  arena chunk index within the segment
//	54  side     bool Meta / checkpoint tables live in the side table
type fields struct {
	txID     uint64
	prev     core.LSN
	page     core.PageID
	undoNext core.LSN
	typ      RecType
	op       PageOp
	slotNo   uint16
	imgOff   uint16
	off      uint16
	nBefore  uint32
	nAfter   uint32
	size     uint32
	chunk    uint16
	side     bool
}

// slot is one record cell of a hot segment: a publication word and the
// record's fields — 64 bytes, a slot per cache line. The record at lsn is
// published once pub holds lsn; anything else (0, or an LSN of the
// segment that had the array before, see Log.spare) means reserved.
//
// Readers load pub (or the published horizon, which is raised only over
// published slots) with acquire semantics before touching the rest, so
// the contents are race-free without a lock. Consecutive LSNs go to
// whichever appenders reserved them, so two clients' records alternate;
// a slot per line keeps one appender's fill and publication off the line
// the other is filling.
type slot struct {
	pub atomic.Uint64
	f   fields
}

// chunk is one piece of a segment's image arena. Appenders reserve
// space with a fetch-add on off and copy their images exactly once.
// Chunks form a list through prev, newest first; idx is the position a
// record refers to.
type chunk struct {
	prev *chunk
	idx  uint16
	off  atomic.Uint64
	buf  []byte
}

// sideRec holds what does not fit the fixed fields and is rare enough
// not to deserve space in them: the Meta payload of RecAlloc/RecTable
// records (copied) and a checkpoint's two tables (kept as handed in).
type sideRec struct {
	meta       []byte
	activeTxs  map[uint64]core.LSN
	dirtyPages map[core.PageID]core.LSN
}

// segment is one chunk of the record ring, covering the fixed LSN range
// [firstLSN, firstLSN+segRecords). It has two forms. While appenders can
// still reach it, it is hot: an array of padded slots that appenders
// fill and publish lock-free. Once the published horizon is a full
// segment past its last LSN, growth packs it (see pack): the fields of
// every record are encoded once into one exact-size buffer, published
// through packed, and the slot array is handed to a segment growth adds
// later (Log.spare). The images stay where they are, in the arena
// chunks, which neither form ever changes. Segments themselves are not
// reused: truncation drops them wholesale and growth allocates fresh
// ones, so a published record stays immutable for its whole life in
// either form.
//
// A reader that reads fields without ringMu pins the segment first
// (pin/unpin): growth hands a packed segment's array on only while no
// reader is pinned, and a reader that pins later finds slots nil and
// reads the packed form.
type segment struct {
	firstLSN core.LSN
	// slots is the hot form, nil once packed. The array is its own
	// allocation so that it lands exactly in a pointer-free size class.
	slots   atomic.Pointer[[segRecords]slot]
	packed  atomic.Pointer[packedSeg]
	readers atomic.Int32 // pinned readers

	// arena is the newest image chunk, the one appenders reserve from.
	// mu serialises chunk installation and guards the side table; it is
	// taken once per chunk and once per side record, never per append.
	arena atomic.Pointer[chunk]
	mu    sync.Mutex
	side  map[uint16]*sideRec // record index → side payload
	mem   atomic.Uint64       // arena + side bytes, for Stats
}

// What a segment retains besides its arena and side table: the header,
// plus the slot array while hot or the packed buffer and its header once
// packed. TestSlotLayout holds the constants to the structs.
const (
	slotBytes          = 64
	segmentHeaderBytes = 64
	slotArrayBytes     = segRecords * slotBytes
	packedHeaderBytes  = 32
)

// pin and unpin bracket a lock-free read of the segment's fields.
func (s *segment) pin()   { s.readers.Add(1) }
func (s *segment) unpin() { s.readers.Add(-1) }

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

// fields returns the fields of the record at index i and whether it is
// published, from whichever form the segment is in. The caller holds a
// pin or ringMu, so a slot array it loads stays the segment's while it
// reads. The packer stores the packed form before it drops the slot
// array, so a segment without slots has its packed form.
func (s *segment) fields(i uint64) (fields, bool) {
	if sl := s.slots.Load(); sl != nil {
		if sl[i].pub.Load() != uint64(s.firstLSN)+i {
			return fields{}, false
		}
		return sl[i].f, true
	}
	return s.packed.Load().fields(s.firstLSN+core.LSN(i), i), true
}

// published materialises the record at lsn, which the caller knows to
// be published and holds a pin or ringMu for.
func (s *segment) published(lsn core.LSN) Record {
	f, _ := s.fields((uint64(lsn) - 1) & segMask)
	return s.record(lsn, f)
}

// record materialises the record at lsn from its fields f. The images
// alias the arena, which is immutable once the record is published.
func (s *segment) record(lsn core.LSN, f fields) Record {
	i := (uint64(lsn) - 1) & segMask
	r := Record{
		LSN: lsn, Type: f.typ, TxID: f.txID, PrevLSN: f.prev,
		Page: f.page, Op: f.op, Slot: f.slotNo, Off: f.off, UndoNext: f.undoNext,
	}
	if f.nBefore+f.nAfter > 0 {
		buf := s.chunkAt(f.chunk).buf
		off := int(f.imgOff)
		mid := off + int(f.nBefore)
		end := mid + int(f.nAfter)
		if mid > off {
			r.Before = buf[off:mid:mid]
		}
		if end > mid {
			r.After = buf[mid:end:end]
		}
	}
	if f.side {
		s.mu.Lock()
		sd := s.side[uint16(i)]
		s.mu.Unlock()
		r.Meta, r.ActiveTxs, r.DirtyPages = sd.meta, sd.activeTxs, sd.dirtyPages
	}
	return r
}

// retained is what the segment holds in memory, in its current form.
func (s *segment) retained() uint64 {
	n := segmentHeaderBytes + s.mem.Load()
	if p := s.packed.Load(); p != nil {
		return n + packedHeaderBytes + uint64(cap(p.buf))
	}
	return n + slotArrayBytes
}

// packedSeg is a segment's cold form: its records' fields, encoded.
//
// buf starts with a table of segRecords little-endian u16 offsets, one
// per record index, to the record's encoding further on. A record is
// three bytes — type, op and a flag byte naming which of the fields
// that are usually zero follow — and then, as uvarints and in this
// order, those fields: TxID, LSN − PrevLSN, Page, LSN − UndoNext, Slot,
// Off; the image location (chunk index, offset in the chunk, len(Before),
// len(After)); and for a record with a side entry its Size(). The size
// of any other record follows from its images and type. An index below
// the segment's first record (a log reset or cut mid-segment) has an
// empty encoding and is never read.
type packedSeg struct {
	bytes uint64 // Σ Size() of the records, what truncating them all frees
	buf   []byte
}

// Flags of a packed record: the fields it carries.
const (
	pkTxID = 1 << iota
	pkPrev
	pkPage
	pkUndoNext
	pkSlot
	pkOff
	pkImages
	pkSide
)

// packedMaxRecord bounds one record's encoding: three bytes, four u64,
// four u16 and three u32 uvarints. The u16 offset table reaches every
// record of a segment at that size.
const (
	packedMaxRecord = 3 + 4*binary.MaxVarintLen64 + 4*3 + 3*5
	packedTable     = 2 * segRecords
)

const _ = uint16(packedTable + segRecords*packedMaxRecord - 1)

// pack seals a segment the published horizon has passed by a full
// segment: no appender holds a reservation in it, and none can take one.
// It encodes the fields of every published slot into one buffer of
// exactly their size, publishes that as the packed form, drops the slot
// array from the segment and returns it. scratch is the encoding buffer,
// returned for the next call. The caller holds the log's ringMu, so a
// segment is packed once.
func (s *segment) pack(scratch []byte) ([]byte, *[segRecords]slot) {
	sl := s.slots.Load()
	if cap(scratch) < packedTable+segRecords*packedMaxRecord {
		scratch = make([]byte, 0, packedTable+segRecords*packedMaxRecord)
	}
	b := scratch[:packedTable]
	var total uint64
	for i := range sl {
		binary.LittleEndian.PutUint16(b[2*i:], uint16(len(b)))
		if sl[i].pub.Load() != uint64(s.firstLSN)+uint64(i) {
			continue // never reserved: below the log's first record
		}
		f := &sl[i].f
		b = appendPacked(b, s.firstLSN+core.LSN(i), f)
		total += uint64(f.size)
	}
	s.packed.Store(&packedSeg{bytes: total, buf: append([]byte(nil), b...)})
	s.slots.Store(nil)
	return b, sl
}

// appendPacked appends the packed encoding of the record at lsn.
func appendPacked(b []byte, lsn core.LSN, f *fields) []byte {
	var fl byte
	if f.txID != 0 {
		fl |= pkTxID
	}
	if f.prev != 0 {
		fl |= pkPrev
	}
	if f.page != 0 {
		fl |= pkPage
	}
	if f.undoNext != 0 {
		fl |= pkUndoNext
	}
	if f.slotNo != 0 {
		fl |= pkSlot
	}
	if f.off != 0 {
		fl |= pkOff
	}
	if f.nBefore+f.nAfter > 0 {
		fl |= pkImages
	}
	if f.side {
		fl |= pkSide
	}
	b = append(b, byte(f.typ), byte(f.op), fl)
	if fl&pkTxID != 0 {
		b = binary.AppendUvarint(b, f.txID)
	}
	if fl&pkPrev != 0 {
		b = binary.AppendUvarint(b, uint64(lsn-f.prev))
	}
	if fl&pkPage != 0 {
		b = binary.AppendUvarint(b, uint64(f.page))
	}
	if fl&pkUndoNext != 0 {
		b = binary.AppendUvarint(b, uint64(lsn-f.undoNext))
	}
	if fl&pkSlot != 0 {
		b = binary.AppendUvarint(b, uint64(f.slotNo))
	}
	if fl&pkOff != 0 {
		b = binary.AppendUvarint(b, uint64(f.off))
	}
	if fl&pkImages != 0 {
		b = binary.AppendUvarint(b, uint64(f.chunk))
		b = binary.AppendUvarint(b, uint64(f.imgOff))
		b = binary.AppendUvarint(b, uint64(f.nBefore))
		b = binary.AppendUvarint(b, uint64(f.nAfter))
	}
	if fl&pkSide != 0 {
		b = binary.AppendUvarint(b, uint64(f.size))
	}
	return b
}

// fields decodes the record at index i, whose LSN is lsn.
func (p *packedSeg) fields(lsn core.LSN, i uint64) fields {
	d := uvarints{b: p.buf, k: int(binary.LittleEndian.Uint16(p.buf[2*i:])) + 3}
	f := fields{typ: RecType(p.buf[d.k-3]), op: PageOp(p.buf[d.k-2])}
	fl := p.buf[d.k-1]
	if fl&pkTxID != 0 {
		f.txID = d.next()
	}
	if fl&pkPrev != 0 {
		f.prev = lsn - core.LSN(d.next())
	}
	if fl&pkPage != 0 {
		f.page = core.PageID(d.next())
	}
	if fl&pkUndoNext != 0 {
		f.undoNext = lsn - core.LSN(d.next())
	}
	if fl&pkSlot != 0 {
		f.slotNo = uint16(d.next())
	}
	if fl&pkOff != 0 {
		f.off = uint16(d.next())
	}
	if fl&pkImages != 0 {
		f.chunk = uint16(d.next())
		f.imgOff = uint16(d.next())
		f.nBefore = uint32(d.next())
		f.nAfter = uint32(d.next())
	}
	if fl&pkSide != 0 {
		f.side = true
		f.size = uint32(d.next())
	} else {
		f.size = uint32(fixedSize(f.typ)) + f.nBefore + f.nAfter
	}
	return f
}

// uvarints reads the uvarints of a packed record from b[k:].
type uvarints struct {
	b []byte
	k int
}

func (d *uvarints) next() uint64 {
	c := d.b[d.k]
	d.k++
	if c < 0x80 {
		return uint64(c) // a one-byte value, nearly every field
	}
	v := uint64(c & 0x7f)
	for s := 7; ; s += 7 {
		c = d.b[d.k]
		d.k++
		if c < 0x80 {
			return v | uint64(c)<<s
		}
		v |= uint64(c&0x7f) << s
	}
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
// the flush itself), and ringMu, which serialises segment-table growth,
// packing and truncation (taken once per segRecords appends, never on
// the slot hot path). All counters are atomics read lock-free, so stats
// sampling never contends with appenders or the group-commit leader.
type Log struct {
	// Read on every append, written only by growth, truncation and the
	// replication floor, so each appender's copy of these lines stays.
	ring      atomic.Pointer[ring]
	ringMu    sync.Mutex    // guards ring replacement (growth, truncation) and packing
	first     atomic.Uint64 // oldest retained LSN
	tailBytes atomic.Uint64 // bytes reclaimed
	capacity  uint64        // log device size; 0 = unbounded

	// packFrom is the absolute number of the oldest segment growth has
	// not packed yet, packBuf the packer's encoding buffer and spare the
	// slot arrays of packed segments kept for new ones; ringMu guards
	// them. spares counts spare for Stats.
	packFrom uint64
	packBuf  []byte
	spare    []*[segRecords]slot
	spares   atomic.Int32

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
	seg, grew := l.segment(lsn)
	i := (uint64(lsn) - 1) & segMask
	// The segment is hot: it is packed only once the published horizon
	// has passed it, and it cannot pass this unpublished slot. The array
	// may have served an older segment, so every field is written.
	s := &seg.slots.Load()[i]
	f := fields{
		typ: r.Type, op: r.Op, slotNo: r.Slot, off: r.Off,
		txID: r.TxID, prev: r.PrevLSN, page: r.Page, undoNext: r.UndoNext,
		size: uint32(size),
	}
	if nb, na := len(r.Before), len(r.After); nb+na > 0 {
		c, off := seg.reserveImages(nb + na)
		copy(c.buf[off:], r.Before)
		copy(c.buf[off+nb:], r.After)
		f.chunk, f.imgOff, f.nBefore, f.nAfter = c.idx, uint16(off), uint32(nb), uint32(na)
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
		f.side = true
	}
	s.f = f
	s.pub.Store(uint64(lsn))
	l.advancePublished()
	if grew {
		// Packed only now: packing while this slot stood unpublished
		// would hold every later record's durability behind it.
		l.pack()
	}
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
// reservation ran ahead of it, and whether this call grew it.
func (l *Log) segment(lsn core.LSN) (*segment, bool) {
	if seg := l.ring.Load().segmentOf(lsn); seg != nil {
		return seg, false
	}
	return l.grow(lsn)
}

// grow extends the segment table to cover lsn and reports whether it
// did (another appender may have first). The new ring snapshot is
// swapped in atomically under ringMu; appenders and readers keep using
// their snapshots unlocked. New segments go into the table's spare
// capacity, not into a copy: a snapshot never indexes past its own
// length, so the slots beyond it are free to fill, and a log that is
// never truncated grows in amortised constant time. Growth does not
// pack: the appender that grew publishes its record first and then
// packs (pack), so an appender that reserved an LSN in the new segment
// finds it on the lock-free path at once.
func (l *Log) grow(lsn core.LSN) (*segment, bool) {
	l.ringMu.Lock()
	defer l.ringMu.Unlock()
	r := l.ring.Load()
	if seg := r.segmentOf(lsn); seg != nil {
		return seg, false
	}
	sn := segNum(lsn)
	segs := r.segs
	for next := r.firstSeg + uint64(len(segs)); next <= sn; next++ {
		segs = append(segs, l.newSegment(core.LSN(next*segRecords+1)))
	}
	l.ring.Store(&ring{firstSeg: r.firstSeg, segs: segs})
	return segs[sn-r.firstSeg], true
}

// pack packs the segments the published horizon has left behind; the
// appender that grew the ring calls it once its own record is
// published. The slot arrays it frees serve the segments of later
// growths.
func (l *Log) pack() {
	l.ringMu.Lock()
	defer l.ringMu.Unlock()
	r := l.ring.Load()
	l.packCold(r.firstSeg, r.segs)
}

// maxSpare bounds the slot arrays a log keeps for its next segments:
// growth packs about one segment for each it adds.
const maxSpare = 4

// packCold packs, oldest first, every hot segment whose last LSN the
// published horizon has passed by a full segment, and keeps each freed
// slot array that no reader is pinned in for a segment to come (one a
// reader is in goes to the collector). Caller holds ringMu.
func (l *Log) packCold(firstSeg uint64, segs []*segment) {
	pub := l.published.Load()
	l.packFrom = max(l.packFrom, firstSeg)
	for ; l.packFrom-firstSeg < uint64(len(segs)); l.packFrom++ {
		seg := segs[l.packFrom-firstSeg]
		if uint64(seg.firstLSN)+2*segRecords-1 > pub {
			return
		}
		var sl *[segRecords]slot
		l.packBuf, sl = seg.pack(l.packBuf)
		// slots is nil from here on, so a reader that pins after this
		// load reads the packed form.
		if seg.readers.Load() == 0 && len(l.spare) < maxSpare {
			l.spare = append(l.spare, sl)
			l.spares.Add(1)
		}
	}
}

// newSegment makes the segment at firstLSN, with a spare slot array if
// there is one: its stale publication words hold another segment's
// LSNs, so none reads as published here. Caller holds ringMu or, as
// Cut, has the log to itself.
func (l *Log) newSegment(firstLSN core.LSN) *segment {
	s := &segment{firstLSN: firstLSN}
	if n := len(l.spare); n > 0 {
		s.slots.Store(l.spare[n-1])
		l.spare[n-1] = nil
		l.spare = l.spare[:n-1]
		l.spares.Add(-1)
	} else {
		s.slots.Store(new([segRecords]slot))
	}
	return s
}

// dropSpare forgets the spare slot arrays. A log whose LSNs move back
// (Reset, Cut) could give an array back to the very segment it served,
// where its stale publication words would read as published.
func (l *Log) dropSpare() {
	l.spare = nil
	l.spares.Store(0)
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
			sl := seg.slots.Load()
			if sl == nil {
				// Packed: the horizon passed this segment long ago, so
				// whatever this publisher published is covered.
				break
			}
			if sl[n&segMask].pub.Load() != n+1 {
				// A hole: an appender is still copying. (Or the array
				// has gone on to a newer segment, whose words hold its
				// own LSNs; then the horizon passed this one long ago.)
				break
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
// I/O).
//
// A record becomes durable only with everything before it, so Flush
// waits until the contiguous published prefix covers lsn: a hole below
// an LSN this log assigned is an appender still copying, and clamping to
// the prefix instead would let the caller program a page whose log
// record is not durable yet — the WAL rule the page store's flush relies
// on. An lsn beyond the assigned head is clamped to it, because waiting
// for it would never end: a follower's pages installed from a snapshot
// carry the primary's PageLSNs, past the follower's spliced log.
func (l *Log) Flush(lsn core.LSN) {
	if core.LSN(l.flushed.Load()) >= lsn {
		return // already durable: the common case of a page store's flush
	}
	if head := core.LSN(l.next.Load() - 1); lsn > head {
		lsn = head
	}
	l.waitPublished(lsn)
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
	seg.pin()
	defer seg.unpin()
	f, ok := seg.fields((uint64(lsn) - 1) & segMask)
	if !ok {
		return Record{}, fmt.Errorf("%w: %d (head at %d)", ErrNotFound, lsn, next)
	}
	return seg.record(lsn, f), nil
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
	c := cursor{r: r}
	defer c.release()
	for lsn := from; lsn <= limit; lsn++ {
		seg := c.at(lsn)
		if seg == nil {
			// A concurrent truncation retired this segment; skip to
			// the new tail (or stop if it passed the horizon).
			f := core.LSN(l.first.Load())
			if f <= lsn {
				return
			}
			lsn = f - 1
			continue
		}
		if !fn(seg.published(lsn)) {
			return
		}
	}
}

// cursor walks a ring snapshot in LSN order with the segment it is in
// pinned.
type cursor struct {
	r   *ring
	seg *segment
}

// at returns the pinned segment holding lsn, or nil when the snapshot
// does not cover it.
func (c *cursor) at(lsn core.LSN) *segment {
	if c.seg != nil && lsn >= c.seg.firstLSN && lsn < c.seg.firstLSN+segRecords {
		return c.seg
	}
	c.release()
	if c.seg = c.r.segmentOf(lsn); c.seg != nil {
		c.seg.pin()
	}
	return c.seg
}

func (c *cursor) release() {
	if c.seg != nil {
		c.seg.unpin()
		c.seg = nil
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
// sizes the dropped records hold, one load (hot) or decode (packed) per
// record dropped — a hot segment keeps no running total, which every
// append would have to write, and a packed one frees its total at once.
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
		stop := min(seg.firstLSN+segRecords, lsn)
		if p := seg.packed.Load(); p != nil && cur == seg.firstLSN && stop == seg.firstLSN+segRecords {
			freed += p.bytes
			cur = stop
			continue
		}
		for ; cur < stop; cur++ {
			f, _ := seg.fields((uint64(cur) - 1) & segMask)
			freed += uint64(f.size)
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
	c := cursor{r: r}
	defer c.release()
	for lsn := from; lsn <= limit; lsn++ {
		if maxRecords > 0 && n >= maxRecords {
			break
		}
		seg := c.at(lsn)
		if seg == nil {
			// Truncate stores the tail before the ring, so a cursor in
			// a retired segment already failed the check above; this
			// guards the invariant — a zero record must never ship.
			return n, fmt.Errorf("%w: cursor horizon %d behind log tail %d",
				ErrTruncated, lsn, core.LSN(l.first.Load()))
		}
		rec := seg.published(lsn)
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
	l.packFrom = 0
	l.dropSpare()
}

// Cut drops every record past the durable horizon, as a power cut does
// to the log tail that was never forced: the next append gets
// Flushed()+1, and AppendedBytes and UsedBytes read as if the dropped
// records had never been appended. No published slot changes: the
// segments past the horizon leave the ring, and the one it falls in is
// replaced by a fresh segment that its kept records are appended to
// again. The caller guarantees no concurrent appends or reads.
func (l *Log) Cut() {
	flushed, r := core.LSN(l.flushed.Load()), l.ring.Load()
	sn := segNum(flushed + 1)
	from := max(core.LSN(sn*segRecords+1), l.Tail())
	var kept []Record
	for lsn := from; lsn < core.LSN(l.next.Load()); lsn++ {
		seg := r.segmentOf(lsn)
		f, _ := seg.fields((uint64(lsn) - 1) & segMask)
		if lsn <= flushed {
			kept = append(kept, seg.record(lsn, f))
		}
		l.headBytes.Add(-uint64(f.size))
	}
	keep := min(sn-r.firstSeg, uint64(len(r.segs)))
	l.packFrom = min(l.packFrom, sn)
	l.dropSpare()
	l.ring.Store(&ring{firstSeg: r.firstSeg, segs: append(r.segs[:keep:keep], l.newSegment(core.LSN(sn*segRecords+1)))})
	l.next.Store(uint64(from))
	l.published.Store(uint64(from) - 1)
	for _, rec := range kept {
		l.Append(rec)
	}
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
	// memory the log actually holds for that — segment headers, slot
	// arrays (hot segments and spare ones), packed buffers, image arena
	// chunks and side records.
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
	retained := uint64(l.spares.Load()) * slotArrayBytes
	for _, seg := range segs {
		retained += seg.retained()
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
