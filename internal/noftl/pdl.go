package noftl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ipa/internal/core"
	"ipa/internal/flash"
	"ipa/internal/sim"
)

// Page-Differential Logging (Kim, Whang & Song): instead of rewriting a
// whole page per flush, only the differential between the flushed and
// the current image is written — out of place, into dedicated log blocks
// the DiffLog claims from the region's free pool. A logical read merges
// the base page with its outstanding differentials; space is reclaimed
// by merging a victim log block's pages back into full base images
// (cost-benefit victim choice) and erasing it.
//
// On-flash format. A log block's first page opens with a 16-byte block
// header (8-byte ASCII magic "PDLLOG01" + big-endian allocation
// sequence); records follow, packed back to back across the block's LSB
// pages in ascending slot order:
//
//	marker 0xD7 | pageID u64 | pageLSN u64 | nruns u16 |
//	    nruns × { off u16 | len u16 | len bytes }
//
// Integers are big-endian. A page's unwritten tail stays erased (0xFF),
// so parsing stops at the first non-marker byte. Each record batch is a
// single ProgramDelta into still-erased bytes — a legal initial partial
// program — which keeps log pages inside the programmed population that
// crash-recovery scans and at most MaxAppends batches land on one page.
//
// Locking: dl.mu serialises every DiffLog mutation and nests OUTSIDE
// chip locks and map shards (dl.mu → cs.mu → mapShard.mu), matching the
// region's internal order. Claimed log blocks are parked `collecting`
// with valid=0 so the garbage collector never sees them. The read-merge path (ApplyTo) only snapshots under dl.mu and
// performs its log-page reads unlocked; it — like the engine's Fetch,
// which reads the base page without dl.mu — relies on the epoch counter
// to detect an interleaved merge and retry.

var pdlMagic = []byte("PDLLOG01")

const (
	pdlHeaderSize = 16 // magic (8) + block allocation sequence (8)
	pdlRecMarker  = 0xD7
	pdlRecHeader  = 1 + 8 + 8 + 2 // marker + pageID + LSN + nruns
	pdlRunHeader  = 2 + 2         // off + len
)

var (
	// ErrPDLRecordTooLarge reports a differential over the per-record
	// size budget; the caller should fall back to an out-of-place write.
	ErrPDLRecordTooLarge = errors.New("noftl: pdl record exceeds size budget")
	// ErrPDLNoSpace reports that no log block can accept the record even
	// after merging — the region's free pool is at its reserve.
	ErrPDLNoSpace = errors.New("noftl: pdl log blocks exhausted")
)

// IsPDLPage reports whether a raw physical page image is the first page
// of a PDL log block (recovery scans use this to keep log records out of
// the page-mapping reconstruction).
func IsPDLPage(data []byte) bool {
	return len(data) >= len(pdlMagic) && bytes.Equal(data[:len(pdlMagic)], pdlMagic)
}

// PDLConfig tunes a DiffLog. The zero value is usable.
type PDLConfig struct {
	// MaxBlocksPerChip caps the log blocks claimed per chip (<=0: 4).
	MaxBlocksPerChip int
	// MaxRecordFraction caps one record at this fraction of a page
	// (<=0: 0.25). Larger differentials are rejected with
	// ErrPDLRecordTooLarge so the caller rewrites the page instead.
	MaxRecordFraction float64
	// EncodeOOB, when set, produces the spare-area bytes for a merged
	// base image before it is rewritten (the engine hooks its ECC here).
	// The returned slice is used immediately and may be reused.
	EncodeOOB func(data []byte) []byte
}

func (c PDLConfig) maxBlocksPerChip() int {
	if c.MaxBlocksPerChip <= 0 {
		return 4
	}
	return c.MaxBlocksPerChip
}

// PDLStats are the DiffLog's counters.
type PDLStats struct {
	Appends     uint64 // differential records written
	AppendBytes uint64 // record bytes written (headers included)
	Applies     uint64 // merge-on-read invocations that applied records
	Merges      uint64 // log blocks reclaimed
	MergedPages uint64 // base pages rewritten by merges
	Invalidated uint64 // pages whose differentials were discarded
	Rebuilds    uint64 // crash-recovery rebuilds

	LogBlocks int // log blocks currently claimed
	LiveBytes int // record bytes still needed on read
	DeadBytes int // record bytes superseded or invalidated
}

// diffRef locates one live record on flash.
type diffRef struct {
	ppn  flash.PPN
	off  int // record start within the page
	size int // encoded record size
	lsn  core.LSN
	seq  uint64 // global append order (monotone)
}

// logBlock is one claimed erase unit holding records.
type logBlock struct {
	bm       *blockMeta
	chip     int
	seq      uint64 // allocation sequence from the block header
	nextSlot int    // page slot being filled
	pageOff  int    // next write offset within that slot
	live     int    // bytes of records still referenced
	dead     int    // bytes of records dropped or superseded
	full     bool   // sealed: no further appends (rebuilt blocks)
}

type pdlChip struct {
	chip   int
	blocks []*logBlock
	cur    *logBlock // block accepting appends, nil before first open
}

// DiffLog implements Page-Differential Logging on top of a region.
// Methods are safe for concurrent use.
type DiffLog struct {
	r   *Region
	cfg PDLConfig

	mu       sync.Mutex
	seq      uint64 // record append counter
	blockSeq uint64 // block allocation counter
	chips    map[int]*pdlChip
	byBlock  map[int]*logBlock
	refs     map[core.PageID][]diffRef
	rr       int // round-robin cursor into r.chips

	epoch atomic.Uint64 // bumped per merge; readers retry on change

	encBuf  []byte // record encode scratch
	scratch []byte // log-page read scratch (under dl.mu)
	pageBuf []byte // base-page merge scratch

	// readBufs recycles per-call log-page buffers for ApplyTo, which
	// reads flash outside dl.mu and so cannot share dl.scratch.
	readBufs sync.Pool

	stats PDLStats
}

// NewDiffLog attaches a differential log to the region. The region must
// have been created with StoragePDL (a disabled IPA scheme): merges
// rewrite raw base images, which an IPA layout's stale delta slots would
// corrupt on reconstruct.
func NewDiffLog(r *Region, cfg PDLConfig) (*DiffLog, error) {
	if !r.cfg.Scheme.Disabled() || r.cfg.Mode != ModeNone {
		return nil, fmt.Errorf("noftl: region %q: diff log requires a disabled IPA scheme", r.cfg.Name)
	}
	ps := r.PageSize()
	dl := &DiffLog{
		r:       r,
		cfg:     cfg,
		chips:   make(map[int]*pdlChip),
		byBlock: make(map[int]*logBlock),
		refs:    make(map[core.PageID][]diffRef),
		encBuf:  make([]byte, 0, ps),
		scratch: make([]byte, ps),
		pageBuf: make([]byte, ps),
	}
	dl.readBufs.New = func() any {
		b := make([]byte, ps)
		return &b
	}
	return dl, nil
}

// maxRecordBytes is the per-record budget: a fraction of the page,
// never more than fits on a page beside the block header.
func (dl *DiffLog) maxRecordBytes() int {
	ps := dl.r.PageSize()
	frac := dl.cfg.MaxRecordFraction
	if frac <= 0 {
		frac = 0.25
	}
	n := int(float64(ps) * frac)
	if max := ps - pdlHeaderSize; n > max {
		n = max
	}
	return n
}

// Epoch returns the merge epoch. A reader that snapshots the epoch,
// reads the base page, applies records with ApplyTo and observes an
// unchanged epoch is guaranteed a consistent logical image; on a change
// it must retry (a merge folded records into the base underneath it).
func (dl *DiffLog) Epoch() uint64 { return dl.epoch.Load() }

// Append encodes the differential as one record and writes it to a log
// block. ErrPDLRecordTooLarge and ErrPDLNoSpace mean "rewrite the page
// out of place instead"; any other error is a device fault.
func (dl *DiffLog) Append(w *sim.Worker, id core.PageID, lsn core.LSN, cs *core.ChangeSet) error {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	rec := dl.encodeRecord(id, lsn, cs)
	if len(rec) > dl.maxRecordBytes() {
		return fmt.Errorf("%w: %d bytes, budget %d", ErrPDLRecordTooLarge, len(rec), dl.maxRecordBytes())
	}
	ppn, off, err := dl.appendLocked(w, rec)
	if errors.Is(err, ErrPDLNoSpace) {
		// Merge the best victim log block back into base pages and retry
		// once with the space it released.
		if merr := dl.mergeReclaimLocked(w); merr != nil {
			return err
		}
		ppn, off, err = dl.appendLocked(w, rec)
	}
	if err != nil {
		return err
	}
	dl.seq++
	dl.refs[id] = append(dl.refs[id], diffRef{ppn: ppn, off: off, size: len(rec), lsn: lsn, seq: dl.seq})
	dl.stats.Appends++
	dl.stats.AppendBytes += uint64(len(rec))
	return nil
}

// encodeRecord serialises the changeset into dl.encBuf. Body and Meta
// pairs (each sorted by offset) are merged and coalesced into runs of
// consecutive offsets; the two lists never overlap, so a plain two-way
// merge yields strictly ascending offsets.
func (dl *DiffLog) encodeRecord(id core.PageID, lsn core.LSN, cs *core.ChangeSet) []byte {
	buf := append(dl.encBuf[:0], pdlRecMarker)
	buf = binary.BigEndian.AppendUint64(buf, uint64(id))
	buf = binary.BigEndian.AppendUint64(buf, uint64(lsn))
	nrunsAt := len(buf)
	buf = append(buf, 0, 0) // nruns back-patched below
	var nruns uint16
	runStart, runLen := -1, 0
	b, m := cs.Body, cs.Meta
	i, j := 0, 0
	for i < len(b) || j < len(m) {
		var p core.Pair
		if j >= len(m) || (i < len(b) && b[i].Off < m[j].Off) {
			p = b[i]
			i++
		} else {
			p = m[j]
			j++
		}
		if runStart >= 0 && int(p.Off) == runStart+runLen {
			buf = append(buf, p.Val)
			runLen++
			binary.BigEndian.PutUint16(buf[len(buf)-runLen-2:], uint16(runLen))
			continue
		}
		// open a new run
		runStart, runLen = int(p.Off), 1
		nruns++
		buf = binary.BigEndian.AppendUint16(buf, p.Off)
		buf = binary.BigEndian.AppendUint16(buf, 1)
		buf = append(buf, p.Val)
	}
	binary.BigEndian.PutUint16(buf[nrunsAt:], nruns)
	dl.encBuf = buf
	return buf
}

// appendLocked places the record on some chip's current log block,
// trying chips round-robin (one full lap) before giving up.
func (dl *DiffLog) appendLocked(w *sim.Worker, rec []byte) (flash.PPN, int, error) {
	chips := dl.r.chips
	var firstErr error
	for lap := 0; lap < len(chips); lap++ {
		c := chips[(dl.rr+lap)%len(chips)]
		ppn, off, err := dl.appendChipLocked(w, c, rec)
		if err == nil {
			dl.rr = (dl.rr + lap + 1) % len(chips)
			return ppn, off, nil
		}
		if !errors.Is(err, ErrPDLNoSpace) {
			return 0, 0, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return 0, 0, firstErr
}

func (dl *DiffLog) chipFor(c int) *pdlChip {
	pc := dl.chips[c]
	if pc == nil {
		pc = &pdlChip{chip: c}
		dl.chips[c] = pc
	}
	return pc
}

func (dl *DiffLog) appendChipLocked(w *sim.Worker, c int, rec []byte) (flash.PPN, int, error) {
	pc := dl.chipFor(c)
	arr := dl.r.dev.arr
	geom := dl.r.dev.geom
	ps := geom.PageSize
	usable := dl.r.usablePagesPerBlock()
	for {
		lb := pc.cur
		if lb == nil {
			var err error
			if lb, err = dl.openBlockLocked(pc); err != nil {
				return 0, 0, err
			}
		}
		for lb.nextSlot < usable {
			ppn := dl.r.pageSlotToPPN(lb.bm.id, lb.nextSlot)
			if !geom.IsLSB(ppn) {
				// ProgramDelta refuses MSB pages; skip the slot.
				lb.nextSlot++
				lb.pageOff = 0
				continue
			}
			need := len(rec)
			woff := lb.pageOff
			var wbuf []byte
			if lb.nextSlot == 0 && woff == pdlHeaderSize {
				// First write of the block: the header rides along in the
				// same partial program so the magic is never missing from
				// a block that holds records.
				hdr := append(make([]byte, 0, pdlHeaderSize+len(rec)), pdlMagic...)
				hdr = binary.BigEndian.AppendUint64(hdr, lb.seq)
				wbuf = append(hdr, rec...)
				woff = 0
			} else {
				wbuf = rec
			}
			if lb.pageOff+need > ps || arr.Appends(ppn) >= arr.MaxAppends() {
				lb.nextSlot++
				lb.pageOff = 0
				continue
			}
			lat, err := arr.ProgramDelta(w, ppn, woff, wbuf, 0, nil)
			if err != nil {
				return 0, 0, fmt.Errorf("noftl: pdl append block %d: %w", lb.bm.id, err)
			}
			recOff := woff + (len(wbuf) - len(rec))
			lb.pageOff = recOff + len(rec)
			lb.live += len(rec)
			cs := dl.r.byChip[c]
			cs.mu.Lock()
			cs.stats.DeltaWrites++
			cs.stats.DeltaTime += lat
			cs.mu.Unlock()
			return ppn, recOff, nil
		}
		lb.full = true
		pc.cur = nil
	}
}

// openBlockLocked claims a free block from the chip's pool as a new log
// block. The block is parked `collecting` with valid=0, which makes it
// invisible to the garbage collector.
func (dl *DiffLog) openBlockLocked(pc *pdlChip) (*logBlock, error) {
	if len(pc.blocks) >= dl.cfg.maxBlocksPerChip() {
		return nil, fmt.Errorf("%w: chip %d at %d log blocks", ErrPDLNoSpace, pc.chip, len(pc.blocks))
	}
	cs := dl.r.byChip[pc.chip]
	cs.mu.Lock()
	if cs.freeLen() <= gcReserve {
		cs.mu.Unlock()
		return nil, fmt.Errorf("%w: chip %d free pool at reserve", ErrPDLNoSpace, pc.chip)
	}
	bm := cs.popFree()
	bm.collecting = true
	bm.valid = 0
	bm.next = 0
	cs.mu.Unlock()
	dl.blockSeq++
	lb := &logBlock{bm: bm, chip: pc.chip, seq: dl.blockSeq, pageOff: pdlHeaderSize}
	pc.blocks = append(pc.blocks, lb)
	pc.cur = lb
	dl.byBlock[bm.id] = lb
	return lb, nil
}

// ApplyTo merges the page's outstanding differentials (oldest first)
// into buf, which must hold the base image. Returns the number of bytes
// applied. A page with no differentials costs one map lookup.
//
// The flash reads run OUTSIDE dl.mu — a log-page fetch is the expensive
// part of a merge-on-read, and holding the lock across it would stall
// every concurrent append behind every reader. The ref list is borrowed
// under a brief dl.mu hold: existing elements are never mutated in
// place (Append only extends past the borrowed length, merges drop the
// whole map entry, Rebuild runs on a quiesced region), so reading the
// snapshot unlocked is race-free. A merge that interleaves can still
// erase or recycle a snapshotted log page underneath us; the epoch
// check turns the resulting parse failure — or a silently inconsistent
// image — into a clean return, and the caller's epoch loop
// (PageStore.Fetch) re-reads the base and retries, per the Epoch
// contract.
func (dl *DiffLog) ApplyTo(w *sim.Worker, id core.PageID, buf []byte) (int, error) {
	dl.mu.Lock()
	e0 := dl.epoch.Load()
	refs := dl.refs[id]
	dl.mu.Unlock()
	if len(refs) == 0 {
		return 0, nil
	}
	sp := dl.readBufs.Get().(*[]byte)
	defer dl.readBufs.Put(sp)
	scratch := *sp
	arr := dl.r.dev.arr
	applied := 0
	var cur flash.PPN
	loaded := false
	for _, ref := range refs {
		if !loaded || ref.ppn != cur {
			if _, err := arr.ReadInto(w, ref.ppn, scratch, nil); err != nil {
				if dl.epoch.Load() != e0 {
					return applied, nil // merge interleaved; caller retries
				}
				return applied, fmt.Errorf("noftl: pdl read log page %d: %w", ref.ppn, err)
			}
			cur, loaded = ref.ppn, true
		}
		n, err := applyRecord(scratch[ref.off:ref.off+ref.size], buf)
		if err != nil {
			if dl.epoch.Load() != e0 {
				return applied, nil // merge interleaved; caller retries
			}
			return applied, fmt.Errorf("noftl: pdl apply page %d: %w", id, err)
		}
		applied += n
	}
	dl.mu.Lock()
	dl.stats.Applies++
	dl.mu.Unlock()
	return applied, nil
}

func (dl *DiffLog) applyLocked(w *sim.Worker, id core.PageID, buf []byte) (int, error) {
	refs := dl.refs[id]
	if len(refs) == 0 {
		return 0, nil
	}
	arr := dl.r.dev.arr
	applied := 0
	var cur flash.PPN
	loaded := false
	for _, ref := range refs {
		if !loaded || ref.ppn != cur {
			if _, err := arr.ReadInto(w, ref.ppn, dl.scratch, nil); err != nil {
				return applied, fmt.Errorf("noftl: pdl read log page %d: %w", ref.ppn, err)
			}
			cur, loaded = ref.ppn, true
		}
		n, err := applyRecord(dl.scratch[ref.off:ref.off+ref.size], buf)
		if err != nil {
			return applied, fmt.Errorf("noftl: pdl apply page %d: %w", id, err)
		}
		applied += n
	}
	dl.stats.Applies++
	return applied, nil
}

// applyRecord replays one encoded record onto the page image.
func applyRecord(rec, page []byte) (int, error) {
	if len(rec) < pdlRecHeader || rec[0] != pdlRecMarker {
		return 0, fmt.Errorf("bad record header")
	}
	nruns := int(binary.BigEndian.Uint16(rec[17:]))
	p := pdlRecHeader
	applied := 0
	for i := 0; i < nruns; i++ {
		if p+pdlRunHeader > len(rec) {
			return applied, fmt.Errorf("truncated run header")
		}
		off := int(binary.BigEndian.Uint16(rec[p:]))
		n := int(binary.BigEndian.Uint16(rec[p+2:]))
		p += pdlRunHeader
		if p+n > len(rec) || off+n > len(page) {
			return applied, fmt.Errorf("run out of bounds")
		}
		copy(page[off:], rec[p:p+n])
		p += n
		applied += n
	}
	return applied, nil
}

// Invalidate discards the page's differentials (the base image was
// rewritten, or the page freed). Their bytes turn dead, raising their
// blocks' merge priority.
func (dl *DiffLog) Invalidate(id core.PageID) {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	dl.invalidateLocked(id)
}

func (dl *DiffLog) invalidateLocked(id core.PageID) {
	refs := dl.refs[id]
	if len(refs) == 0 {
		return
	}
	for _, ref := range refs {
		if lb := dl.byBlock[dl.r.dev.geom.BlockOf(ref.ppn)]; lb != nil {
			lb.live -= ref.size
			lb.dead += ref.size
		}
	}
	delete(dl.refs, id)
	dl.stats.Invalidated++
}

// mergeReclaimLocked reclaims the best victim log block, or returns
// ErrPDLNoSpace when there is none.
func (dl *DiffLog) mergeReclaimLocked(w *sim.Worker) error {
	lb := dl.pickMergeVictimLocked()
	if lb == nil {
		return ErrPDLNoSpace
	}
	return dl.mergeBlockLocked(w, lb)
}

// pickMergeVictimLocked scores log blocks cost-benefit style: u is the
// live fraction of the block's record bytes, and a block with no live
// bytes is free to reclaim (infinite benefit, modelled by picking it
// outright). Ties break on the oldest allocation. Returns nil when no
// block is claimed.
func (dl *DiffLog) pickMergeVictimLocked() *logBlock {
	var best *logBlock
	var bestScore float64
	for _, c := range dl.r.chips {
		pc := dl.chips[c]
		if pc == nil {
			continue
		}
		for _, lb := range pc.blocks {
			if !lb.full && lb.live == 0 && lb.dead == 0 {
				continue // freshly opened, nothing to reclaim
			}
			if lb.live == 0 {
				return lb // pure garbage: erase without any merge I/O
			}
			u := float64(lb.live) / float64(lb.live+lb.dead)
			score := (1 - u) / (2 * u)
			if best == nil || score > bestScore || (score == bestScore && lb.seq < best.seq) {
				best, bestScore = lb, score
			}
		}
	}
	return best
}

// mergeBlockLocked folds every page that has a record in the victim
// back into a full base image (applying ALL of the page's outstanding
// records — record order spans blocks, so partial folding would
// misorder overlapping runs), rewrites it out of place, drops the
// records and erases the victim.
func (dl *DiffLog) mergeBlockLocked(w *sim.Worker, victim *logBlock) error {
	var ids []core.PageID
	for id, refs := range dl.refs {
		for _, ref := range refs {
			if dl.r.dev.geom.BlockOf(ref.ppn) == victim.bm.id {
				ids = append(ids, id)
				break
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !dl.r.Contains(id) {
			dl.invalidateLocked(id)
			continue
		}
		if err := dl.r.ReadInto(w, id, dl.pageBuf, nil); err != nil {
			return fmt.Errorf("noftl: pdl merge read page %d: %w", id, err)
		}
		if _, err := dl.applyLocked(w, id, dl.pageBuf); err != nil {
			return err
		}
		var oob []byte
		if dl.cfg.EncodeOOB != nil {
			oob = dl.cfg.EncodeOOB(dl.pageBuf)
		}
		if err := dl.r.Write(w, id, dl.pageBuf, oob); err != nil {
			return fmt.Errorf("noftl: pdl merge write page %d: %w", id, err)
		}
		dl.invalidateLocked(id)
		dl.stats.MergedPages++
	}
	if err := dl.releaseBlockLocked(w, victim); err != nil {
		return err
	}
	dl.stats.Merges++
	dl.epoch.Add(1)
	return nil
}

// releaseBlockLocked erases the victim and returns it to the chip's
// free pool.
func (dl *DiffLog) releaseBlockLocked(w *sim.Worker, victim *logBlock) error {
	arr := dl.r.dev.arr
	if _, err := arr.Erase(w, victim.bm.id); err != nil && !errors.Is(err, flash.ErrWornOut) {
		return fmt.Errorf("noftl: pdl erase block %d: %w", victim.bm.id, err)
	}
	cs := dl.r.byChip[victim.chip]
	cs.mu.Lock()
	victim.bm.collecting = false
	victim.bm.valid = 0
	victim.bm.next = 0
	cs.pushFree(victim.bm, arr.EraseCount(victim.bm.id))
	cs.mu.Unlock()
	delete(dl.byBlock, victim.bm.id)
	pc := dl.chips[victim.chip]
	for i, lb := range pc.blocks {
		if lb == victim {
			pc.blocks = append(pc.blocks[:i], pc.blocks[i+1:]...)
			break
		}
	}
	if pc.cur == victim {
		pc.cur = nil
	}
	return nil
}

// Stats returns a snapshot of the DiffLog counters.
func (dl *DiffLog) Stats() PDLStats {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	s := dl.stats
	s.LogBlocks, s.LiveBytes, s.DeadBytes = 0, 0, 0
	for _, pc := range dl.chips {
		for _, lb := range pc.blocks {
			s.LogBlocks++
			s.LiveBytes += lb.live
			s.DeadBytes += lb.dead
		}
	}
	return s
}

// Rebuild re-derives the DiffLog state from flash after a crash. It
// must run after Region.Adopt (which classifies every block from the
// physical state): blocks whose first page carries the PDL magic are
// re-claimed from the region's bookkeeping, their records re-parsed,
// and a record kept iff its page is still mapped and its LSN is newer
// than the adopted base image's (baseLSN). All rebuilt blocks are
// sealed — appends go to freshly claimed blocks — so a half-programmed
// tail page can never be appended past twice. Returns the number of
// live records. Recovery-path only: expects a quiesced region.
func (dl *DiffLog) Rebuild(w *sim.Worker, baseLSN map[core.PageID]core.LSN) (int, error) {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	dl.chips = make(map[int]*pdlChip)
	dl.byBlock = make(map[int]*logBlock)
	dl.refs = make(map[core.PageID][]diffRef)
	dl.seq = 0
	dl.blockSeq = 0

	arr := dl.r.dev.arr
	geom := dl.r.dev.geom
	usable := dl.r.usablePagesPerBlock()
	blocks := make([]int, 0, len(dl.r.blockIndex))
	for id := range dl.r.blockIndex {
		blocks = append(blocks, id)
	}
	sort.Ints(blocks)
	live := 0
	for _, b := range blocks {
		first := dl.r.pageSlotToPPN(b, 0)
		if arr.IsErased(first) {
			continue
		}
		if _, err := arr.ReadInto(w, first, dl.scratch, nil); err != nil {
			return live, fmt.Errorf("noftl: pdl rebuild read block %d: %w", b, err)
		}
		if !IsPDLPage(dl.scratch) {
			continue
		}
		bm := dl.r.blockIndex[b]
		seq := binary.BigEndian.Uint64(dl.scratch[len(pdlMagic):])
		lb := &logBlock{bm: bm, chip: bm.chip, seq: seq, full: true}
		// Re-claim the block from the region: Adopt saw a programmed,
		// unmapped block and classified it active or victim; park it
		// `collecting` again so the collector never evacuates it.
		cs := dl.r.byChip[bm.chip]
		cs.mu.Lock()
		if bm.active {
			bm.active = false
			cs.active = nil
		}
		cs.removeVictim(bm)
		bm.collecting = true
		bm.valid = 0
		cs.mu.Unlock()
		if seq > dl.blockSeq {
			dl.blockSeq = seq
		}
		pc := dl.chipFor(bm.chip)
		pc.blocks = append(pc.blocks, lb)
		dl.byBlock[b] = lb
		n, err := dl.rebuildBlockLocked(w, lb, baseLSN, usable, geom)
		if err != nil {
			return live, err
		}
		live += n
	}
	// Record order within a page must be replay order. Blocks were
	// scanned in id order, not allocation order, so re-sort by LSN (the
	// PageLSN advances on every flush, making it a total order per page)
	// and renumber.
	for id, refs := range dl.refs {
		sort.Slice(refs, func(i, j int) bool { return refs[i].lsn < refs[j].lsn })
		for i := range refs {
			dl.seq++
			refs[i].seq = dl.seq
		}
		dl.refs[id] = refs
	}
	dl.stats.Rebuilds++
	dl.epoch.Add(1)
	return live, nil
}

// rebuildBlockLocked parses one log block's records, keeping those
// still needed (page mapped, LSN newer than the base image).
func (dl *DiffLog) rebuildBlockLocked(w *sim.Worker, lb *logBlock, baseLSN map[core.PageID]core.LSN, usable int, geom flash.Geometry) (int, error) {
	arr := dl.r.dev.arr
	live := 0
	for slot := 0; slot < usable; slot++ {
		ppn := dl.r.pageSlotToPPN(lb.bm.id, slot)
		if !geom.IsLSB(ppn) {
			continue
		}
		if arr.IsErased(ppn) {
			break // records fill slots in ascending order
		}
		if _, err := arr.ReadInto(w, ppn, dl.scratch, nil); err != nil {
			return live, fmt.Errorf("noftl: pdl rebuild read ppn %d: %w", ppn, err)
		}
		off := 0
		if slot == 0 {
			off = pdlHeaderSize
		}
		for off < len(dl.scratch) && dl.scratch[off] == pdlRecMarker {
			id, lsn, size, err := parseRecord(dl.scratch[off:])
			if err != nil {
				return live, fmt.Errorf("noftl: pdl rebuild block %d ppn %d off %d: %w", lb.bm.id, ppn, off, err)
			}
			base, mapped := baseLSN[id]
			if mapped && lsn > base {
				dl.refs[id] = append(dl.refs[id], diffRef{ppn: ppn, off: off, size: size, lsn: lsn})
				lb.live += size
				live++
			} else {
				lb.dead += size
			}
			off += size
		}
	}
	return live, nil
}

// parseRecord validates one encoded record and returns its page id,
// LSN and total encoded size.
func parseRecord(rec []byte) (core.PageID, core.LSN, int, error) {
	if len(rec) < pdlRecHeader || rec[0] != pdlRecMarker {
		return 0, 0, 0, fmt.Errorf("bad record header")
	}
	id := core.PageID(binary.BigEndian.Uint64(rec[1:]))
	lsn := core.LSN(binary.BigEndian.Uint64(rec[9:]))
	nruns := int(binary.BigEndian.Uint16(rec[17:]))
	p := pdlRecHeader
	for i := 0; i < nruns; i++ {
		if p+pdlRunHeader > len(rec) {
			return 0, 0, 0, fmt.Errorf("truncated run header")
		}
		n := int(binary.BigEndian.Uint16(rec[p+2:]))
		p += pdlRunHeader + n
		if p > len(rec) {
			return 0, 0, 0, fmt.Errorf("truncated run")
		}
	}
	return id, lsn, p, nil
}
