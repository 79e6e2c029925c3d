// Package engine is the storage engine tying everything together: a
// Shore-MT-like substrate with heap tables, a B+tree index, ARIES
// logging, a steal/no-force buffer pool — and the paper's In-Place
// Appends on the fetch/evict path (Sec. 6.2 "Page Operations").
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ipa/internal/buffer"
	"ipa/internal/core"
	"ipa/internal/ecc"
	"ipa/internal/flash"
	"ipa/internal/metrics"
	"ipa/internal/noftl"
	"ipa/internal/page"
	"ipa/internal/sim"
	"ipa/internal/wal"
)

// Errors of the engine.
var (
	ErrECC         = errors.New("engine: uncorrectable flash page")
	ErrOOBTooSmall = errors.New("engine: OOB area too small for sectioned ECC")
)

// FlushKind classifies how a flush was served (for the experiment
// counters).
type FlushKind int

const (
	FlushSkipped    FlushKind = iota // nothing changed
	FlushDelta                       // served as write_delta (In-Place Append)
	FlushOutOfPlace                  // full out-of-place page write
)

// StoreStats is a point-in-time snapshot of the flush decisions and the
// update-size distributions the paper analyses, returned by
// PageStore.Stats. The counter fields are copied values, and the latency
// recorders are snapshots too: the store keeps one per worker stripe and
// Stats merges them into fresh recorders, so resetting one changes
// nothing in the store. The histograms point at the store's live
// (internally synchronised) recorders, so they always read current and
// support Reset.
type StoreStats struct {
	Fetches      uint64
	DeltaApply   uint64 // fetches that applied ≥1 delta-record
	ECCCorrected uint64

	FlushesSkipped uint64
	FlushesDelta   uint64
	FlushesOOP     uint64

	// Update-size histograms over *update* flushes (appends to brand-new
	// pages are excluded, as in the paper's Appendix A statistics).
	NetBytes   *metrics.Hist // changed body bytes per flushed page
	GrossBytes *metrics.Hist // body + metadata bytes

	FetchLatency *metrics.Latency
	FlushLatency *metrics.Latency

	// Scheme identifies the store's write-reduction scheme and carries
	// its scheme-specific counters.
	Scheme SchemeStats
}

// SchemeStats reports which scheme a store runs and the scheme's own
// counters (only PDL keeps state outside the region).
type SchemeStats struct {
	Storage noftl.Storage
	PDL     noftl.PDLStats // zero unless Storage == StoragePDL
}

// storeCounters are the live counters and latency recorders behind
// StoreStats of one worker stripe (PageStore.ctr), so concurrent
// fetch/flush paths never write a common cache line for their stats.
type storeCounters struct {
	fetchLat metrics.Latency
	flushLat metrics.Latency

	fetches      atomic.Uint64
	deltaApply   atomic.Uint64
	eccCorrected atomic.Uint64

	flushesSkipped atomic.Uint64
	flushesDelta   atomic.Uint64
	flushesOOP     atomic.Uint64
}

// TraceSink receives page-level I/O events for trace recording (the
// IPL-vs-IPA comparison replays such traces).
type TraceSink interface {
	RecordFetch(id core.PageID)
	RecordEvict(id core.PageID, net, gross int, isNew bool)
}

// csFree holds the ChangeSets flushes diff into; their pair slices keep
// their capacity across flushes. It is one pool for every store, as
// txFree is for every DB, so no store is kept reachable by its pool.
var csFree = sync.Pool{New: func() any { return new(core.ChangeSet) }}

// PageStore binds a NoFTL region to a page layout and implements
// buffer.Store: fetching reconstructs logical pages from physical images
// (applying delta-records, checking sectioned ECC); flushing performs the
// paper's IPA-vs-out-of-place decision.
type PageStore struct {
	region *noftl.Region
	layout page.Layout
	sect   ecc.Sections
	useECC bool
	log    *wal.Log // forced to a page's PageLSN before the page is programmed

	// dl is the differential log of a PDL region and nil for an IPA
	// region: Fetch, flush and Free take the PDL path exactly when it is
	// set, and recoverMapping rebuilds it. An IPA region on the disabled
	// [0×0] scheme is the out-of-place baseline.
	dl *noftl.DiffLog

	ctr        sim.Striped[storeCounters]
	netBytes   *metrics.Hist
	grossBytes *metrics.Hist

	// Fetch reads the page image straight into the caller's frame buffer;
	// the OOB area rides along for ECC and comes from this pool so the
	// steady-state fetch path allocates nothing.
	oobPool sync.Pool

	sink atomic.Pointer[TraceSink] // nil = no recorder attached

	// unwritten counts the pages of the store that exist only in the
	// pool: brought into being and not yet written (reserve).
	unwritten atomic.Int64
}

// reserve sets aside one page of the region's logical capacity for page
// id, which the engine brings into being in the pool, unless the region
// maps it already. The region checks its capacity only at a page's first
// write, and a new page is first written at its eviction or a
// checkpoint, long after the operation that made it: a page the region
// refuses then holds committed rows, and every flush of it fails. So a
// page counts against the capacity from its creation, and the one that
// would not fit fails its creator instead. The reservation is held while
// the page has a new frame (fr.New) and no copy in the region; its first
// write (writeOutOfPlace) turns it into a mapping, and a pool that is
// thrown away takes its reservations with it (DB.dropReservations).
func (s *PageStore) reserve(id core.PageID) error {
	if s.region.Contains(id) {
		return nil
	}
	if s.unwritten.Add(1)+int64(s.region.MappedPages()) > int64(s.region.LogicalCapacity()) {
		s.unwritten.Add(-1)
		return fmt.Errorf("engine: new page %d: %w: %q at %d pages",
			id, noftl.ErrRegionFull, s.region.Name(), s.region.LogicalCapacity())
	}
	return nil
}

// unreserve gives back what reserve set aside for page id, which will
// not be written.
func (s *PageStore) unreserve(id core.PageID) {
	if !s.region.Contains(id) {
		s.unwritten.Add(-1)
	}
}

// SetTraceSink attaches a trace recorder (nil detaches).
func (s *PageStore) SetTraceSink(ts TraceSink) {
	if ts == nil {
		s.sink.Store(nil)
		return
	}
	s.sink.Store(&ts)
}

func (s *PageStore) traceSink() TraceSink {
	if ts := s.sink.Load(); ts != nil {
		return *ts
	}
	return nil
}

// NewPageStore creates a store over a region. pageSize is the database
// page size; the [N×M] scheme comes from the region. When useECC is set,
// the OOB area must accommodate the sectioned codes. log is the log
// whose records describe the pages.
func NewPageStore(region *noftl.Region, pageSize int, useECC bool, log *wal.Log) (*PageStore, error) {
	l := page.Layout{PageSize: pageSize, Scheme: region.Scheme()}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	s := &PageStore{
		region:     region,
		layout:     l,
		useECC:     useECC,
		log:        log,
		netBytes:   metrics.NewHist(pageSize),
		grossBytes: metrics.NewHist(pageSize),
	}
	s.sect = ecc.Sections{
		BodyLen: l.DeltaAreaStart(),
		SlotLen: l.Scheme.RecordSize(),
		Slots:   l.Scheme.N,
	}
	oobSize := region.OOBSize()
	s.oobPool.New = func() any {
		b := make([]byte, oobSize)
		return &b
	}
	if pageSize != region.PageSize() {
		return nil, fmt.Errorf("engine: page size %d != flash page size %d", pageSize, region.PageSize())
	}
	if useECC && region.OOBSize() < s.sect.TotalCodeLen() {
		return nil, fmt.Errorf("%w: need %d, have %d", ErrOOBTooSmall, s.sect.TotalCodeLen(), region.OOBSize())
	}
	if region.Storage() == noftl.StoragePDL {
		var encodeOOB func([]byte) []byte
		if useECC {
			// Merged base images get the body ECC an out-of-place flush
			// would attach.
			encodeOOB = func(data []byte) []byte { return ecc.Encode(data[:s.sect.BodyLen]) }
		}
		dl, err := noftl.NewDiffLog(region, noftl.PDLConfig{EncodeOOB: encodeOOB})
		if err != nil {
			return nil, err
		}
		s.dl = dl
	}
	return s, nil
}

// Region returns the backing NoFTL region.
func (s *PageStore) Region() *noftl.Region { return s.region }

// Stats returns a snapshot of the store's counters (see StoreStats for
// which fields are copies and which are live recorders).
func (s *PageStore) Stats() StoreStats {
	st := StoreStats{
		NetBytes:     s.netBytes,
		GrossBytes:   s.grossBytes,
		FetchLatency: &metrics.Latency{},
		FlushLatency: &metrics.Latency{},
		Scheme:       SchemeStats{Storage: s.region.Storage()},
	}
	for i := range sim.Stripes {
		c := s.ctr.At(i)
		st.Fetches += c.fetches.Load()
		st.DeltaApply += c.deltaApply.Load()
		st.ECCCorrected += c.eccCorrected.Load()
		st.FlushesSkipped += c.flushesSkipped.Load()
		st.FlushesDelta += c.flushesDelta.Load()
		st.FlushesOOP += c.flushesOOP.Load()
		st.FetchLatency.Merge(&c.fetchLat)
		st.FlushLatency.Merge(&c.flushLat)
	}
	if s.dl != nil {
		st.Scheme.PDL = s.dl.Stats()
	}
	return st
}

// Fetch implements buffer.Store: read the physical image, verify and
// correct ECC per section, apply delta-records, and hand back the logical
// image plus the used-slot count (N_E).
func (s *PageStore) Fetch(w *sim.Worker, id core.PageID, buf []byte) (int, error) {
	start := now(w)
	var used, applied int
	// Epoch loop: a PDL merge can fold a page's differential records into
	// a rewritten base image between our base read and ApplyTo — the
	// stale base would then materialise to a pre-merge image. The log
	// bumps its epoch per merge; an unchanged epoch across the whole
	// read+apply proves the composition was consistent. An IPA region has
	// no log, so the loop runs exactly once there.
	for {
		var e0 uint64
		if s.dl != nil {
			e0 = s.dl.Epoch()
		}
		var err error
		if used, applied, err = s.fetchOnce(w, id, buf); err != nil {
			return 0, err
		}
		if s.dl == nil || s.dl.Epoch() == e0 {
			break
		}
	}
	c := s.ctr.Of(w)
	c.fetches.Add(1)
	if sink := s.traceSink(); sink != nil {
		sink.RecordFetch(id)
	}
	if applied > 0 {
		c.deltaApply.Add(1)
	}
	c.fetchLat.Add(elapsed(w, start))
	return used, nil
}

// fetchOnce performs one read+reconstruct+materialise attempt. It
// returns the used delta-slot count and how many differential bytes or
// records were applied on top of the raw image.
func (s *PageStore) fetchOnce(w *sim.Worker, id core.PageID, buf []byte) (used, applied int, err error) {
	// The physical image lands directly in the caller's frame buffer and
	// is reconstructed there in place — no intermediate copy. The OOB area
	// is only needed for ECC verification, from a pooled scratch buffer.
	var oob []byte
	var oobp *[]byte
	if s.useECC {
		oobp = s.oobPool.Get().(*[]byte)
		oob = *oobp
	}
	if err := s.region.ReadInto(w, id, buf, oob); err != nil {
		if oobp != nil {
			s.oobPool.Put(oobp)
		}
		return 0, 0, err
	}
	used = page.UsedDeltaSlots(buf, s.layout)
	if s.useECC {
		n, err := s.correctSections(buf, oob, used)
		s.oobPool.Put(oobp)
		if err != nil {
			return 0, 0, fmt.Errorf("%w: page %d: %v", ErrECC, id, err)
		}
		s.ctr.Of(w).eccCorrected.Add(uint64(n))
	}
	applied, err = page.Reconstruct(buf, s.layout)
	if err != nil {
		return 0, 0, fmt.Errorf("engine: reconstruct page %d: %w", id, err)
	}
	if s.dl != nil {
		m, err := s.dl.ApplyTo(w, id, buf)
		if err != nil {
			return 0, 0, fmt.Errorf("engine: materialize page %d: %w", id, err)
		}
		applied += m
	}
	return used, applied, nil
}

// correctSections verifies ECC_initial over the body and ECC_delta_i over
// each present delta slot (Sec. 6.2).
func (s *PageStore) correctSections(data, oob []byte, used int) (corrected int, err error) {
	if len(oob) < s.sect.TotalCodeLen() {
		return 0, fmt.Errorf("%w: %d < %d", ErrOOBTooSmall, len(oob), s.sect.TotalCodeLen())
	}
	n, err := ecc.Correct(data[:s.sect.BodyLen], oob[:s.sect.BodyCodeLen()])
	if err != nil {
		return n, err
	}
	corrected = n
	rs := s.layout.Scheme.RecordSize()
	for i := 0; i < used; i++ {
		off := s.layout.DeltaSlotOff(i)
		code := oob[s.sect.SlotCodeOff(i) : s.sect.SlotCodeOff(i)+s.sect.SlotCodeLen()]
		n, err := ecc.Correct(data[off:off+rs], code)
		if err != nil {
			return corrected, fmt.Errorf("delta slot %d: %w", i, err)
		}
		corrected += n
	}
	return corrected, nil
}

// Flush implements buffer.Store: diff the frame against its last flushed
// image, and either append delta-records to the same physical flash page
// (write_delta) or write the whole page out-of-place.
func (s *PageStore) Flush(w *sim.Worker, fr *buffer.Frame) error {
	start := now(w)
	kind, err := s.flush(w, fr)
	if err != nil {
		return err
	}
	c := s.ctr.Of(w)
	switch kind {
	case FlushSkipped:
		c.flushesSkipped.Add(1)
	case FlushDelta:
		c.flushesDelta.Add(1)
	case FlushOutOfPlace:
		c.flushesOOP.Add(1)
	}
	if kind != FlushSkipped {
		c.flushLat.Add(elapsed(w, start))
	}
	return nil
}

func (s *PageStore) flush(w *sim.Worker, fr *buffer.Frame) (FlushKind, error) {
	newPage := fr.New || fr.Image() == buffer.ImageNone
	if !newPage && fr.Image() == buffer.ImageClean {
		// Nobody latched the frame exclusively since its load or last
		// flush, so it still equals the stored image (the empty diff).
		return FlushSkipped, nil
	}
	pg, err := page.Attach(fr.Data, s.layout)
	if err != nil {
		return 0, err
	}
	// The WAL rule: no page image reaches flash ahead of the log records
	// that produced it.
	s.log.Flush(pg.LSN())
	if newPage {
		// A brand-new page has no physical copy: IPA is not applicable,
		// the first write is always a whole-page out-of-place program.
		if err := s.writeOutOfPlace(w, fr); err != nil {
			return 0, err
		}
		if sink := s.traceSink(); sink != nil {
			sink.RecordEvict(fr.ID, 0, 0, true)
		}
		return FlushOutOfPlace, nil
	}
	// Range-classified word-scan diff into a pooled ChangeSet: the ranges
	// live on the stack and the pair slices keep their capacity, so a
	// flush of an unchanged page costs one XOR pass and zero allocations.
	var rbuf [4]core.ClassRange
	cs := csFree.Get().(*core.ChangeSet)
	defer csFree.Put(cs)
	if err := core.DiffInto(cs, fr.Data, fr.Flushed, pg.ClassRanges(rbuf[:0])); err != nil {
		return 0, err
	}
	if cs.Empty() {
		return FlushSkipped, nil
	}
	// Update-size statistics: this is an update I/O to an existing page.
	s.netBytes.Add(cs.BodyBytes())
	s.grossBytes.Add(cs.BodyBytes() + cs.MetaBytes())
	if sink := s.traceSink(); sink != nil {
		sink.RecordEvict(fr.ID, cs.BodyBytes(), cs.BodyBytes()+cs.MetaBytes(), false)
	}
	if s.dl != nil {
		// Page-differential logging: the differential goes to the region's
		// log blocks as one record. An oversized differential or a full log
		// falls back to a full rewrite, and the page's records are dropped
		// BEFORE that write: a merge serialised behind the log's mutex
		// could otherwise fold them over the fresh base image and
		// resurrect stale bytes.
		err := s.dl.Append(w, fr.ID, pg.LSN(), cs)
		if err == nil {
			fr.MarkFlushed()
			return FlushDelta, nil
		}
		if !errors.Is(err, noftl.ErrPDLRecordTooLarge) && !errors.Is(err, noftl.ErrPDLNoSpace) {
			return 0, err
		}
		s.dl.Invalidate(fr.ID)
	} else if s.region.CanAppend(fr.ID) {
		// In-place appends: plan [N×M×V] delta-records for the differential
		// and program them into the page's delta area; a differential over
		// the budget is written out of place. A region on the disabled
		// [0×0] scheme (Mode none) never gets here: it is the
		// out-of-place baseline.
		recs, perr := s.layout.Scheme.Plan(*cs, fr.UsedSlots)
		if perr == nil && len(recs) > 0 {
			if err := s.writeDelta(w, fr, recs); err == nil {
				return FlushDelta, nil
			} else if !errors.Is(err, noftl.ErrNotAppendable) {
				return 0, err
			}
			// Not appendable after all (e.g. chip budget raced out):
			// fall through to the out-of-place path.
		} else if perr != nil && perr != core.ErrSchemeOverflow {
			return 0, perr
		}
	}
	if err := s.writeOutOfPlace(w, fr); err != nil {
		return 0, err
	}
	return FlushOutOfPlace, nil
}

// writeDelta encodes the planned records into contiguous delta slots and
// issues one write_delta covering them (plus their ECC in the OOB area).
func (s *PageStore) writeDelta(w *sim.Worker, fr *buffer.Frame, recs []core.DeltaRecord) error {
	off, data, err := page.EncodeRecords(s.layout, fr.UsedSlots, recs)
	if err != nil {
		return err
	}
	var oobOff int
	var oobData []byte
	if s.useECC {
		oobOff = s.sect.SlotCodeOff(fr.UsedSlots)
		rs := s.layout.Scheme.RecordSize()
		for i := range recs {
			oobData = append(oobData, ecc.Encode(data[i*rs:(i+1)*rs])...)
		}
	}
	if err := s.region.WriteDelta(w, fr.ID, off, data, oobOff, oobData); err != nil {
		return err
	}
	fr.UsedSlots += len(recs)
	fr.MarkFlushed()
	return nil
}

// writeOutOfPlace writes the full logical image (delta area erased) to a
// new physical location and resets the delta state.
func (s *PageStore) writeOutOfPlace(w *sim.Worker, fr *buffer.Frame) error {
	var oob []byte
	if s.useECC {
		oob = ecc.Encode(fr.Data[:s.sect.BodyLen])
	}
	first := fr.New && !s.region.Contains(fr.ID)
	err := s.region.Write(w, fr.ID, fr.Data, oob)
	if first && s.region.Contains(fr.ID) {
		s.unwritten.Add(-1) // the reservation is a mapping now
	}
	if err != nil {
		return err
	}
	fr.UsedSlots = 0
	fr.New = false
	fr.MarkFlushed()
	return nil
}

// Scrub implements the Correct-and-Refresh maintenance pass (Sec. 2.3):
// the physical page is read, bit errors are corrected through the
// sectioned ECC, and the corrected raw image is ISPP re-programmed in
// place — restoring leaked charge without an out-of-place write or an
// erase. It returns the number of corrected bits.
func (s *PageStore) Scrub(w *sim.Worker, id core.PageID) (corrected int, err error) {
	if !s.useECC {
		return 0, fmt.Errorf("engine: scrub requires ECC")
	}
	data, oob := make([]byte, s.layout.PageSize), make([]byte, s.region.OOBSize())
	if err := s.region.ReadInto(w, id, data, oob); err != nil {
		return 0, err
	}
	used := page.UsedDeltaSlots(data, s.layout)
	n, err := s.correctSections(data, oob, used)
	if err != nil {
		return n, fmt.Errorf("%w: page %d: %v", ErrECC, id, err)
	}
	if n == 0 {
		return 0, nil // nothing leaked; skip the re-program
	}
	if err := s.region.Refresh(w, id, data, oob); err != nil {
		return n, err
	}
	return n, nil
}

// recoverMapping rebuilds the region's logical→physical mapping, which a
// power cut took with DBMS memory, from flash contents: the first step of
// a restart (DB.Recover). Every programmed physical page is scanned; its
// raw image is reconstructed (delta-records applied) to obtain the page id
// and the effective PageLSN, and for each logical page the copy with the
// highest LSN wins — older copies are garbage the collector will reclaim.
// It returns the number of logical pages recovered.
func (s *PageStore) recoverMapping(w *sim.Worker) (int, error) {
	type winner struct {
		ppn flash.PPN
		lsn core.LSN
	}
	best := make(map[core.PageID]winner)
	pdlBlock := -1
	img := make([]byte, s.layout.PageSize)
	err := s.region.ScanPhysical(w, func(pp noftl.PhysicalPage) bool {
		// A PDL log block announces itself on its first page; its pages
		// hold differential records, not database pages, and the scan
		// visits a block's pages consecutively — skip the whole block.
		// The DiffLog re-parses the records below.
		if pp.Block == pdlBlock {
			return true
		}
		if noftl.IsPDLPage(pp.Data) {
			pdlBlock = pp.Block
			return true
		}
		copy(img, pp.Data)
		if _, err := page.Reconstruct(img, s.layout); err != nil {
			// Unreadable image: skip (a torn program would be caught by
			// ECC on real hardware; our model only sees whole programs).
			return true
		}
		pg, err := page.Attach(img, s.layout)
		if err != nil {
			return true
		}
		id := pg.ID()
		if id == core.InvalidPageID || id > core.MaxPageID {
			return true // not a page this engine wrote
		}
		if cur, ok := best[id]; !ok || pg.LSN() > cur.lsn {
			best[id] = winner{ppn: pp.PPN, lsn: pg.LSN()}
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	mapping := make(map[core.PageID]flash.PPN, len(best))
	for id, wn := range best {
		mapping[id] = wn.ppn
	}
	if err := s.region.Adopt(mapping); err != nil {
		return 0, err
	}
	if s.dl != nil {
		// Re-derive the differential log AFTER Adopt (it re-claims its
		// blocks from the freshly rebuilt bookkeeping). A record survives
		// iff its page is mapped and its LSN is newer than the adopted
		// base image's — every older record is already folded into some
		// later out-of-place write.
		baseLSN := make(map[core.PageID]core.LSN, len(best))
		for id, wn := range best {
			baseLSN[id] = wn.lsn
		}
		if _, err := s.dl.Rebuild(w, baseLSN); err != nil {
			return 0, err
		}
	}
	return len(mapping), nil
}

func now(w *sim.Worker) sim.Time {
	if w == nil {
		return 0
	}
	return w.Now()
}

func elapsed(w *sim.Worker, start sim.Time) time.Duration {
	if w == nil {
		return 0
	}
	return time.Duration(w.Now() - start)
}
