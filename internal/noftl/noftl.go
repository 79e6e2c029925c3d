// Package noftl implements the NoFTL architecture the paper builds on
// (Sec. 5): flash management lifted out of the device and integrated with
// the DBMS, giving the storage manager direct control over physical flash
// pages. It provides
//
//   - regions: subsets of the flash array with their own IPA mode (none,
//     SLC, pSLC, odd-MLC) and [N×M] scheme, so In-Place Appends can be
//     applied selectively per database object;
//   - page-level logical→physical mapping with out-of-place writes;
//   - a greedy garbage collector with page migrations and wear-aware
//     free-block selection, run inline by the writer that finds its
//     chip's free pool at the reserve (the paper's measured
//     configuration);
//   - the paper's write_delta I/O command (Sec. 7), which appends a
//     delta-record to the very same physical flash page a database page
//     resides on.
//
// # Concurrency
//
// The region is sharded per chip: every chip has its own chipState with
// its own lock, active block, free-block heap, victim heap and reverse
// map, so allocation and garbage collection on one chip never contend
// with I/O on another. The logical→physical map is a flat array of
// atomic entries indexed by page id (core.PageTable), as in any
// page-mapping FTL: reading it is one load and takes no lock; an entry
// changes — by swap or compare-and-swap — only under the lock of a chip
// that holds the page's old or new copy. A chip lock may be taken while
// holding no lock, and no two chip locks are ever held together
// (cross-chip work is deferred until the first lock is dropped). Flash
// I/O for a page happens under its chip's lock — that is what serialises
// programs into an active block (StrictProgramOrder) and keeps erases
// from racing reads.
//
// Lookups (PPNOf, the entry of Read/Write) are validated after the chip
// lock is acquired: if GC migrated the page meanwhile, the operation
// retries against the new location.
package noftl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ipa/internal/core"
	"ipa/internal/flash"
	"ipa/internal/sim"
)

// Errors of the NoFTL layer.
var (
	ErrUnknownPage   = errors.New("noftl: logical page not mapped")
	ErrRegionFull    = errors.New("noftl: region logical capacity exhausted")
	ErrNoSpace       = errors.New("noftl: garbage collection cannot reclaim space")
	ErrNotAppendable = errors.New("noftl: physical page does not accept in-place appends")
	ErrRegionExists  = errors.New("noftl: region name already in use")
	ErrNoBlocks      = errors.New("noftl: not enough unassigned blocks")
)

// IPAMode selects how a region exploits the flash type for In-Place
// Appends (Sec. 4 / Appendix C).
type IPAMode int

const (
	// ModeNone disables IPA: every write is out-of-place (the [0×0]
	// baseline).
	ModeNone IPAMode = iota
	// ModeSLC applies IPA on SLC flash: every page accepts appends.
	ModeSLC
	// ModePSLC uses MLC flash in pseudo-SLC mode: only LSB pages are
	// programmed, halving capacity, and every used page accepts appends.
	ModePSLC
	// ModeOddMLC uses the full MLC capacity; appends are possible only on
	// pages that happen to live on LSB pages.
	ModeOddMLC
)

func (m IPAMode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeSLC:
		return "SLC"
	case ModePSLC:
		return "pSLC"
	case ModeOddMLC:
		return "odd-MLC"
	default:
		return fmt.Sprintf("IPAMode(%d)", int(m))
	}
}

// RegionConfig is the paper's CREATE REGION statement (Figure 3) as a
// Go value. A region spans every chip of its device; BlocksPerChip
// takes the place of Figure 3's size limit.
type RegionConfig struct {
	Name   string
	Mode   IPAMode
	Scheme core.Scheme

	// Storage selects the write-reduction scheme (IPA delta appends, PDL
	// log blocks, or plain out-of-place). Zero value StorageIPA keeps the
	// original behaviour. See Validate for the layout constraints.
	Storage Storage

	// BlocksPerChip assigned to the region on each chip of the device;
	// a region spans every chip.
	BlocksPerChip int
	// OverProvision is the fraction of the region's physical pages kept
	// out of the logical capacity to give the garbage collector slack.
	// Zero selects the paper's 10%.
	OverProvision float64
}

func (rc RegionConfig) overProvision() float64 {
	if rc.OverProvision <= 0 {
		return 0.10
	}
	return rc.OverProvision
}

// gcReserve is the per-chip low-water mark of free blocks that triggers
// garbage collection. Below 2 the collector can find itself without a
// migration target (one block erasing, none free to receive valid
// pages).
const gcReserve = 2

// Stats are the per-region counters the paper reports.
type Stats struct {
	HostReads        uint64 // logical page reads
	OutOfPlaceWrites uint64 // full-page writes to a new location
	DeltaWrites      uint64 // write_delta commands (in-place appends)
	GCPageMigrations uint64 // valid pages rewritten by the collector
	GCErases         uint64 // block erases by the collector

	// GCStalls is always zero: nothing counts into it. It stays only
	// because the benchmark's noftl.gc_stalls row reads it.
	GCStalls uint64

	// Latency sums (simulated) for response-time reporting.
	ReadTime  time.Duration
	WriteTime time.Duration
	DeltaTime time.Duration
	GCTime    time.Duration
}

// HostWrites is the paper's /Host Writes/: every DBMS write request,
// whether served as an out-of-place write or as an in-place append.
func (s Stats) HostWrites() uint64 { return s.OutOfPlaceWrites + s.DeltaWrites }

// IPAFraction is the share of host writes served as in-place appends
// (the "Out-of-Place Writes vs. In-Place Appends" row).
func (s Stats) IPAFraction() float64 {
	if s.HostWrites() == 0 {
		return 0
	}
	return float64(s.DeltaWrites) / float64(s.HostWrites())
}

// MigrationsPerHostWrite is the paper's [GC Page Migrations per Host Write].
func (s Stats) MigrationsPerHostWrite() float64 {
	if s.HostWrites() == 0 {
		return 0
	}
	return float64(s.GCPageMigrations) / float64(s.HostWrites())
}

// ErasesPerHostWrite is the paper's [GC Erases per Host Write].
func (s Stats) ErasesPerHostWrite() float64 {
	if s.HostWrites() == 0 {
		return 0
	}
	return float64(s.GCErases) / float64(s.HostWrites())
}

func (s *Stats) add(o Stats) {
	s.HostReads += o.HostReads
	s.OutOfPlaceWrites += o.OutOfPlaceWrites
	s.DeltaWrites += o.DeltaWrites
	s.GCPageMigrations += o.GCPageMigrations
	s.GCErases += o.GCErases
	s.ReadTime += o.ReadTime
	s.WriteTime += o.WriteTime
	s.DeltaTime += o.DeltaTime
	s.GCTime += o.GCTime
}

// blockMeta tracks the collector-relevant state of one erase unit. All
// fields are guarded by the owning chip's lock. Every block is in
// exactly one of four states: in the free pool, the chip's active block,
// in the victim heap, or being evacuated (collecting).
type blockMeta struct {
	id         int // global block index
	chip       int
	valid      int  // valid pages currently stored
	next       int  // next usable page slot index (not PPN) within the block
	active     bool // current write point of its chip
	free       bool // erased, in the free pool
	collecting bool // being evacuated by GC

	eraseSnap uint32 // erase count at free-pool push (heap key; see freeLess)
	freeIdx   int    // position in the chip's free heap, -1 when absent
	victIdx   int    // position in the chip's victim heap, -1 when absent
}

// chipState is one chip's shard of the region: write point, block
// bookkeeping, reverse map and stats cell, all guarded by mu.
type chipState struct {
	chip int

	// mu is held across a write's program and any inline collection, tens
	// of microseconds, so it is taken with sim.Lock: a waiter yields
	// before it parks.
	mu sync.Mutex

	blocks   []*blockMeta // the chip's blocks, ascending id (immutable slice)
	freePool blockHeap    // erased blocks, min (eraseSnap, id)
	victims  blockHeap    // occupied non-active blocks, min (valid, id)
	active   *blockMeta   // current write point, nil between blocks
	reverse  map[flash.PPN]core.PageID

	stats Stats

	// Migration scratch: page moves inside the collector re-read into
	// these instead of allocating two slices per migrated page.
	migData []byte
	migOOB  []byte
}

func (cs *chipState) freeLen() int { return cs.freePool.len() }

// pushFree returns an erased block to the pool.
func (cs *chipState) pushFree(bm *blockMeta, eraseCount uint32) {
	bm.free = true
	bm.eraseSnap = eraseCount
	cs.freePool.push(bm)
}

// popFree removes and returns the free block with the lowest erase count
// (wear-aware selection), or nil.
func (cs *chipState) popFree() *blockMeta {
	bm := cs.freePool.pop()
	if bm != nil {
		bm.free = false
	}
	return bm
}

func (cs *chipState) addVictim(bm *blockMeta) { cs.victims.push(bm) }

func (cs *chipState) removeVictim(bm *blockMeta) {
	if bm.victIdx >= 0 {
		cs.victims.remove(bm.victIdx)
	}
}

// fixVictim restores heap order after bm.valid changed. No-op for blocks
// not in the victim heap (free, active or collecting).
func (cs *chipState) fixVictim(bm *blockMeta) {
	if bm.victIdx >= 0 {
		cs.victims.fix(bm.victIdx)
	}
}

func (cs *chipState) migBuffers(g flash.Geometry) (data, oob []byte) {
	if cs.migData == nil {
		cs.migData = make([]byte, g.PageSize)
		cs.migOOB = make([]byte, g.OOBSize)
	}
	return cs.migData, cs.migOOB
}

// An entry of the logical→physical map is the page's PPN plus one, so
// that the zero entry reads "not mapped".
func entryOf(ppn flash.PPN) uint64 { return uint64(ppn) + 1 }

func ppnOf(entry uint64) (ppn flash.PPN, mapped bool) { return flash.PPN(entry - 1), entry != 0 }

// Region is a slice of the device with its own IPA mode, mapping and
// garbage collector. Methods are safe for concurrent use.
type Region struct {
	dev *Device
	cfg RegionConfig

	chips      []int              // every chip of the device, in order
	byChip     []*chipState       // indexed by chip id
	blockIndex map[int]*blockMeta // by global block id; read-only after creation

	l2p     core.PageTable[atomic.Uint64] // logical→physical, see entryOf
	mapped  atomic.Int64                  // current mapping size (logical-capacity accounting)
	rr      atomic.Uint64                 // round-robin cursor for placing new pages
	logical int                           // logical page capacity
}

// Device owns the flash array and hands out regions.
type Device struct {
	arr  *flash.Array
	geom flash.Geometry

	mu        sync.Mutex
	regions   map[string]*Region
	nextBlock []int // per chip: next unassigned block index within chip
}

// Open wraps an existing flash array in a NoFTL device.
func Open(arr *flash.Array) *Device {
	g := arr.Geometry()
	return &Device{
		arr:       arr,
		geom:      g,
		regions:   make(map[string]*Region),
		nextBlock: make([]int, g.Chips),
	}
}

// Geometry returns the underlying array geometry.
func (d *Device) Geometry() flash.Geometry { return d.geom }

// Array exposes the raw flash (used by tests and low-level tools).
func (d *Device) Array() *flash.Array { return d.arr }

// Region returns a created region by name, or nil.
func (d *Device) Region(name string) *Region {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.regions[name]
}

// Close does nothing: a device owns no goroutine and no resource to
// release. It stays only because the benchmark's stacks call it.
func (d *Device) Close() {}

// CreateRegion carves a new region out of unassigned blocks.
func (d *Device) CreateRegion(rc RegionConfig) (*Region, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	if (rc.Mode == ModePSLC || rc.Mode == ModeOddMLC) && d.geom.Cell != flash.MLC {
		return nil, fmt.Errorf("noftl: mode %v requires MLC flash", rc.Mode)
	}
	if rc.Mode == ModeSLC && d.geom.Cell != flash.SLC {
		return nil, fmt.Errorf("noftl: mode SLC requires SLC flash")
	}
	if rc.BlocksPerChip <= 0 {
		return nil, fmt.Errorf("noftl: region %q needs BlocksPerChip > 0", rc.Name)
	}
	chips := make([]int, d.geom.Chips)
	for i := range chips {
		chips[i] = i
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.regions[rc.Name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrRegionExists, rc.Name)
	}
	for _, c := range chips {
		if d.nextBlock[c]+rc.BlocksPerChip > d.geom.BlocksPerChip {
			return nil, fmt.Errorf("%w: chip %d has %d left, need %d",
				ErrNoBlocks, c, d.geom.BlocksPerChip-d.nextBlock[c], rc.BlocksPerChip)
		}
	}
	r := &Region{
		dev:        d,
		cfg:        rc,
		chips:      chips,
		byChip:     make([]*chipState, d.geom.Chips),
		blockIndex: make(map[int]*blockMeta),
	}
	physPages := 0
	for _, c := range chips {
		cs := newChipState(c)
		for i := 0; i < rc.BlocksPerChip; i++ {
			gid := c*d.geom.BlocksPerChip + d.nextBlock[c] + i
			bm := &blockMeta{id: gid, chip: c, freeIdx: -1, victIdx: -1}
			cs.blocks = append(cs.blocks, bm)
			r.blockIndex[gid] = bm
			cs.pushFree(bm, d.arr.EraseCount(gid))
			physPages += r.usablePagesPerBlock()
		}
		d.nextBlock[c] += rc.BlocksPerChip
		r.byChip[c] = cs
	}
	r.logical = int(float64(physPages) * (1 - rc.overProvision()))
	if r.logical < 1 {
		return nil, fmt.Errorf("noftl: region %q has no logical capacity", rc.Name)
	}
	d.regions[rc.Name] = r
	return r, nil
}

func newChipState(chip int) *chipState {
	cs := &chipState{
		chip:    chip,
		reverse: make(map[flash.PPN]core.PageID),
	}
	cs.freePool = blockHeap{less: freeLess, setIdx: func(bm *blockMeta, i int) { bm.freeIdx = i }}
	cs.victims = blockHeap{less: victimLess, setIdx: func(bm *blockMeta, i int) { bm.victIdx = i }}
	return cs
}

// usablePagesPerBlock accounts for pSLC halving.
func (r *Region) usablePagesPerBlock() int {
	if r.cfg.Mode == ModePSLC {
		return r.dev.geom.PagesPerBlock / 2
	}
	return r.dev.geom.PagesPerBlock
}

// pageSlotToPPN maps a usable slot index within a block to a PPN,
// skipping MSB pages in pSLC mode.
func (r *Region) pageSlotToPPN(block, slot int) flash.PPN {
	base := r.dev.geom.FirstPageOfBlock(block)
	if r.cfg.Mode == ModePSLC {
		return base + flash.PPN(slot*2) // even indices are LSB pages
	}
	return base + flash.PPN(slot)
}

// Name returns the region name.
func (r *Region) Name() string { return r.cfg.Name }

// PageSize returns the flash page size backing the region.
func (r *Region) PageSize() int { return r.dev.geom.PageSize }

// OOBSize returns the per-page spare-area size available for ECC.
func (r *Region) OOBSize() int { return r.dev.geom.OOBSize }

// Mode returns the region's IPA mode.
func (r *Region) Mode() IPAMode { return r.cfg.Mode }

// Scheme returns the region's [N×M] scheme.
func (r *Region) Scheme() core.Scheme { return r.cfg.Scheme }

// Storage returns the region's write-reduction scheme.
func (r *Region) Storage() Storage { return r.cfg.Storage }

// LogicalCapacity is the number of logical pages the region can map.
func (r *Region) LogicalCapacity() int { return r.logical }

// MappedPages returns the number of currently mapped logical pages.
func (r *Region) MappedPages() int { return int(r.mapped.Load()) }

// Stats returns a snapshot of the region counters, summed over the
// chip shards. Shards are read one at a time, so the totals are not a
// single atomic cut — same contract as flash.Array.Stats.
func (r *Region) Stats() Stats {
	var total Stats
	for _, c := range r.chips {
		cs := r.byChip[c]
		sim.Lock(&cs.mu)
		total.add(cs.stats)
		cs.mu.Unlock()
	}
	return total
}

// ResetStats zeroes the region counters.
func (r *Region) ResetStats() {
	for _, c := range r.chips {
		cs := r.byChip[c]
		sim.Lock(&cs.mu)
		cs.stats = Stats{}
		cs.mu.Unlock()
	}
}

// lookup reads the current mapping of a logical page without any chip
// lock. The result may be stale by the time the caller acts on it;
// mutating paths revalidate under the owning chip's lock.
func (r *Region) lookup(id core.PageID) (flash.PPN, bool) {
	if e := r.l2p.Lookup(id); e != nil {
		return ppnOf(e.Load())
	}
	return 0, false
}

func (r *Region) chipOf(ppn flash.PPN) *chipState {
	return r.byChip[r.dev.geom.ChipOf(ppn)]
}

// Contains reports whether the logical page is mapped in this region.
func (r *Region) Contains(id core.PageID) bool {
	_, ok := r.lookup(id)
	return ok
}

// PPNOf returns the current physical location of a logical page.
func (r *Region) PPNOf(id core.PageID) (flash.PPN, bool) {
	return r.lookup(id)
}

// ReadInto fetches the logical page into caller-owned buffers: data (page
// size) and/or oob (spare size) may be nil to skip that part of the
// transfer. It allocates nothing; the buffer pool's fetch path calls it.
func (r *Region) ReadInto(w *sim.Worker, id core.PageID, data, oob []byte) error {
	for {
		ppn, ok := r.lookup(id)
		if !ok {
			return fmt.Errorf("%w: %d", ErrUnknownPage, id)
		}
		cs := r.chipOf(ppn)
		sim.Lock(&cs.mu)
		if cur, ok := r.lookup(id); !ok || cur != ppn {
			// Migrated (or freed) between lookup and lock: retry against
			// the new location.
			cs.mu.Unlock()
			continue
		}
		cs.stats.HostReads++
		lat, err := r.dev.arr.ReadInto(w, ppn, data, oob)
		if err == nil {
			cs.stats.ReadTime += lat
		}
		cs.mu.Unlock()
		return err
	}
}

// Write stores a full logical page out-of-place: the page is programmed
// at the region's write point and any previous version is invalidated.
// Garbage collection runs inline when free space is low — exactly the
// interference the paper measures.
func (r *Region) Write(w *sim.Worker, id core.PageID, data, oob []byte) error {
	entry, err := r.l2p.Entry(id)
	if err != nil {
		return fmt.Errorf("noftl: write page %d: %w", id, err)
	}
	prev, existed := ppnOf(entry.Load())
	if !existed {
		if r.mapped.Add(1) > int64(r.logical) {
			r.mapped.Add(-1)
			return fmt.Errorf("%w: %q at %d pages", ErrRegionFull, r.cfg.Name, r.logical)
		}
	}
	seq := r.rr.Add(1) - 1
	start := int(seq % uint64(len(r.chips)))
	chip := r.chips[start]
	if existed {
		chip = r.dev.geom.ChipOf(prev) // keep a page on its chip for locality
	}
	cs := r.byChip[chip]
	sim.Lock(&cs.mu)
	ppn, err := r.allocLocked(w, cs)
	if err != nil {
		// The chosen chip cannot allocate: its share of the region is
		// packed full of valid pages. Physical pools are per chip but
		// capacity is a region-wide promise, and churn makes per-chip
		// load drift (frees are not round-robin), so fail over to the
		// remaining chips before surfacing the error.
		cs.mu.Unlock()
		ppn, cs, err = r.allocFailover(w, chip, start, err)
		if err != nil {
			if !existed {
				r.mapped.Add(-1)
			}
			return err
		}
	}
	// Install the new mapping and retire the previous copy. The lookup
	// above may be stale: GC can have migrated the previous copy, and a
	// racing Free/first-write can have removed or created the entry. The
	// swap returns what is actually replaced and the capacity counter is
	// settled against that.
	var staleCross flash.PPN
	dropCross := false
	if cur, had := ppnOf(entry.Swap(entryOf(ppn))); had {
		if !existed {
			// Two first-writes raced; the entry is already counted.
			r.mapped.Add(-1)
		}
		if r.dev.geom.ChipOf(cur) == cs.chip {
			r.invalidateLocked(cs, cur)
		} else {
			// The previous copy lives on another chip (the loser of a
			// racing pair of first-writes). Chip locks never nest: drop
			// it after releasing this one.
			staleCross, dropCross = cur, true
		}
	} else if existed {
		// Raced with Free: the entry is being re-created.
		r.mapped.Add(1)
	}
	cs.reverse[ppn] = id
	r.bumpValidLocked(cs, ppn)
	cs.stats.OutOfPlaceWrites++
	lat, perr := r.dev.arr.Program(w, ppn, data, oob)
	if perr == nil {
		cs.stats.WriteTime += lat
	}
	cs.mu.Unlock()
	if dropCross {
		r.dropStaleCopy(staleCross, id)
	}
	if perr != nil {
		return fmt.Errorf("noftl: program page %d at ppn %d: %w", id, ppn, perr)
	}
	return nil
}

// allocFailover retries allocation on every chip of the region except
// the one already tried, in round-robin order from the write's original
// cursor position. On success it returns with the winning chip's lock
// held (the caller installs the mapping and unlocks); when no chip can
// allocate, the first chip's error is surfaced.
func (r *Region) allocFailover(w *sim.Worker, tried, start int, firstErr error) (flash.PPN, *chipState, error) {
	for i := 0; i < len(r.chips); i++ {
		c := r.chips[(start+i)%len(r.chips)]
		if c == tried {
			continue
		}
		cs := r.byChip[c]
		sim.Lock(&cs.mu)
		ppn, err := r.allocLocked(w, cs)
		if err == nil {
			return ppn, cs, nil
		}
		cs.mu.Unlock()
	}
	return 0, nil, firstErr
}

// bumpValidLocked counts a new valid page on ppn's block (the caller
// holds the owning chip's lock).
func (r *Region) bumpValidLocked(cs *chipState, ppn flash.PPN) {
	bm := r.blockIndex[r.dev.geom.BlockOf(ppn)]
	bm.valid++
	cs.fixVictim(bm)
}

// invalidateLocked retires one physical copy on cs's chip: the block
// loses a valid page (re-ordering the victim heap) and the reverse entry
// disappears.
func (r *Region) invalidateLocked(cs *chipState, ppn flash.PPN) {
	if bm := r.blockIndex[r.dev.geom.BlockOf(ppn)]; bm != nil && bm.valid > 0 {
		bm.valid--
		cs.fixVictim(bm)
	}
	delete(cs.reverse, ppn)
}

// dropStaleCopy invalidates a copy of id on a chip other than the one
// that just wrote it, unless the mapping moved back there meanwhile.
func (r *Region) dropStaleCopy(ppn flash.PPN, id core.PageID) {
	cs := r.chipOf(ppn)
	sim.Lock(&cs.mu)
	if got, ok := cs.reverse[ppn]; ok && got == id {
		if cur, ok := r.lookup(id); !ok || cur != ppn {
			r.invalidateLocked(cs, ppn)
		}
	}
	cs.mu.Unlock()
}

// CanAppend reports whether the logical page's current physical location
// accepts a write_delta (mode allows it, page is an LSB page, and the
// chip's re-program budget is not exhausted).
func (r *Region) CanAppend(id core.PageID) bool {
	ppn, ok := r.lookup(id)
	if !ok {
		return false
	}
	switch r.cfg.Mode {
	case ModeNone:
		return false
	case ModeOddMLC:
		if !r.dev.geom.IsLSB(ppn) {
			return false
		}
	}
	return r.dev.arr.Appends(ppn) < r.maxAppends()
}

func (r *Region) maxAppends() int {
	if n := r.cfg.Scheme.N; n > 0 {
		return n
	}
	return 0
}

// WriteDelta is the paper's write_delta(LBA, offset, delta_length,
// delta_bytes) command, extended with an optional OOB range so the
// per-record ECC can be appended alongside (Sec. 6.2). The delta is
// ISPP-programmed onto the page's current physical location.
func (r *Region) WriteDelta(w *sim.Worker, id core.PageID, off int, delta []byte, oobOff int, oobDelta []byte) error {
	for {
		ppn, ok := r.lookup(id)
		if !ok {
			return fmt.Errorf("%w: %d", ErrUnknownPage, id)
		}
		if r.cfg.Mode == ModeNone {
			return fmt.Errorf("%w: region %q has IPA disabled", ErrNotAppendable, r.cfg.Name)
		}
		if r.cfg.Mode == ModeOddMLC && !r.dev.geom.IsLSB(ppn) {
			return fmt.Errorf("%w: page %d resides on an MSB page", ErrNotAppendable, id)
		}
		cs := r.chipOf(ppn)
		sim.Lock(&cs.mu)
		if cur, ok := r.lookup(id); !ok || cur != ppn {
			cs.mu.Unlock()
			continue
		}
		lat, err := r.dev.arr.ProgramDelta(w, ppn, off, delta, oobOff, oobDelta)
		if err == nil {
			cs.stats.DeltaWrites++
			cs.stats.DeltaTime += lat
		}
		cs.mu.Unlock()
		if err != nil {
			return fmt.Errorf("noftl: write_delta page %d: %w", id, err)
		}
		return nil
	}
}

// Refresh performs a Correct-and-Refresh re-program of the logical
// page's current physical location with the (ECC-corrected) image —
// restoring leaked charge without relocating the page (Sec. 2.3).
func (r *Region) Refresh(w *sim.Worker, id core.PageID, data, oob []byte) error {
	for {
		ppn, ok := r.lookup(id)
		if !ok {
			return fmt.Errorf("%w: %d", ErrUnknownPage, id)
		}
		cs := r.chipOf(ppn)
		sim.Lock(&cs.mu)
		if cur, ok := r.lookup(id); !ok || cur != ppn {
			cs.mu.Unlock()
			continue
		}
		_, err := r.dev.arr.Reprogram(w, ppn, data, oob)
		cs.mu.Unlock()
		if err != nil {
			return fmt.Errorf("noftl: refresh page %d: %w", id, err)
		}
		return nil
	}
}

// retireActiveLocked demotes the chip's write point into the victim heap
// (it is occupied and may be collected once overwrites invalidate it).
func (r *Region) retireActiveLocked(cs *chipState) {
	act := cs.active
	act.active = false
	cs.active = nil
	cs.addVictim(act)
}

// allocLocked returns the next usable PPN on the chip, collecting one
// block inline when the free pool is at the reserve (the interference
// the paper measures).
func (r *Region) allocLocked(w *sim.Worker, cs *chipState) (flash.PPN, error) {
	usable := r.usablePagesPerBlock()
	maxAttempts := 2*len(cs.blocks) + 4
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if act := cs.active; act != nil {
			if act.next < usable {
				ppn := r.pageSlotToPPN(act.id, act.next)
				act.next++
				return ppn, nil
			}
			r.retireActiveLocked(cs)
		}
		if cs.freeLen() <= gcReserve {
			// The pool is low: reclaim first. Collection migrates into the
			// write point and may leave a partially-filled one behind;
			// reuse it rather than popping another block, or the pool
			// drains.
			err := r.collectLocked(w, cs)
			if a := cs.active; a != nil && a.next < usable {
				continue
			}
			if err != nil && cs.freeLen() == 0 {
				return 0, err
			}
		}
		nb := cs.popFree()
		if nb == nil {
			return 0, fmt.Errorf("%w: chip %d of region %q", ErrNoSpace, cs.chip, r.cfg.Name)
		}
		if cs.active != nil {
			// Collection filled the write point it installed to the last
			// slot; retire it rather than orphaning a block no heap can see.
			r.retireActiveLocked(cs)
		}
		nb.active = true
		nb.next = 0
		nb.valid = 0
		cs.active = nb
	}
	return 0, fmt.Errorf("%w: allocation livelock on chip %d of region %q", ErrNoSpace, cs.chip, r.cfg.Name)
}
