package flash

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"ipa/internal/sim"
)

// Errors reported by the flash array. They model real NAND failure modes:
// violating them on hardware silently corrupts data, so the simulator
// makes them hard failures.
var (
	// ErrBitIncrease: a program operation attempted a 0→1 bit transition,
	// which would require decreasing cell charge — only erase can do that.
	ErrBitIncrease = errors.New("flash: program would require charge decrease (0→1 bit flip)")
	// ErrNotErased: a full-page program was issued to a page that has
	// already been programmed since the last block erase.
	ErrNotErased = errors.New("flash: page already programmed; erase block first")
	// ErrMSBAppend: an ISPP re-program (write_delta) was issued to an MLC
	// MSB page; interference makes appends unsafe there (Appendix C.2).
	ErrMSBAppend = errors.New("flash: delta program on MLC MSB page")
	// ErrProgramOrder: MLC pages within a block must be programmed in
	// ascending order to bound program interference.
	ErrProgramOrder = errors.New("flash: out-of-order program within block")
	// ErrAppendLimit: the page exceeded its re-program budget.
	ErrAppendLimit = errors.New("flash: ISPP re-program limit exceeded for page")
	// ErrWornOut: the block exceeded its P/E endurance.
	ErrWornOut = errors.New("flash: block worn out")
	// ErrBounds: an address or length was outside the device.
	ErrBounds = errors.New("flash: address out of bounds")
	// ErrUncorrectable is returned by the ECC layer above when injected
	// bit errors exceed correction capability; defined here for sharing.
	ErrUncorrectable = errors.New("flash: uncorrectable bit errors")
)

// pageState tracks the lifecycle of one physical page.
type pageState uint8

const (
	pageErased pageState = iota
	pageProgrammed
)

// Config assembles everything needed to build an Array.
type Config struct {
	Geometry Geometry
	Timing   Timing

	// MaxAppends bounds ISPP re-programs per page after the initial
	// program (the paper uses N=2..3 on MLC, more on SLC). Zero means
	// "use the cell-type default" (8 for SLC, 3 for MLC LSB).
	MaxAppends int

	// Endurance is the P/E cycle budget per block; zero means the
	// cell-type default. Exceeding it returns ErrWornOut on erase.
	Endurance int

	// StrictProgramOrder enforces ascending page programming within a
	// block (a hard requirement on MLC; we default it on for both).
	StrictProgramOrder bool

	// BitErrorRate is the probability that any given *read* of a page
	// flips one bit (retention/read-disturb model). Errors are injected
	// into the returned copy, not the stored data, and are correctable by
	// the ECC layer. Zero disables injection.
	BitErrorRate float64

	// InterferenceRate is the probability that a delta program on an LSB
	// page flips one bit in the delta region of a *neighbouring MSB* page
	// (program interference, Appendix C.2). Zero disables injection.
	InterferenceRate float64

	// Seed makes fault injection deterministic.
	Seed int64
}

// DefaultMaxAppends returns the re-program budget for the geometry.
func (c Config) DefaultMaxAppends() int {
	if c.MaxAppends > 0 {
		return c.MaxAppends
	}
	if c.Geometry.Cell == SLC {
		return 8
	}
	return 3
}

func (c Config) endurance() int {
	if c.Endurance > 0 {
		return c.Endurance
	}
	switch c.Geometry.Cell {
	case SLC:
		return EnduranceSLC
	case TLC:
		return EnduranceTLC
	default:
		return EnduranceMLC
	}
}

// Stats counts physical operations performed by the array.
type Stats struct {
	Reads         uint64
	Programs      uint64 // full-page programs
	DeltaPrograms uint64 // ISPP re-programs (write_delta)
	Erases        uint64
	Refreshes     uint64 // Correct-and-Refresh re-programs
	BytesRead     uint64
	BytesWritten  uint64
	BitErrors     uint64 // injected on reads
	Interference  uint64 // injected by delta programs
	LeakedBits    uint64 // persistent retention leaks injected

	// ResidentBytes is a gauge ResetStats leaves alone: the memory of the
	// blocks holding a programmed page right now (see blockMem).
	ResidentBytes uint64
}

// add accumulates another counter cell (shard aggregation).
func (s *Stats) add(o Stats) {
	s.Reads += o.Reads
	s.Programs += o.Programs
	s.DeltaPrograms += o.DeltaPrograms
	s.Erases += o.Erases
	s.Refreshes += o.Refreshes
	s.BytesRead += o.BytesRead
	s.BytesWritten += o.BytesWritten
	s.BitErrors += o.BitErrors
	s.Interference += o.Interference
	s.LeakedBits += o.LeakedBits
}

// blockMem is the memory of one erase unit: PagesPerBlock × (PageSize +
// OOBSize) bytes, each page followed by its spare area so that a read
// streams one contiguous run. A page's bytes exist from its program to its
// block's erase: an erased block has no buffer, and in a block that has
// one the bytes of a page not yet programmed are whatever the buffer's
// last use left there. Nothing ever fills a block with 0xFF, so every path
// that can meet an erased page asks the page state, never the bytes.
// programmed counts the pages programmed since the erase; the read path
// asks it first, because a full block has no erased page to look for and
// the count shares a cache line with buf.
//
// Where a block buffer lives is chosen by build (blockmem_mmap.go,
// blockmem_heap.go): an anonymous mapping outside the Go heap, owned by
// its chip's blockArena and unmapped when the Array is collected, or a
// heap slice under the race detector and on targets without mmap. Either
// way one rule keeps it safe: every read or write of a buffer happens
// under its chip's sh.mu, and no slice of it outlives that critical
// section — Read and ReadInto copy out, Program, ProgramDelta and
// Reprogram copy in. The shard pointer those methods hold until
// sh.mu.Unlock keeps the shard, and through sh.arena the arena, reachable
// for the whole access, so its finalizer cannot unmap a buffer in use.
type blockMem struct {
	buf        []byte
	programmed int
}

// mappedBytes is the memory of the block buffers mapped outside the Go
// heap, by every Array of the process, that is not yet unmapped. It
// stays 0 where buffers live on the heap.
var mappedBytes atomic.Int64

// chipShard is the state of one flash chip (die). Every field a flash
// operation touches is partitioned by PPN→chip, so each chip carries its
// own mutex, fault-injection RNG and stats cell: operations on different
// chips never contend, matching the I/O parallelism of the real array.
type chipShard struct {
	mu       chipLock
	blocks   []blockMem  // per block in chip
	free     [][]byte    // buffers of erased blocks, for the next block programmed
	arena    *blockArena // owns every buffer in blocks and free
	state    []pageState // per page in chip
	appends  []uint16    // ISPP re-programs since the initial program
	lastProg []int16     // per block in chip: highest programmed page (-1 = none)
	erases   []uint32    // per block in chip: P/E count
	stats    Stats
	rng      *rand.Rand

	// Pad shards apart so two chips' mutexes and counters never share a
	// cache line (the shards live contiguously in Array.shards).
	_ [64]byte
}

// Array is a simulated flash device: a set of chips addressed by PPN,
// with per-chip queueing on a shared sim.Timeline. State is sharded per
// chip (one lock and stats cell each); all methods are safe for
// concurrent use and operations on distinct chips run in parallel.
type Array struct {
	cfg  Config
	geom Geometry

	// Resolved once at construction so the hot paths never re-derive
	// them under a shard lock.
	maxAppends   int
	endurance    int
	pagesPerChip int
	totalPages   int
	chipShift    int  // log2(pagesPerChip) when it is a power of two, else -1
	blockShift   int  // log2(pages per block) when it is a power of two, else -1
	allLSB       bool // SLC: every page accepts ISPP re-programs
	interfere    bool // interference injection armed (rate > 0, MLC/TLC)

	shards []chipShard

	tl *sim.Timeline // chip queueing; may be nil (no timing)
}

// New builds an array. If tl is non-nil it must have at least
// Geometry.Chips resources; flash operations then occupy chip resources
// and report latencies.
func New(cfg Config, tl *sim.Timeline) (*Array, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if tl != nil && tl.Resources() < cfg.Geometry.Chips {
		return nil, fmt.Errorf("flash: timeline has %d resources, need %d chips", tl.Resources(), cfg.Geometry.Chips)
	}
	g := cfg.Geometry
	a := &Array{
		cfg:          cfg,
		geom:         g,
		maxAppends:   cfg.DefaultMaxAppends(),
		endurance:    cfg.endurance(),
		pagesPerChip: g.PagesPerChip(),
		totalPages:   g.TotalPages(),
		chipShift:    log2Exact(g.PagesPerChip()),
		blockShift:   log2Exact(g.PagesPerBlock),
		allLSB:       g.Cell.PagesPerWordline() == 1,
		interfere:    cfg.InterferenceRate > 0 && g.Cell != SLC,
		shards:       make([]chipShard, g.Chips),
		tl:           tl,
	}
	for c := range a.shards {
		sh := &a.shards[c]
		sh.blocks = make([]blockMem, g.BlocksPerChip)
		sh.arena = newBlockArena()
		sh.state = make([]pageState, a.pagesPerChip)
		sh.appends = make([]uint16, a.pagesPerChip)
		sh.lastProg = make([]int16, g.BlocksPerChip)
		sh.erases = make([]uint32, g.BlocksPerChip)
		// Distinct deterministic stream per chip: fault injection stays
		// reproducible for a given seed without serialising chips on a
		// shared RNG.
		sh.rng = rand.New(rand.NewSource(cfg.Seed + int64(uint64(c+1)*0x9E3779B97F4A7C15)))
		for i := range sh.lastProg {
			sh.lastProg[i] = -1
		}
	}
	return a, nil
}

// Geometry returns the array's geometry.
func (a *Array) Geometry() Geometry { return a.geom }

// shardOf returns the chip shard holding p plus p's page index within it.
// The chip index feeds the shard lock's address, so the common
// power-of-two geometry takes a shift/mask instead of a 64-bit divide.
func (a *Array) shardOf(p PPN) (*chipShard, int) {
	if a.chipShift >= 0 {
		return &a.shards[int(p)>>a.chipShift], int(p) & (a.pagesPerChip - 1)
	}
	chip := int(p) / a.pagesPerChip
	return &a.shards[chip], int(p) - chip*a.pagesPerChip
}

// shardOfBlock returns the chip shard holding the global block index plus
// the block's index within the chip.
func (a *Array) shardOfBlock(block int) (*chipShard, int) {
	return &a.shards[block/a.geom.BlocksPerChip], block % a.geom.BlocksPerChip
}

// Stats returns a snapshot of the operation counters, aggregated over
// all chip shards.
func (a *Array) Stats() Stats {
	var total Stats
	for c := range a.shards {
		sh := &a.shards[c]
		sh.mu.Lock()
		total.add(sh.stats)
		for i := range sh.blocks {
			total.ResidentBytes += uint64(len(sh.blocks[i].buf))
		}
		sh.mu.Unlock()
	}
	return total
}

// ResetStats zeroes the operation counters (wear state is kept).
func (a *Array) ResetStats() {
	for c := range a.shards {
		sh := &a.shards[c]
		sh.mu.Lock()
		sh.stats = Stats{}
		sh.mu.Unlock()
	}
}

// EraseCount returns the P/E cycles consumed by the global block index.
func (a *Array) EraseCount(block int) uint32 {
	sh, lb := a.shardOfBlock(block)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.erases[lb]
}

// MaxEraseCount returns the highest per-block P/E count — the wear
// hotspot that bounds device lifetime.
func (a *Array) MaxEraseCount() uint32 {
	var max uint32
	for c := range a.shards {
		sh := &a.shards[c]
		sh.mu.Lock()
		for _, e := range sh.erases {
			if e > max {
				max = e
			}
		}
		sh.mu.Unlock()
	}
	return max
}

// Appends returns the number of ISPP re-programs the page has absorbed
// since its initial program.
func (a *Array) Appends(p PPN) int {
	sh, lp := a.shardOf(p)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return int(sh.appends[lp])
}

// MaxAppends returns the per-page ISPP re-program budget configured for
// the array.
func (a *Array) MaxAppends() int { return a.maxAppends }

// IsErased reports whether the page is in the erased state.
func (a *Array) IsErased(p PPN) bool {
	sh, lp := a.shardOf(p)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.state[lp] == pageErased
}

// checkPPN is inlinable: the error construction lives in ppnError so the
// hot path pays one compare against the precomputed page count.
func (a *Array) checkPPN(p PPN) error {
	if int(p) >= a.totalPages {
		return a.ppnError(p)
	}
	return nil
}

// ppnError is kept out of line (and out of checkPPN's inlining budget)
// so the bounds check itself inlines into every device entry point.
//
//go:noinline
func (a *Array) ppnError(p PPN) error {
	return fmt.Errorf("%w: ppn %d of %d", ErrBounds, p, a.totalPages)
}

// blockOf splits a chip page index into its block within the chip and the
// page's index within that block — like shardOf, a shift and a mask on
// the usual power-of-two block size.
func (a *Array) blockOf(lp int) (lb, pi int) {
	ppb := a.geom.PagesPerBlock
	if a.blockShift >= 0 {
		return lp >> a.blockShift, lp & (ppb - 1)
	}
	lb = lp / ppb
	return lb, lp - lb*ppb
}

// pageIn returns the data and the spare area of page pi in a block's
// buffer.
func (a *Array) pageIn(buf []byte, pi int) (data, spare []byte) {
	d := pi * (a.geom.PageSize + a.geom.OOBSize)
	s := d + a.geom.PageSize
	return buf[d:s], buf[s : s+a.geom.OOBSize]
}

// storedPage returns the bytes of chip page lp, which is programmed.
func (a *Array) storedPage(sh *chipShard, lp int) (data, spare []byte) {
	lb, pi := a.blockOf(lp)
	return a.pageIn(sh.blocks[lb].buf, pi)
}

// startPage brings the erased page pi of block lb into being for a
// program that can no longer fail, and returns its bytes — stale ones: the
// caller writes all of them. The first page of a block gives the block a
// buffer, a freed one if the chip has any. The caller holds sh.mu.
func (a *Array) startPage(sh *chipShard, lb, pi int) (data, spare []byte) {
	b := &sh.blocks[lb]
	if b.buf == nil {
		if n := len(sh.free); n > 0 {
			b.buf, sh.free = sh.free[n-1], sh.free[:n-1]
		} else {
			b.buf = sh.arena.alloc(a.geom.PagesPerBlock * (a.geom.PageSize + a.geom.OOBSize))
		}
	}
	b.programmed++
	return a.pageIn(b.buf, pi)
}

func (a *Array) occupy(w *sim.Worker, p PPN, d time.Duration) time.Duration {
	if a.tl == nil || w == nil {
		return 0
	}
	return w.Use(a.geom.ChipOf(p), d)
}

// Read copies the page's data and OOB into fresh slices. If w is non-nil
// the chip occupancy and transfer time are charged to the worker. The
// returned latency includes queueing. Injected bit errors appear only in
// the returned copy.
func (a *Array) Read(w *sim.Worker, p PPN) (data, oob []byte, lat time.Duration, err error) {
	data = make([]byte, a.geom.PageSize)
	oob = make([]byte, a.geom.OOBSize)
	lat, err = a.ReadInto(w, p, data, oob)
	if err != nil {
		return nil, nil, 0, err
	}
	return data, oob, lat, nil
}

// ReadInto is the zero-allocation read: the page's data and OOB are
// copied into the caller's buffers (either may be nil to discard that
// part; non-nil buffers must be exactly page/OOB sized). The physical
// transfer always moves the whole page plus spare area regardless, so
// stats and latency are identical to Read. Injected bit errors appear
// only in the caller's data buffer, never in the stored image.
func (a *Array) ReadInto(w *sim.Worker, p PPN, data, oob []byte) (lat time.Duration, err error) {
	if err := a.checkPPN(p); err != nil {
		return 0, err
	}
	if data != nil && len(data) != a.geom.PageSize {
		return 0, fmt.Errorf("%w: read buffer %d bytes, page is %d", ErrBounds, len(data), a.geom.PageSize)
	}
	if oob != nil && len(oob) != a.geom.OOBSize {
		return 0, fmt.Errorf("%w: oob buffer %d bytes, spare is %d", ErrBounds, len(oob), a.geom.OOBSize)
	}
	sh, lp := a.shardOf(p)
	sh.mu.Lock()
	lb, pi := a.blockOf(lp)
	if b := &sh.blocks[lb]; b.programmed < a.geom.PagesPerBlock && sh.state[lp] == pageErased {
		// No bytes to copy: the caller gets what uncharged cells read as.
		fillErased(data)
		fillErased(oob)
	} else {
		// A nil buffer discards that part: it takes no bytes.
		page, spare := a.pageIn(b.buf, pi)
		copy(data, page)
		copy(oob, spare)
	}
	sh.stats.Reads++
	// The transfer moves data plus spare area; count both (the OOB bytes
	// ride along on every page read).
	sh.stats.BytesRead += uint64(a.geom.PageSize + a.geom.OOBSize)
	inject := a.cfg.BitErrorRate > 0 && sh.rng.Float64() < a.cfg.BitErrorRate
	var bitPos int
	if inject {
		bitPos = sh.rng.Intn(a.geom.PageSize * 8)
		sh.stats.BitErrors++
	}
	sh.mu.Unlock()
	if inject && data != nil {
		data[bitPos/8] ^= 1 << (bitPos % 8)
	}
	xfer := time.Duration(a.geom.PageSize+a.geom.OOBSize) * a.cfg.Timing.TransferPerByte
	lat = a.occupy(w, p, a.cfg.Timing.Read+xfer)
	return lat, nil
}

// Program writes a full page (and optionally its OOB area, if oob is
// non-nil) to an erased page. MLC program order within the block is
// enforced when configured.
func (a *Array) Program(w *sim.Worker, p PPN, data, oob []byte) (lat time.Duration, err error) {
	if err := a.checkPPN(p); err != nil {
		return 0, err
	}
	if len(data) != a.geom.PageSize {
		return 0, fmt.Errorf("%w: program %d bytes, page is %d", ErrBounds, len(data), a.geom.PageSize)
	}
	if oob != nil && len(oob) > a.geom.OOBSize {
		return 0, fmt.Errorf("%w: oob %d bytes, spare is %d", ErrBounds, len(oob), a.geom.OOBSize)
	}
	sh, lp := a.shardOf(p)
	sh.mu.Lock()
	if sh.state[lp] != pageErased {
		sh.mu.Unlock()
		return 0, fmt.Errorf("%w: ppn %d", ErrNotErased, p)
	}
	lb, pi := a.blockOf(lp)
	if a.cfg.StrictProgramOrder {
		if int16(pi) <= sh.lastProg[lb] {
			last := sh.lastProg[lb]
			sh.mu.Unlock()
			return 0, fmt.Errorf("%w: page %d after %d in block %d", ErrProgramOrder, pi, last, a.geom.BlockOf(p))
		}
		sh.lastProg[lb] = int16(pi)
	}
	page, spare := a.startPage(sh, lb, pi)
	copy(page, data)
	// Whatever of the spare area the caller does not program stays erased.
	fillErased(spare[copy(spare, oob):])
	sh.state[lp] = pageProgrammed
	sh.appends[lp] = 0
	sh.stats.Programs++
	sh.stats.BytesWritten += uint64(len(data))
	sh.mu.Unlock()
	xfer := time.Duration(len(data)+len(oob)) * a.cfg.Timing.TransferPerByte
	lat = a.occupy(w, p, a.geom.ProgramTime(a.cfg.Timing, p)+xfer)
	return lat, nil
}

// ProgramDelta is the paper's write_delta: an ISPP re-program of a byte
// range within an already-programmed page (plus, optionally, a range of
// the OOB area for the delta's ECC). Every written bit must be a 1→0
// transition or identity; otherwise ErrBitIncrease is returned and
// nothing is written. Validation runs word-at-a-time (uint64), so the
// charge-rule check costs ~len/8 compares on the all-legal fast path.
func (a *Array) ProgramDelta(w *sim.Worker, p PPN, off int, delta []byte, oobOff int, oobDelta []byte) (lat time.Duration, err error) {
	if err := a.checkPPN(p); err != nil {
		return 0, err
	}
	ps := a.geom.PageSize
	if off < 0 || off+len(delta) > ps {
		return 0, fmt.Errorf("%w: delta [%d,%d) on %dB page", ErrBounds, off, off+len(delta), ps)
	}
	if oobOff < 0 || oobOff+len(oobDelta) > a.geom.OOBSize {
		return 0, fmt.Errorf("%w: oob delta [%d,%d) on %dB spare", ErrBounds, oobOff, oobOff+len(oobDelta), a.geom.OOBSize)
	}
	if !a.allLSB && !a.geom.IsLSB(p) {
		return 0, fmt.Errorf("%w: ppn %d", ErrMSBAppend, p)
	}
	sh, lp := a.shardOf(p)
	sh.mu.Lock()
	if int(sh.appends[lp]) >= a.maxAppends {
		n := sh.appends[lp]
		sh.mu.Unlock()
		return 0, fmt.Errorf("%w: ppn %d at %d appends", ErrAppendLimit, p, n)
	}
	// A delta into a still-erased page is a legal initial partial program
	// (the cells start all-1, so any pattern is a 1→0 transition): PDL log
	// blocks are populated this way, one record batch at a time. The page
	// joins the programmed population so IsErased/scan-based rebuild see
	// it, and MLC program order is enforced exactly as for a full Program.
	lb, pi := a.blockOf(lp)
	freshProgram := sh.state[lp] == pageErased
	if freshProgram && a.cfg.StrictProgramOrder && int16(pi) <= sh.lastProg[lb] {
		last := sh.lastProg[lb]
		sh.mu.Unlock()
		return 0, fmt.Errorf("%w: page %d after %d in block %d", ErrProgramOrder, pi, last, a.geom.BlockOf(p))
	}
	var page, spare []byte
	if freshProgram {
		// Nothing below can refuse a program of uncharged cells, so the
		// page may come into being here: that one page, erased.
		page, spare = a.startPage(sh, lb, pi)
		fillErased(page)
		fillErased(spare)
	} else {
		page, spare = a.pageIn(sh.blocks[lb].buf, pi)
	}
	if i := chargeViolation(page[off:off+len(delta)], delta); i >= 0 {
		old, b := page[off+i], delta[i]
		sh.mu.Unlock()
		return 0, fmt.Errorf("%w: ppn %d offset %d: %#02x over %#02x", ErrBitIncrease, p, off+i, b, old)
	}
	if len(oobDelta) > 0 {
		if i := chargeViolation(spare[oobOff:oobOff+len(oobDelta)], oobDelta); i >= 0 {
			sh.mu.Unlock()
			return 0, fmt.Errorf("%w: ppn %d oob offset %d", ErrBitIncrease, p, oobOff+i)
		}
		copy(spare[oobOff:], oobDelta)
	}
	if freshProgram {
		if a.cfg.StrictProgramOrder {
			sh.lastProg[lb] = int16(pi)
		}
		sh.state[lp] = pageProgrammed
	}
	copy(page[off:], delta)
	sh.appends[lp]++
	sh.stats.DeltaPrograms++
	sh.stats.BytesWritten += uint64(len(delta) + len(oobDelta))
	// Program interference: flip a bit in the same byte range of an
	// adjacent MSB page (harmless to IPA because MSB pages are always
	// rewritten whole, Appendix C.2 — but the model injects it so the
	// claim is actually exercised). The neighbour shares p's block, hence
	// its chip shard.
	if a.interfere && sh.rng.Float64() < a.cfg.InterferenceRate {
		if pi+1 < a.geom.PagesPerBlock && !a.geom.IsLSB(p+1) && sh.state[lp+1] == pageProgrammed && len(delta) > 0 {
			victim, _ := a.pageIn(sh.blocks[lb].buf, pi+1)
			bit := sh.rng.Intn(len(delta) * 8)
			victim[off+bit/8] &^= 1 << (bit % 8) // interference only adds charge
			sh.stats.Interference++
		}
	}
	sh.mu.Unlock()
	if a.tl != nil && w != nil {
		xfer := time.Duration(len(delta)+len(oobDelta)) * a.cfg.Timing.TransferPerByte
		lat = w.Use(a.geom.ChipOf(p), a.cfg.Timing.Delta+xfer)
	}
	return lat, nil
}

// Erase resets every page of the global block index to the erased state
// and consumes one P/E cycle. ErrWornOut is returned once the endurance
// budget is exhausted (the erase still happens; real worn blocks are
// retired by the management layer).
func (a *Array) Erase(w *sim.Worker, block int) (lat time.Duration, err error) {
	if block < 0 || block >= a.geom.TotalBlocks() {
		return 0, fmt.Errorf("%w: block %d of %d", ErrBounds, block, a.geom.TotalBlocks())
	}
	sh, lb := a.shardOfBlock(block)
	first := lb * a.geom.PagesPerBlock // first page of block within chip
	n := a.geom.PagesPerBlock
	sh.mu.Lock()
	for i := first; i < first+n; i++ {
		sh.state[i] = pageErased
		sh.appends[i] = 0
	}
	if b := &sh.blocks[lb]; b.buf != nil {
		sh.free = append(sh.free, b.buf)
		*b = blockMem{}
	}
	sh.lastProg[lb] = -1
	sh.erases[lb]++
	sh.stats.Erases++
	worn := int(sh.erases[lb]) > a.endurance
	sh.mu.Unlock()
	lat = a.occupy(w, a.geom.FirstPageOfBlock(block), a.cfg.Timing.Erase)
	if worn {
		return lat, fmt.Errorf("%w: block %d", ErrWornOut, block)
	}
	return lat, nil
}

// Reprogram performs a Correct-and-Refresh style ISPP re-program
// (Sec. 2.3 / [35]): the corrected image is programmed over the page in
// place, restoring leaked charge. Every bit must be identical or a 1→0
// transition relative to the stored state — exactly the property that
// makes retention errors (charge leaks, 0→1 flips) repairable in place.
// The operation does not consume the page's append budget.
func (a *Array) Reprogram(w *sim.Worker, p PPN, data, oob []byte) (lat time.Duration, err error) {
	if err := a.checkPPN(p); err != nil {
		return 0, err
	}
	if len(data) != a.geom.PageSize {
		return 0, fmt.Errorf("%w: reprogram %d bytes", ErrBounds, len(data))
	}
	if oob != nil && len(oob) != a.geom.OOBSize {
		return 0, fmt.Errorf("%w: reprogram oob %d bytes", ErrBounds, len(oob))
	}
	sh, lp := a.shardOf(p)
	sh.mu.Lock()
	if sh.state[lp] != pageProgrammed {
		sh.mu.Unlock()
		return 0, fmt.Errorf("flash: reprogram of erased ppn %d", p)
	}
	page, spare := a.storedPage(sh, lp)
	if i := chargeViolation(page, data); i >= 0 {
		sh.mu.Unlock()
		return 0, fmt.Errorf("%w: ppn %d offset %d (unrepairable in place)", ErrBitIncrease, p, i)
	}
	if oob != nil {
		if i := chargeViolation(spare, oob); i >= 0 {
			sh.mu.Unlock()
			return 0, fmt.Errorf("%w: ppn %d oob offset %d", ErrBitIncrease, p, i)
		}
	}
	copy(page, data)
	copy(spare, oob)
	sh.stats.Refreshes++
	sh.stats.BytesWritten += uint64(len(data) + len(oob))
	sh.mu.Unlock()
	xfer := time.Duration(len(data)+len(oob)) * a.cfg.Timing.TransferPerByte
	lat = a.occupy(w, p, a.geom.ProgramTime(a.cfg.Timing, p)+xfer)
	return lat, nil
}

// InjectLeak simulates charge leakage (a retention error): up to n
// stored 0-bits of the page flip to 1 — the direction real charge loss
// takes, and the one Correct-and-Refresh can repair. It returns how many
// bits actually leaked (fewer if the page has few programmed bits).
func (a *Array) InjectLeak(p PPN, n int) (int, error) {
	if err := a.checkPPN(p); err != nil {
		return 0, err
	}
	sh, lp := a.shardOf(p)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.state[lp] == pageErased {
		return 0, nil // uncharged cells have nothing to leak
	}
	page, _ := a.storedPage(sh, lp)
	leaked := 0
	for try := 0; try < 64*n && leaked < n; try++ {
		bit := sh.rng.Intn(len(page) * 8)
		if page[bit/8]>>(bit%8)&1 == 0 {
			page[bit/8] |= 1 << (bit % 8)
			leaked++
		}
	}
	sh.stats.LeakedBits += uint64(leaked)
	return leaked, nil
}
