// Package buffer implements the database buffer pool: frames with
// pin/unpin, CLOCK replacement, dirty tracking and a page-cleaner
// emulation with Shore-MT's *eager* eviction strategy (flush when the
// dirty fraction passes a threshold, 12.5% hardcoded in Shore-MT) or the
// paper's *non-eager* alternative (Sec. 8.4, Tables 9 vs 10).
//
// The pool is where the paper's approach plugs in: a frame that is being
// changed carries, next to the current logical image, the logical image
// as of the last flush. On eviction the storage manager diffs the two to
// decide between an In-Place Append (write_delta) and an out-of-place
// page write. The second image is captured by the first exclusive Latch
// after a load or a flush (see ImageState), so a page that is only read
// costs one copy — the fetch — and one buffer.
//
// The latch rule. Page bytes change only between Latch and Unlatch. A
// pin alone entitles its holder to read under RLatch, not to write: the
// capture happens in Latch, so a change made without it is taken for
// part of the flushed image and never reaches storage. That holds for a
// page from GetNew too: formatting it is a change like any other.
//
// Concurrency model. The pool is split into Config.Shards independent
// shards, frames partitioned by hash(PageID). Each shard owns its own
// mutex, frame slice, CLOCK hand, dirty counter and stats cell — the same
// padded-shard pattern as the flash array's per-chip state. The page
// table is one flat array for the whole pool (core.PageTable) of atomic
// frame pointers.
//
// A buffer hit takes no mutex. It loads the page's table entry, pins the
// frame by compare-and-swap on its pin count, and then checks that the
// frame is not loading and still holds the page; if either check fails it
// drops the pin and takes the locked path. It sets the frame's reference
// bit only when the bit is clear, and a clean Unpin — or a dirty one of a
// frame already dirty — is one atomic decrement. So two clients hitting
// different pages write no common cache line, and two hitting the same
// page share only that frame's first line, its pin and latch words.
//
// An index step can take no pin at all. An index publishes an immutable
// decoded copy of an inner node on its frame (Route); a descent finds the
// frame with Peek, which reads the table entry and nothing else, uses the
// copy only if RouteFor finds it decoded from that page at the frame's
// current version, and records the visit with Touch (reference bit, hit
// count). The copy dies with any exclusive latch and any (un)binding, and
// every unbinding raises the version, so two clients descending through
// the same root write none of its lines.
//
// The shard mutex guards what changes a frame's binding or its dirty
// state: misses, the clean→dirty transition in Unpin (the one event
// that raises the dirty count, so the one that checks the cleaner
// threshold), eviction, the cross-shard steal, Drop, and the cleaner and
// checkpoint sweeps. It guards the table entries of the page ids routed
// to the shard (writes only; hits read them atomically) and the frames'
// dirty flag, recLSN, CLOCK position and load protocol. Before the holder
// unbinds or rebinds a frame it *fences* it: compare-and-swap of the pin
// count from 0 to -1. A fence fails while anyone holds a pin, so a pinned
// frame keeps its ID; a hit that finds the fence, or a loading frame,
// falls back to the locked path. A fence is lifted by the binding it
// protects (the pin count becomes 1, the binder's pin) or by storing 0
// when the frame is left free, both before the mutex is released —
// except for a frame in transit between shards, which is in no shard's
// ring meanwhile. The one unbind without a fence is that of a failed
// load, whose waiters may hold pins: it happens while loading is still
// set, and a hit reads the ID only after it read loading clear.
//
// Page *contents* (Data, Flushed and its ImageState, UsedSlots, New) are
// guarded by a per-frame reader/writer latch. All store I/O — fetches on
// a miss, flushes on eviction, cleaning — runs outside the shard mutexes,
// so fetch/flush on different pages (and different regions) proceed in
// parallel. The latch order is strict: a frame latch is never acquired
// while a shard mutex is held, a shard mutex may be acquired while a
// latch is held, and no two shard mutexes are ever held at once.
//
// Determinism. Shards=1 (the default) degenerates to a single global
// CLOCK whose eviction order is bit-identical to the historical
// unsharded pool. The paper's experiments depend on that: eviction order
// decides which flushes happen and when, and therefore the update-size
// distributions of Tables 1/9/10/11. Multi-shard pools are for the
// concurrency benchmarks and production-style deployments, where
// shard-local CLOCK ordering is an accepted (and documented) deviation.
package buffer

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"ipa/internal/core"
	"ipa/internal/sim"
)

// Errors of the buffer pool.
var (
	ErrNoFrames = errors.New("buffer: all frames pinned")
	ErrPinned   = errors.New("buffer: page still pinned")
)

// Store is the storage manager the pool delegates page movement to.
type Store interface {
	// Fetch reads the logical image of a page into buf (applying any
	// delta-records) and returns the number of delta-record slots already
	// used on the physical page.
	Fetch(w *sim.Worker, id core.PageID, buf []byte) (usedSlots int, err error)
	// Flush persists a frame, choosing between write_delta and an
	// out-of-place write; the pool calls it with the frame's exclusive
	// latch held. When it wrote fr.Data it must call fr.MarkFlushed,
	// update fr.UsedSlots and clear fr.New.
	Flush(w *sim.Worker, fr *Frame) error
}

// ImageState says what a frame knows about the page's image in storage.
type ImageState uint8

const (
	// ImageNone: the page has no copy in storage (GetNew, or the frame is
	// not bound). Its first flush writes the whole page out of place.
	ImageNone ImageState = iota
	// ImageClean: Data has equalled the stored logical image ever since
	// the load or the last flush, and Flushed holds nothing. The next
	// Latch captures Data into Flushed before anything changes. A flush
	// that finds a dirty frame in this state has nothing to write: the
	// Unpin(dirty) that made it dirty landed after a flush that had
	// claimed the frame earlier and already wrote the change.
	ImageClean
	// ImageCaptured: Flushed is the logical image as of the load or the
	// last flush; Data may differ from it.
	ImageCaptured
)

// Frame is one buffer slot. Its first cache line holds everything a hit
// and the latch that follows it touch — pin, reference bit, load flag,
// dirty flag, ID, latch, version and route — and a frame is exactly three
// lines long (TestFrameOwnsItsCacheLines), an allocation size class the
// runtime places on line boundaries: a client pinning one frame writes no
// line of a frame next to it in memory, and a CLOCK sweep reads one line
// a frame.
type Frame struct {
	// pin counts the holders of the frame; -1 is the fence (see the
	// package doc). ref is the CLOCK reference bit.
	pin atomic.Int32
	ref atomic.Bool

	// Miss-fetch protocol: the loader sets loading and fetches outside
	// the shard mutex; concurrent getters pin the frame and wait on
	// loadDone. A second getter is rare, so the channel is made by the
	// first one that finds loading set (under the shard mutex) and the
	// loader closes it only if it is there: an uncontended miss
	// allocates none. loading is stored false last, so a hit that reads
	// it false sees the finished load.
	loading atomic.Bool

	// dirty is set by the Unpin that makes the frame dirty and cleared by
	// a flush claim, both under the shard mutex; a pin holder reads it
	// without, since no claim takes a pinned frame.
	dirty atomic.Bool

	ID core.PageID

	// latch guards the page contents (Data, Flushed, image, UsedSlots,
	// New) against concurrent access: engine readers hold it shared,
	// engine mutators and the flush paths hold it exclusively. Mutators
	// take it through Latch/TryLatch and change Data only while they hold
	// it — that is where the flushed image is captured; the flush paths
	// lock it directly and never capture. Every acquire goes through
	// sim.Lock or sim.RLock, which yield before they park. Pin the frame
	// before latching; never latch while holding a shard mutex.
	latch sync.RWMutex

	// ver is the frame's optimistic-lock-coupling version word, on the
	// line of the pin so the two hot fields share a frame, not a shard.
	// The upper 48 bits hold a binding epoch, the frame's own, raised
	// whenever the frame is (re)bound to a page id: a frame's versions
	// only grow, so one read against an earlier binding never validates
	// against a later one, and a miss writes no pool-wide counter. The
	// epoch is raised again when the frame is unbound, so a version read
	// while the frame held a page never validates once it does not. The
	// low 16 bits count in-place modifications, bumped by content
	// mutators *before* they release their exclusive latch. Flushes leave
	// ver alone: they copy the logical image out but do not change it.
	ver atomic.Uint64
	// route is the decoded copy a client published (SetRoute), read with
	// ver by RouteFor; both sit on the first line because a reader loads
	// them together. Latch, TryLatch and every (un)binding drop it.
	route atomic.Pointer[Route]

	// home is the shard whose frame slice (and mutex) currently owns this
	// frame. It only changes while the frame is free and unpinned, under
	// the owning shard's mutex (see stealFrame); holders of a pin may
	// read it directly, everyone else goes through lockHome.
	home atomic.Pointer[poolShard]

	// Data is the current logical image. It is allocated when the frame
	// is first bound to a page (Get miss / GetNew) and then kept for the
	// frame's life, so pool memory follows the working set rather than
	// the configured capacity; a never-bound frame has Data == nil.
	Data []byte
	// Flushed is the logical image as of the last flush, valid while
	// Image() is ImageCaptured; in the other states only its capacity is
	// kept. Diffing Data against Flushed yields the exact <value,offset>
	// pairs of the delta-record.
	Flushed []byte
	image   ImageState
	// New marks a freshly allocated page with no physical copy yet; its
	// first write is always out-of-place (IPA is not applicable to newly
	// allocated pages).
	New bool
	// UsedSlots is N_E in the paper: delta-records already programmed on
	// the physical page.
	UsedSlots int
	// recLSN is the LSN of the earliest change the frame holds that
	// storage does not (ARIES recLSN), for checkpoints: the Unpin that
	// makes the frame dirty stores it with the dirty flag under the shard
	// mutex, a dirty Unpin that carries an older LSN lowers it
	// (lowerRecLSN), with or without the mutex, and a flush claim clears
	// it.
	recLSN atomic.Uint64

	loadDone chan struct{}
	loadErr  error
	_        [24]byte
}

// Route is an immutable decoded copy of an index inner node: what a
// descent needs to choose the child for a key, built by the index under
// the frame's shared latch and published on the frame (SetRoute), so that
// later descents route through the node with neither pin nor latch
// (RouteFor). The pool never reads Node; it drops the copy whenever the
// page may change — on an exclusive latch and when the frame is bound or
// unbound — so a copy exists only for a resident, unchanged page.
type Route struct {
	ID  core.PageID // the page it was decoded from
	Ver uint64      // the frame's Version it was decoded at
	// Node is the decoded node, in the index's format.
	Node []uint64
}

// fence is the pin count of a frame the shard-mutex holder is unbinding
// or rebinding.
const fence = -1

// tryPin adds a pin unless the frame is fenced.
func (fr *Frame) tryPin() bool {
	for {
		n := fr.pin.Load()
		if n < 0 {
			return false
		}
		if fr.pin.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// unpin drops one pin; it fails, changing nothing, on a frame nobody has
// pinned.
func (fr *Frame) unpin() bool {
	for {
		n := fr.pin.Load()
		if n <= 0 {
			return false
		}
		if fr.pin.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// fenceIdle fences an unpinned frame; false means someone holds a pin.
// The caller holds the mutex of the frame's shard.
func (fr *Frame) fenceIdle() bool { return fr.pin.CompareAndSwap(0, fence) }

// Latch acquires the frame's content latch exclusively (for mutation),
// capturing the flushed image if the frame has been clean since its load
// or last flush, and drops the frame's Route: the holder may change the
// bytes it was decoded from, even if it forgets BumpVersion.
func (fr *Frame) Latch() {
	sim.Lock(&fr.latch)
	fr.exclusive()
}

// exclusive is what taking the exclusive latch does besides locking.
func (fr *Frame) exclusive() {
	if fr.route.Load() != nil {
		fr.route.Store(nil)
	}
	fr.capture()
}

func (fr *Frame) capture() {
	if fr.image == ImageClean {
		fr.Flushed = append(fr.Flushed[:0], fr.Data...)
		fr.image = ImageCaptured
	}
}

// Image returns the state of the frame's flushed image. The caller holds
// the latch.
func (fr *Frame) Image() ImageState { return fr.image }

// MarkFlushed records that storage now holds Data as the page's logical
// image. A Store calls it from Flush, under the exclusive latch the pool
// took, after every write of the page.
func (fr *Frame) MarkFlushed() { fr.image = ImageClean }

// Unlatch releases an exclusive latch.
func (fr *Frame) Unlatch() { fr.latch.Unlock() }

// RLatch acquires the frame's content latch shared (for reading).
func (fr *Frame) RLatch() { sim.RLock(&fr.latch) }

// RUnlatch releases a shared latch.
func (fr *Frame) RUnlatch() { fr.latch.RUnlock() }

// TryLatch attempts the exclusive content latch without blocking. OLC
// writers use it to count latch waits before falling back to Latch.
func (fr *Frame) TryLatch() bool {
	if !fr.latch.TryLock() {
		return false
	}
	fr.exclusive()
	return true
}

// TryRLatch attempts the shared content latch without blocking.
func (fr *Frame) TryRLatch() bool { return fr.latch.TryRLock() }

// Version returns the frame's current OLC version word. Readers sample
// it under a shared latch (or with the frame pinned) and re-check it
// after moving on to decide whether what they read is still current.
func (fr *Frame) Version() uint64 { return fr.ver.Load() }

// BumpVersion marks the frame's contents as changed. Mutators call it
// while still holding the exclusive latch, so a reader that validates
// an old version is guaranteed to observe the bump.
func (fr *Frame) BumpVersion() { fr.ver.Add(1) }

// stampVersion installs the next binding epoch when the frame is bound
// to a page id or unbound from one, invalidating every version sampled
// against the previous binding, and drops the Route — first, so a reader
// that sees the new epoch cannot see the old copy. The fence keeps
// version bumps out meanwhile.
func (fr *Frame) stampVersion() {
	fr.route.Store(nil)
	fr.ver.Store((fr.ver.Load()>>16 + 1) << 16)
}

// SetRoute publishes rt, decoded from the frame's page at version rt.Ver.
// The caller holds a pin and the shared latch, so no writer is changing
// the bytes rt was decoded from, and the next exclusive latch drops it.
func (fr *Frame) SetRoute(rt *Route) { fr.route.Store(rt) }

// RouteFor returns the frame's Route if it was decoded from page id at the
// frame's current version, and nil otherwise. It needs neither pin nor
// latch: the caller may have the frame from Peek, and it may hold another
// page, or none, by now — the version of a later binding is always
// higher, and the copy names its page.
func (fr *Frame) RouteFor(id core.PageID) *Route {
	v := fr.ver.Load()
	if rt := fr.route.Load(); rt != nil && rt.ID == id && rt.Ver == v {
		return rt
	}
	return nil
}

// reference sets the CLOCK reference bit, writing it only if it is clear.
func (fr *Frame) reference() {
	if !fr.ref.Load() {
		fr.ref.Store(true)
	}
}

// Config sizes the pool and its cleaning strategy.
type Config struct {
	Frames   int
	PageSize int

	// Shards splits the pool into independent partitions — each with its
	// own mutex, CLOCK hand and dirty accounting — routed by
	// hash(PageID). Zero or one selects the single-shard pool, whose
	// global CLOCK eviction order is bit-identical to the historical
	// implementation (what every paper experiment uses). Values are
	// rounded up to the next power of two and capped so every shard owns
	// at least one frame.
	Shards int

	// DirtyThreshold is the dirty-page fraction above which Unpin invokes
	// the cleaner, emulating Shore-MT's eager background flushing. Zero
	// selects the Shore-MT default of 12.5%. Non-eager experiments set it
	// to 0.75.
	DirtyThreshold float64
	// Cleaner is the simulated worker background flushes are charged to,
	// so cleaning occupies flash chips without blocking the transaction
	// that triggered it (steal/no-force). Nil charges the calling worker.
	Cleaner *sim.Worker
}

func (c Config) dirtyThreshold() float64 {
	if c.DirtyThreshold <= 0 {
		return 0.125
	}
	return c.DirtyThreshold
}

// cleanBatch is how many pages one cleaner pass flushes.
func (c Config) cleanBatch() int { return max(8, c.Frames/64) }

// shardCount normalises Config.Shards: at least one, a power of two (so
// routing is a multiply and a shift, no modulo), and never more than
// Frames so every shard owns at least one frame.
func (c Config) shardCount() int {
	n := c.Shards
	if n < 1 {
		n = 1
	}
	if n > c.Frames {
		n = c.Frames
	}
	p := 1
	for p < n {
		p <<= 1
	}
	for p > c.Frames && p > 1 {
		p >>= 1
	}
	return p
}

// Stats counts pool activity.
type Stats struct {
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	EvictionFlush  uint64 // dirty evictions (flush on the critical path)
	CleanerFlushes uint64 // background cleaner flushes

	// FramesAllocated is a gauge: the frame slots that have been handed
	// out at least once and so own a header (and, once bound, a page
	// buffer). The rest of Config.Frames is capacity nobody has used.
	FramesAllocated uint64
}

// statsCell is one shard's counters of the events that take its mutex.
// All fields are atomics so Stats() aggregates without taking any shard
// mutex. Hits take none; they are counted per worker stripe (Pool.hits).
type statsCell struct {
	misses         atomic.Uint64
	evictions      atomic.Uint64
	evictionFlush  atomic.Uint64
	cleanerFlushes atomic.Uint64
	allocated      atomic.Uint64
}

// dec undoes one Add(1) on an atomic counter (two's-complement add).
func dec(c *atomic.Uint64) { c.Add(^uint64(0)) }

// poolShard is one partition of the pool: a subset of the frames with
// its own mutex, CLOCK hand, dirty counter and stats cell. mu also
// guards the Pool.table entries of the page ids routed here. Operations
// on pages routed to different shards never contend.
type poolShard struct {
	mu sync.Mutex
	// frames is the shard's CLOCK ring. A nil slot is a frame nobody has
	// been handed yet: it stands for a free, clean, unpinned, unreferenced
	// frame, every sweep treats it as one, and the sweep that hands it out
	// (victimLocked, stealFrame) allocates the header — so the order frames
	// are handed out and evicted in does not depend on when that happens.
	frames []*Frame
	hand   int
	// free holds frames unbound outside eviction — a failed load, Drop,
	// a victim a racing binder made redundant — for the next victim
	// search to take before the hand moves, so such a frame is reused
	// before a new one is made. An entry is checked when it is taken: a
	// frame stolen or rebound since it was put here is skipped. Guarded
	// by mu.
	free []*Frame

	// dirty and stats are atomics so the cleaner trigger and Stats never
	// lock; the mutating paths already hold mu when they update them.
	dirty atomic.Int64
	stats statsCell

	// Pad shards apart so two shards' mutexes and counters never share a
	// cache line (the shards live contiguously in Pool.shards).
	_ [64]byte
}

// Pool is the buffer pool. All methods are safe for concurrent use.
type Pool struct {
	cfg   Config
	store Store

	shards     []poolShard
	shardShift uint // 64 - log2(len(shards)); fibonacci-hash routing
	nframes    int  // total frames across shards (fixed at construction)

	// table maps a resident page id to its frame (nil = not resident).
	// An entry is written under shardOf(id).mu and read by hits without
	// it.
	table core.PageTable[atomic.Pointer[Frame]]

	// hits is counted on the worker's stripe: the one counter every hit
	// writes.
	hits sim.Striped[atomic.Uint64]

	// cleanGate admits one cleaner pass at a time; triggers arriving
	// while a pass runs are dropped (the running pass covers them).
	// cleanNext (guarded by cleanGate) rotates the shard a pass starts
	// at, so cleaning pressure spreads round-robin across shards;
	// cleanBatch (same guard) is the pass's claim list, kept for its
	// capacity.
	cleanGate  sync.Mutex
	cleanNext  int
	cleanBatch []claimed
}

// New creates a pool with room for cfg.Frames frames. A frame's header is
// allocated when its slot is first handed out and its page buffer on first
// binding (see Frame.Data), so an oversized pool costs one pointer per
// frame until pages are actually resident.
func New(cfg Config, store Store) (*Pool, error) {
	if cfg.Frames < 1 {
		return nil, fmt.Errorf("buffer: %d frames", cfg.Frames)
	}
	if cfg.PageSize < 64 {
		return nil, fmt.Errorf("buffer: page size %d", cfg.PageSize)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("buffer: %d shards", cfg.Shards)
	}
	n := cfg.shardCount()
	p := &Pool{
		cfg:        cfg,
		store:      store,
		shards:     make([]poolShard, n),
		shardShift: uint(64 - bits.TrailingZeros(uint(n))),
		nframes:    cfg.Frames,
	}
	base, rem := cfg.Frames/n, cfg.Frames%n
	for i := range p.shards {
		s := &p.shards[i]
		count := base
		if i < rem {
			count++
		}
		s.frames = make([]*Frame, count)
	}
	return p, nil
}

// newFrame allocates the header of one of s's slots, handed out for the
// first time.
func (s *poolShard) newFrame() *Frame {
	fr := &Frame{}
	fr.home.Store(s)
	s.stats.allocated.Add(1)
	return fr
}

// Size returns the number of frames.
func (p *Pool) Size() int { return p.nframes }

// Shards returns the effective shard count (after normalisation).
func (p *Pool) Shards() int { return len(p.shards) }

// shardOf routes a page id to its shard (fibonacci hashing; shift 64 for
// a single shard maps everything to shard 0).
func (p *Pool) shardOf(id core.PageID) *poolShard {
	return &p.shards[(uint64(id)*0x9E3779B97F4A7C15)>>p.shardShift]
}

// lockHome locks the shard currently owning fr and returns it. The
// re-check loop covers the (steal) window where a free frame migrates
// between shards while we were waiting on the old shard's mutex.
func (p *Pool) lockHome(fr *Frame) *poolShard {
	for {
		s := fr.home.Load()
		s.mu.Lock()
		if fr.home.Load() == s {
			return s
		}
		s.mu.Unlock()
	}
}

// Stats returns a snapshot of the counters. Lock-free: per-shard cells
// are atomics, so sampling never stalls pool traffic.
func (p *Pool) Stats() Stats {
	var out Stats
	for i := range sim.Stripes {
		out.Hits += p.hits.At(i).Load()
	}
	for i := range p.shards {
		c := &p.shards[i].stats
		out.Misses += c.misses.Load()
		out.Evictions += c.evictions.Load()
		out.EvictionFlush += c.evictionFlush.Load()
		out.CleanerFlushes += c.cleanerFlushes.Load()
		out.FramesAllocated += c.allocated.Load()
	}
	return out
}

// dirtyFraction is the fraction of frames currently dirty. Lock-free.
func (p *Pool) dirtyFraction() float64 {
	var dirty int64
	for i := range p.shards {
		dirty += p.shards[i].dirty.Load()
	}
	return float64(dirty) / float64(p.nframes)
}

// Peek returns the frame page id is bound to, or nil, and pins nothing.
// Under shardOf(id).mu the answer is stable. Without it the frame may hold
// another page, or none, by the time the caller looks, so the caller reads
// only what RouteFor and Version give and checks it against id.
func (p *Pool) Peek(id core.PageID) *Frame {
	if e := p.table.Lookup(id); e != nil {
		return e.Load()
	}
	return nil
}

// Touch records a use of fr that took no pin — a descent that routed
// through its Route — as a hit: it sets the reference bit if it is clear
// and counts the hit on w's stripe, so a node read that way stays as
// resident, and counts the same, as one read pinned.
func (p *Pool) Touch(w *sim.Worker, fr *Frame) {
	fr.reference()
	p.hits.Of(w).Add(1)
}

// unbindLocked takes fr's page out of the table and leaves fr free — and
// a free frame is always ImageNone, so binding one need not say so. The
// caller holds the mutex of fr's shard, which is the one fr.ID routes to,
// and has fenced fr, unless fr is loading (see Get).
func (p *Pool) unbindLocked(fr *Frame) {
	p.table.Lookup(fr.ID).Store(nil)
	fr.ID = core.InvalidPageID
	fr.image = ImageNone
	fr.stampVersion()
}

// Get pins the page, fetching it from the store on a miss. A hit takes
// no mutex (see the package doc). The fetch happens outside the shard
// mutex; concurrent getters of the same page wait for the in-flight fetch
// instead of issuing their own.
func (p *Pool) Get(w *sim.Worker, id core.PageID) (*Frame, error) {
	if fr := p.hit(id); fr != nil {
		p.hits.Of(w).Add(1)
		return fr, nil
	}
	s := p.shardOf(id)
	for {
		s.mu.Lock()
		if fr := p.Peek(id); fr != nil {
			return p.pinResidentLocked(s, w, fr)
		}
		entry, err := p.table.Entry(id)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		s.stats.misses.Add(1)
		fr, err := p.acquireVictimLocked(s, w)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		if entry.Load() != nil {
			// Someone loaded the page while we were evicting: leave the
			// reclaimed frame free and retry as a hit.
			fr.pin.Store(0)
			s.freeLocked(fr)
			dec(&s.stats.misses)
			s.mu.Unlock()
			continue
		}
		fr.bind(id, false)
		fr.loading.Store(true)
		fr.pin.Store(1) // lifts the fence: the loader's pin
		entry.Store(fr)
		s.mu.Unlock()

		if fr.Data == nil {
			// First binding; the loading pin keeps the frame ours.
			fr.Data = make([]byte, p.cfg.PageSize)
		}
		used, err := p.store.Fetch(w, id, fr.Data)

		s.mu.Lock()
		if err != nil {
			fr.loadErr = err
			fr.pin.Add(-1)     // our pin; waiters drop theirs when they see loadErr
			p.unbindLocked(fr) // unfenced, before loading clears: see the package doc
			fr.loading.Store(false)
			fr.loadFinishedLocked()
			s.releaseFailedLocked(fr)
			s.mu.Unlock()
			return nil, err
		}
		fr.UsedSlots = used
		fr.image = ImageClean
		fr.loading.Store(false)
		fr.loadFinishedLocked()
		s.mu.Unlock()
		return fr, nil
	}
}

// hit pins id's frame without the shard mutex, or returns nil for the
// locked path to decide: the page is not resident, its frame is fenced
// or loading, or the frame was rebound between the table read and the
// pin. The pin keeps the ID from changing, so the checks after it hold.
func (p *Pool) hit(id core.PageID) *Frame {
	fr := p.Peek(id)
	if fr == nil || !fr.tryPin() {
		return nil
	}
	if fr.loading.Load() || fr.ID != id {
		fr.pin.Add(-1)
		return nil
	}
	fr.reference()
	return fr
}

// pinResidentLocked pins fr, the frame page id is bound to, counts a
// hit and, if fr's load is still in flight, waits for it. It is called
// with s.mu held, s being the shard id routes to, and returns with it
// released: the frame, or the load's error.
func (p *Pool) pinResidentLocked(s *poolShard, w *sim.Worker, fr *Frame) (*Frame, error) {
	fr.pin.Add(1) // a resident frame is not fenced under its mutex
	fr.ref.Store(true)
	p.hits.Of(w).Add(1)
	loading := fr.loading.Load()
	if loading && fr.loadDone == nil {
		fr.loadDone = make(chan struct{})
	}
	done := fr.loadDone
	s.mu.Unlock()
	if !loading {
		return fr, nil
	}
	<-done
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := fr.loadErr; err != nil {
		fr.pin.Add(-1)
		s.releaseFailedLocked(fr)
		return nil, err
	}
	return fr, nil
}

// GetResident is Get without the fetch: it pins page id if the page is
// resident, and returns nil, counting nothing, if it is not. A load in
// flight is waited for; a load that fails leaves the page not resident.
func (p *Pool) GetResident(w *sim.Worker, id core.PageID) *Frame {
	if fr := p.hit(id); fr != nil {
		p.hits.Of(w).Add(1)
		return fr
	}
	s := p.shardOf(id)
	s.mu.Lock()
	fr := p.Peek(id)
	if fr == nil {
		s.mu.Unlock()
		return nil
	}
	fr, _ = p.pinResidentLocked(s, w, fr)
	return fr
}

// bind binds fr, a fenced free frame of the caller's shard, to page id:
// the state a binding starts from, short of the pin and the table entry
// that publish it. A free frame is ImageNone already (unbindLocked).
func (fr *Frame) bind(id core.PageID, isNew bool) {
	fr.ID = id
	fr.ref.Store(true)
	fr.New = isNew
	fr.stampVersion()
	fr.UsedSlots = 0
	fr.recLSN.Store(0)
	fr.loadErr = nil
}

// freeLocked puts fr, unbound and unpinned, on s's free list with its
// reference bit clear: the next victim search takes it before the CLOCK
// hand moves. The caller holds s.mu, and fr's home is s.
func (s *poolShard) freeLocked(fr *Frame) {
	fr.ref.Store(false)
	fr.loadErr = nil
	s.free = append(s.free, fr)
}

// releaseFailedLocked frees the frame of a failed load once its last
// holder — the loader or the last waiter to read loadErr — has dropped
// its pin. The caller holds s.mu and has dropped its own pin.
func (s *poolShard) releaseFailedLocked(fr *Frame) {
	if fr.pin.Load() == 0 && fr.ID == core.InvalidPageID {
		s.freeLocked(fr)
	}
}

// takeFreeLocked returns a frame of s's free list fenced, or nil once the
// list holds none that is still free. The caller holds s.mu.
func (s *poolShard) takeFreeLocked() *Frame {
	for n := len(s.free); n > 0; n = len(s.free) {
		fr := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		if fr.home.Load() == s && fr.ID == core.InvalidPageID && !fr.loading.Load() && fr.fenceIdle() {
			return fr
		}
	}
	return nil
}

// loadFinishedLocked releases the getters waiting for the load, if any.
// Caller holds the shard mutex and has cleared loading.
func (fr *Frame) loadFinishedLocked() {
	if fr.loadDone != nil {
		close(fr.loadDone)
		fr.loadDone = nil
	}
}

// GetNew pins a frame for a freshly allocated page that has no physical
// copy yet. The caller formats fr.Data, under Latch like every change;
// the first flush will be an out-of-place write.
func (p *Pool) GetNew(w *sim.Worker, id core.PageID) (*Frame, error) {
	s := p.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, err := p.table.Entry(id)
	if err != nil {
		return nil, err
	}
	if fr := entry.Load(); fr != nil {
		fr.pin.Add(1)
		fr.ref.Store(true)
		return fr, nil
	}
	fr, err := p.acquireVictimLocked(s, w)
	if err != nil {
		return nil, err
	}
	if exist := entry.Load(); exist != nil {
		// acquireVictimLocked may drop s.mu (dirty-victim flush, cross-
		// shard steal); someone may have installed the page meanwhile.
		// Return that frame and leave the reclaimed one free, instead of
		// overwriting the table entry and orphaning it.
		fr.pin.Store(0)
		s.freeLocked(fr)
		exist.pin.Add(1)
		exist.ref.Store(true)
		return exist, nil
	}
	fr.bind(id, true)
	fr.dirty.Store(false)
	if fr.Data == nil {
		fr.Data = make([]byte, p.cfg.PageSize)
	} else {
		clear(fr.Data)
	}
	fr.pin.Store(1) // lifts the fence: the caller's pin
	entry.Store(fr)
	return fr, nil
}

// Unpin releases one pin. If dirty, recLSN is the LSN of the caller's
// change, and the frame's recLSN becomes the earliest LSN that changed
// the page since it was last flushed (ARIES recLSN) — the earliest, not
// the first unpinned: two holders may change the page in one order and
// unpin it in the other. Only the Unpin that makes a frame dirty takes
// the shard mutex; it is the one event that raises the dirty count, so
// it is where the cleaner flushes a batch when the dirty fraction
// exceeds the threshold.
func (p *Pool) Unpin(w *sim.Worker, fr *Frame, dirty bool, recLSN core.LSN) error {
	if !dirty || fr.dirty.Load() {
		// Already dirty stays dirty: no flush claims a pinned frame. The
		// pin is dropped last, so no claim reads recLSN before it is
		// lowered.
		if dirty {
			fr.lowerRecLSN(recLSN)
		}
		if !fr.unpin() {
			return fmt.Errorf("buffer: unpin of unpinned page %d", fr.ID)
		}
		return nil
	}
	s := fr.home.Load() // stable: the caller holds a pin
	s.mu.Lock()
	if !fr.unpin() {
		s.mu.Unlock()
		return fmt.Errorf("buffer: unpin of unpinned page %d", fr.ID)
	}
	if !fr.dirty.Load() {
		fr.dirty.Store(true)
		fr.recLSN.Store(uint64(recLSN))
		s.dirty.Add(1)
	} else {
		fr.lowerRecLSN(recLSN)
	}
	s.mu.Unlock()
	if p.dirtyFraction() > p.cfg.dirtyThreshold() {
		return p.CleanerPass(w)
	}
	return nil
}

// lowerRecLSN makes lsn the recLSN of fr, which is dirty, if it is older
// than the one recorded or none is; an lsn of 0 names no change and
// lowers nothing. The caller holds a pin on fr or the mutex of its shard,
// either of which keeps a flush claim from clearing recLSN meanwhile. The
// recorded value is rarely the higher one, so this is one load and seldom
// a compare-and-swap.
func (fr *Frame) lowerRecLSN(lsn core.LSN) {
	for {
		cur := fr.recLSN.Load()
		if lsn == 0 || cur != 0 && cur <= uint64(lsn) {
			return
		}
		if fr.recLSN.CompareAndSwap(cur, uint64(lsn)) {
			return
		}
	}
}

// earliest returns fr's recLSN. The caller holds the mutex of fr's shard.
func (fr *Frame) earliest() core.LSN { return core.LSN(fr.recLSN.Load()) }

// claimLocked marks a dirty, unpinned frame clean and flush-pins it so
// the caller can flush it outside the shard mutex. A writer that
// re-dirties the frame during the flush simply marks it dirty again —
// nothing is lost, the frame is flushed once more later.
func (s *poolShard) claimLocked(fr *Frame) {
	fr.dirty.Store(false)
	fr.recLSN.Store(0)
	s.dirty.Add(-1)
	fr.pin.Add(1)
}

// claimable reports whether a flush sweep may claim fr: dirty, unpinned
// and not loading. The caller holds the mutex of fr's shard.
func (fr *Frame) claimable() bool {
	return fr.dirty.Load() && fr.pin.Load() == 0 && !fr.loading.Load()
}

// redirtyLocked restores the dirty state a claim took from fr, when the
// flush failed and nobody re-dirtied the frame meanwhile. The caller
// holds the mutex of fr's shard s.
func (s *poolShard) redirtyLocked(fr *Frame, recLSN core.LSN) {
	if !fr.dirty.Load() {
		fr.dirty.Store(true)
		fr.recLSN.Store(uint64(recLSN))
		s.dirty.Add(1)
	}
}

// flushClaimed flushes a frame claimed by claimLocked, without any shard
// mutex held, taking the content latch for the duration of the store
// I/O. On error the dirty state is restored.
func (p *Pool) flushClaimed(w *sim.Worker, fr *Frame, recLSN core.LSN) error {
	sim.Lock(&fr.latch)
	err := p.store.Flush(w, fr)
	fr.latch.Unlock()
	s := fr.home.Load() // stable: the flush pin prevents stealing
	s.mu.Lock()
	fr.pin.Add(-1)
	if err != nil {
		s.redirtyLocked(fr, recLSN)
	}
	s.mu.Unlock()
	return err
}

// claimed is a frame a flush path took, or means to take, with
// claimLocked, and the recLSN it had: the one to restore if the flush
// fails, and FlushOldest's sort key.
type claimed struct {
	fr     *Frame
	recLSN core.LSN
}

// CleanerPass flushes up to one batch of dirty unpinned frames, charged
// to the configured cleaner worker (or w if none). Only one pass runs at
// a time; triggers arriving during a pass return immediately. Shards are
// walked round-robin (the start shard rotates between passes) with a
// per-shard claim quota, so one hot shard cannot monopolise the batch.
func (p *Pool) CleanerPass(w *sim.Worker) error {
	if !p.cleanGate.TryLock() {
		return nil
	}
	defer p.cleanGate.Unlock()
	cw := p.cfg.Cleaner
	if cw == nil {
		cw = w
	} else if w != nil {
		cw.SetNow(w.Now()) // the cleaner acts concurrently with the trigger
	}
	batch := p.cleanBatch[:0]
	nshards := len(p.shards)
	budget := p.cfg.cleanBatch()
	perShard := budget / nshards
	if perShard < 1 {
		perShard = 1
	}
	start := p.cleanNext % nshards
	p.cleanNext++
	for k := 0; k < nshards && budget > 0; k++ {
		s := &p.shards[(start+k)%nshards]
		quota := perShard
		if quota > budget {
			quota = budget
		}
		s.mu.Lock()
		n := len(s.frames)
		for i := 0; i < n && quota > 0; i++ {
			fr := s.frames[(s.hand+i)%n]
			if fr == nil || !fr.claimable() {
				continue
			}
			batch = append(batch, claimed{fr, fr.earliest()})
			s.claimLocked(fr)
			quota--
			budget--
		}
		s.mu.Unlock()
	}
	p.cleanBatch = batch
	for _, c := range batch {
		if err := p.flushClaimed(cw, c.fr, c.recLSN); err != nil {
			return err
		}
		c.fr.home.Load().stats.cleanerFlushes.Add(1)
	}
	return nil
}

// acquireVictimLocked returns a free frame for shard s, called and
// returning with s.mu held (it may drop the mutex while flushing or
// stealing). When the local CLOCK exhausts — every frame pinned or
// loading — it steals an unpinned frame from another shard before
// surfacing ErrNoFrames, so a working set skewed onto one shard cannot
// fail while the rest of the pool sits idle.
func (p *Pool) acquireVictimLocked(s *poolShard, w *sim.Worker) (*Frame, error) {
	fr, err := p.victimLocked(s, w)
	if err == nil || !errors.Is(err, ErrNoFrames) || len(p.shards) == 1 {
		return fr, err
	}
	s.mu.Unlock()
	stolen := p.stealFrame(s)
	s.mu.Lock()
	if stolen != nil {
		s.frames = append(s.frames, stolen)
		return stolen, nil
	}
	// Nothing stealable anywhere; one last local attempt — frames may
	// have been unpinned while we searched the other shards.
	return p.victimLocked(s, w)
}

// stealFrame takes a clean, unpinned frame from some other shard,
// evicting its page if it holds one, and re-homes it to the requester.
// Shards with a single frame left are skipped so no shard ever empties.
// At most one shard mutex is held at a time (never the requester's),
// keeping the pool deadlock-free by construction.
func (p *Pool) stealFrame(to *poolShard) *Frame {
	for i := range p.shards {
		s := &p.shards[i]
		if s == to {
			continue
		}
		s.mu.Lock()
		if len(s.frames) <= 1 {
			s.mu.Unlock()
			continue
		}
		for j, fr := range s.frames {
			if fr == nil {
				fr = s.newFrame()
			}
			if fr.loading.Load() || fr.dirty.Load() || !fr.fenceIdle() {
				continue
			}
			if fr.ID != core.InvalidPageID {
				p.unbindLocked(fr)
				s.stats.evictions.Add(1)
			}
			fr.New = false
			fr.ref.Store(false)
			// Re-home before the frame leaves this shard's critical
			// section so lockHome observers retry against the new owner.
			fr.home.Store(to)
			s.removeFrameLocked(j)
			s.mu.Unlock()
			return fr
		}
		s.mu.Unlock()
	}
	return nil
}

// removeFrameLocked removes s.frames[i] preserving CLOCK order, fixing
// the hand so the sweep continues from the same logical position.
func (s *poolShard) removeFrameLocked(i int) {
	copy(s.frames[i:], s.frames[i+1:])
	s.frames[len(s.frames)-1] = nil
	s.frames = s.frames[:len(s.frames)-1]
	if s.hand > i {
		s.hand--
	}
	if s.hand >= len(s.frames) {
		s.hand = 0
	}
}

// victimLocked returns a free frame bound to no page, fenced: one of the
// shard's free list if it holds one, else the CLOCK policy's victim,
// evicted (and flushed) as needed. The caller binds it or lifts the
// fence. It is called with s.mu held and returns with s.mu
// held, but may release the mutex while flushing a dirty victim (during
// which the shard's frame slice can grow or shrink via stealing — the
// loop re-reads its bounds).
func (p *Pool) victimLocked(s *poolShard, w *sim.Worker) (*Frame, error) {
	if fr := s.takeFreeLocked(); fr != nil {
		return fr, nil
	}
	n := len(s.frames)
	for round := 0; round < 4*n+2; round++ {
		if n != len(s.frames) {
			n = len(s.frames)
			if n == 0 {
				break
			}
		}
		if s.hand >= n {
			s.hand = 0
		}
		fr := s.frames[s.hand]
		if fr == nil {
			fr = s.newFrame()
			s.frames[s.hand] = fr
		}
		s.hand = (s.hand + 1) % n
		if fr.pin.Load() > 0 || fr.loading.Load() {
			continue
		}
		if fr.ref.Load() {
			fr.ref.Store(false)
			continue
		}
		if fr.ID == core.InvalidPageID || !fr.dirty.Load() {
			if !fr.fenceIdle() {
				continue // a hit pinned it since the check above
			}
			if fr.ID != core.InvalidPageID {
				p.unbindLocked(fr)
				s.stats.evictions.Add(1)
			}
			return fr, nil
		}
		// Dirty victim: flush it outside the shard mutex, then re-check —
		// another goroutine may have pinned it meanwhile, in which case
		// the CLOCK hand keeps searching. Unlike the cleaner/checkpoint
		// paths (flushClaimed), the claim pin is dropped here, under
		// s.mu, *after* the re-lock: holding it across the unlocked
		// window keeps the frame anchored to this shard — stealFrame
		// skips pinned frames and home never changes while pinned — so
		// the frame cannot end up owned by two shards at once and the
		// re-check below reads state guarded by the right mutex.
		recLSN := fr.earliest()
		s.claimLocked(fr)
		s.mu.Unlock()
		sim.Lock(&fr.latch)
		err := p.store.Flush(w, fr)
		fr.latch.Unlock()
		s.mu.Lock()
		if err != nil {
			fr.pin.Add(-1)
			s.redirtyLocked(fr, recLSN)
			return nil, err
		}
		s.stats.evictionFlush.Add(1)
		// Still clean and the claim pin the only one: the pin becomes the
		// fence. The pin kept the frame from being rebound, so it is not
		// loading.
		if !fr.dirty.Load() && fr.pin.CompareAndSwap(1, fence) {
			p.unbindLocked(fr)
			s.stats.evictions.Add(1)
			return fr, nil
		}
		fr.pin.Add(-1)
	}
	return nil, ErrNoFrames
}

// FlushAll writes every dirty frame (checkpoint support). Pinned dirty
// frames are an error. Within each shard the scan resumes from the frame
// after the last flush instead of restarting at index 0, wrapping until
// a full sweep finds nothing dirty — O(frames + flushes) per quiescent
// checkpoint instead of the historical O(frames²).
func (p *Pool) FlushAll(w *sim.Worker) error {
	for i := range p.shards {
		if err := p.flushAllShard(&p.shards[i], w); err != nil {
			return err
		}
	}
	return nil
}

func (p *Pool) flushAllShard(s *poolShard, w *sim.Worker) error {
	pos := 0
	for {
		var fr *Frame
		var recLSN core.LSN
		s.mu.Lock()
		n := len(s.frames)
		if n == 0 {
			s.mu.Unlock()
			return nil
		}
		if pos >= n {
			pos = 0
		}
		for scanned := 0; scanned < n; scanned++ {
			f := s.frames[(pos+scanned)%n]
			if f == nil || !f.dirty.Load() {
				continue
			}
			if f.pin.Load() > 0 {
				id := f.ID
				s.mu.Unlock()
				return fmt.Errorf("%w: page %d", ErrPinned, id)
			}
			fr, recLSN = f, f.earliest()
			pos = (pos + scanned + 1) % n // resume after the claimed frame
			break
		}
		if fr == nil {
			s.mu.Unlock()
			return nil
		}
		s.claimLocked(fr)
		s.mu.Unlock()
		if err := p.flushClaimed(w, fr, recLSN); err != nil {
			return err
		}
	}
}

// FlushOldest flushes up to n dirty unpinned frames with the smallest
// RecLSN — the pages holding back log truncation. Candidates are
// collected in one sweep across all shards and merge-sorted, rather than
// rescanning the whole pool under a lock for every flush; each is
// revalidated at claim time since the pool moves on while flushes run.
func (p *Pool) FlushOldest(w *sim.Worker, n int) (int, error) {
	var total int64
	for i := range p.shards {
		total += p.shards[i].dirty.Load()
	}
	if total < 0 {
		total = 0
	}
	cands := make([]claimed, 0, total)
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for _, fr := range s.frames {
			if fr != nil && fr.claimable() {
				cands = append(cands, claimed{fr, fr.earliest()})
			}
		}
		s.mu.Unlock()
	}
	// Stable sort: ties keep shard-then-frame order, matching the old
	// repeated-scan selection exactly in the single-shard case.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].recLSN < cands[j].recLSN })
	flushed := 0
	for _, c := range cands {
		if flushed >= n {
			break
		}
		fr := c.fr
		s := p.lockHome(fr)
		if !fr.claimable() {
			s.mu.Unlock()
			continue // flushed, reloaded, pinned or stolen since the snapshot
		}
		recLSN := fr.earliest()
		s.claimLocked(fr)
		s.mu.Unlock()
		if err := p.flushClaimed(w, fr, recLSN); err != nil {
			return flushed, err
		}
		flushed++
	}
	return flushed, nil
}

// DirtyPages snapshots the dirty-page table (page → recLSN) for a fuzzy
// checkpoint, sweeping the shards one at a time.
func (p *Pool) DirtyPages() map[core.PageID]core.LSN {
	var total int64
	for i := range p.shards {
		total += p.shards[i].dirty.Load()
	}
	if total < 0 {
		total = 0
	}
	dpt := make(map[core.PageID]core.LSN, total)
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for _, fr := range s.frames {
			if fr != nil && fr.dirty.Load() {
				dpt[fr.ID] = fr.earliest()
			}
		}
		s.mu.Unlock()
	}
	return dpt
}

// Drop removes an unpinned page from the pool without flushing (used
// when a page is deallocated). Dropping an absent page is a no-op.
func (p *Pool) Drop(id core.PageID) error {
	s := p.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	fr := p.Peek(id)
	if fr == nil {
		return nil
	}
	if !fr.fenceIdle() {
		return fmt.Errorf("%w: page %d", ErrPinned, id)
	}
	if fr.dirty.Load() {
		fr.dirty.Store(false)
		s.dirty.Add(-1)
	}
	p.unbindLocked(fr)
	fr.New = false
	fr.pin.Store(0)
	s.freeLocked(fr)
	return nil
}
