package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ipa/internal/buffer"
	"ipa/internal/core"
	"ipa/internal/noftl"
	"ipa/internal/sim"
	"ipa/internal/wal"
)

// Engine configuration errors.
var (
	// ErrNoRegion is returned when a named NoFTL region does not exist.
	ErrNoRegion = errors.New("engine: no such region")
	// ErrBadOptions is returned by Options.Validate for nonsense configs.
	ErrBadOptions = errors.New("engine: invalid options")
	// ErrClosed is returned by Begin, Checkpoint and Stats once Close has
	// returned. The flag is raised under the engine state latch, so a
	// caller that observes Close returning can rely on every later Begin
	// failing — the server layer's graceful shutdown depends on this being
	// deterministic.
	ErrClosed = errors.New("engine: database closed")
)

// Options configures a database instance.
type Options struct {
	// PageSize of database pages; must equal the flash page size. Zero
	// selects 4096.
	PageSize int
	// BufferFrames in the pool.
	BufferFrames int
	// PoolShards splits the buffer pool into independent shards (own
	// mutex, page table, CLOCK hand and dirty accounting per shard),
	// removing the pool as a serialization point under many workers.
	// Zero or 1 keeps the single global CLOCK whose eviction order is
	// bit-identical to the historical pool — required by the paper
	// experiments, whose update-size distributions (Tables 1/9/10/11)
	// depend on deterministic eviction. Concurrency benchmarks and
	// production-style deployments opt in with ≥ 2 (rounded up to a
	// power of two, capped by BufferFrames).
	PoolShards int
	// LogCapacity in bytes; 0 means unbounded (no log-space pressure).
	LogCapacity int
	// LogReclaimThreshold: reclaim log space (flushing old dirty pages and
	// checkpointing) when usage exceeds this fraction. Zero selects 0.35,
	// inside Shore-MT's eager 25–50% window.
	LogReclaimThreshold float64
	// DirtyThreshold tunes the buffer cleaner (see buffer package): 0 =
	// eager 12.5%, 0.75 = the paper's non-eager configuration. Values
	// above 1 disable cleaning.
	DirtyThreshold float64
	// UseECC enables sectioned ECC in the OOB area.
	UseECC bool
	// IndexKind has one legal value, IndexOLC (the zero value); Validate
	// rejects any other.
	//
	// Deprecated: CreateIndex always builds an OLCIndex. The field exists
	// only because callers outside the engine set it.
	IndexKind IndexKind
	// MVCC enables multi-version snapshot reads: committed updates link
	// their before-images (tagged with the commit LSN) into a sharded
	// per-RID version store, DB.BeginSnapshot pins a read-only snapshot
	// LSN, and Table.ReadSnapshot/ScanSnapshot resolve tuples through
	// the chains — never touching the no-wait lock table, never
	// blocking writers, never aborting. A background reaper prunes
	// chains bounded by the minimum active snapshot LSN; Close drains
	// it. The default (false) keeps the write path byte-identical to
	// the paper-fidelity engine (no version-store hooks run at all).
	MVCC bool
	// Replicated makes the WAL self-describing for log-shipping
	// replication: CreateTable appends a RecTable record and every page
	// allocation a RecAlloc record, so a follower can rebuild the
	// catalog, heap chains and page directory from the stream alone.
	// Neither record is transactional and both are ignored by recovery.
	// The default (false) keeps the log byte-identical to the
	// single-node engine — the paper experiments' golden renders never
	// see these records.
	Replicated bool
	// Timeline provides simulated time; optional.
	Timeline *sim.Timeline
}

func (o Options) pageSize() int {
	if o.PageSize <= 0 {
		return 4096
	}
	return o.PageSize
}

func (o Options) reclaimThreshold() float64 {
	if o.LogReclaimThreshold <= 0 {
		return 0.35
	}
	return o.LogReclaimThreshold
}

// Validate rejects nonsense configurations instead of silently
// defaulting. flashPageSize is the device page size the database pages
// must match (0 skips that check, for validation before a device is
// chosen). All errors wrap ErrBadOptions.
func (o Options) Validate(flashPageSize int) error {
	if o.BufferFrames < 1 {
		return fmt.Errorf("%w: BufferFrames %d (need ≥ 1)", ErrBadOptions, o.BufferFrames)
	}
	if o.PageSize < 0 {
		return fmt.Errorf("%w: PageSize %d", ErrBadOptions, o.PageSize)
	}
	if flashPageSize > 0 && o.pageSize() != flashPageSize {
		return fmt.Errorf("%w: page size %d != flash page size %d",
			ErrBadOptions, o.pageSize(), flashPageSize)
	}
	if o.LogCapacity < 0 {
		return fmt.Errorf("%w: LogCapacity %d", ErrBadOptions, o.LogCapacity)
	}
	if o.LogReclaimThreshold < 0 || o.LogReclaimThreshold >= 1 {
		return fmt.Errorf("%w: LogReclaimThreshold %v (need [0,1))", ErrBadOptions, o.LogReclaimThreshold)
	}
	if o.DirtyThreshold < 0 {
		return fmt.Errorf("%w: DirtyThreshold %v", ErrBadOptions, o.DirtyThreshold)
	}
	if o.PoolShards < 0 {
		return fmt.Errorf("%w: PoolShards %d", ErrBadOptions, o.PoolShards)
	}
	if o.IndexKind != IndexOLC {
		return fmt.Errorf("%w: IndexKind %d", ErrBadOptions, int(o.IndexKind))
	}
	return nil
}

// DB is the storage engine instance: catalog, buffer pool, WAL and the
// per-region page stores. All public methods are safe for concurrent use
// under fine-grained synchronisation (see DESIGN.md, "Latching
// hierarchy"): tuple locks live in a sharded no-wait lock table, page
// contents are guarded by per-frame latches, the WAL appends lock-free
// (atomic LSN reservation with adaptive group flush), and the only engine-wide lock is a
// reader/writer state latch, striped by worker, that stop-the-world
// operations (pool resize, crash simulation, recovery) take exclusively
// while normal operations hold their worker's stripe shared.
type DB struct {
	dev  *noftl.Device
	log  *wal.Log
	opts Options

	// stateMu guards the pool pointer, recovery state and the closed
	// flag's transitions. It is striped by worker: every normal operation
	// holds its worker's stripe shared for its duration (rlockState), so
	// two clients' operations write no common reader count; ResizePool,
	// SimulateCrash, Recover, InstallSnapshot and Close take every stripe
	// exclusively, in stripe order (lockState). A reader never holds two
	// stripes — no operation takes the latch inside another — so the
	// writers' order is the only one there is.
	stateMu sim.Striped[sync.RWMutex]
	pool    *buffer.Pool

	// catMu guards the catalog maps (stores, tables, indexes); never
	// held across page I/O.
	catMu   sync.Mutex
	stores  map[string]*PageStore // by region name
	tables  map[string]*Table
	indexes map[string]Index // by index name (Stats observability)

	// pageDir maps every allocated page to its owning store (a flat table
	// read without a lock; on the buffer pool's fetch/flush path). locks
	// is the sharded no-wait tuple lock table: conflicting updates fail
	// immediately with ErrLockConflict and locks are held until
	// commit/abort.
	pageDir pageDir
	locks   lockTable

	// vs is the MVCC version store (nil unless Options.MVCC). Every hook
	// on the write path is guarded by a nil check so the default engine
	// runs the historical, paper-fidelity code byte-for-byte.
	vs *versionStore

	// Abort accounting by reason (see AbortStats).
	abortsLock     atomic.Uint64
	abortsExplicit atomic.Uint64
	lockConflicts  atomic.Uint64

	nextPage atomic.Uint64
	nextTx   atomic.Uint64

	// active is the active-transaction table, striped by the transaction's
	// worker: Begin, Commit and Abort lock only their worker's stripe; the
	// fuzzy checkpoint, the replica snapshot's prime LSN and the resets
	// visit every stripe (eachActive, resetActive).
	active sim.Striped[txStripe]

	// ckptMu serialises checkpoint/log-reclaim; reclaim triggers use
	// TryLock so concurrent committers don't stampede behind one
	// checkpoint.
	ckptMu      sync.Mutex
	cleaner     *sim.Worker
	checkpoints atomic.Uint64
	reclaims    atomic.Uint64

	// closed is raised by Close and SimulateCrash (under stateMu
	// exclusive) and lowered by Recover, the restart, which only a crashed
	// instance takes. closeMu serialises the three so the version reaper
	// is stopped and restarted exactly once each.
	closed  atomic.Bool
	crashed bool
	closeMu sync.Mutex

	// wrapStore, when a test sets it, is put between every pool newPool
	// builds and the router (see VerifyFlushedImages in export_test.go).
	wrapStore func(buffer.Store) buffer.Store
}

// rlockState holds the state latch shared on w's stripe and returns the
// stripe, for the caller to RUnlock.
func (db *DB) rlockState(w *sim.Worker) *sync.RWMutex {
	mu := db.stateMu.Of(w)
	mu.RLock()
	return mu
}

// lockState holds the state latch exclusively: every stripe, in order.
func (db *DB) lockState() {
	for i := range sim.Stripes {
		db.stateMu.At(i).Lock()
	}
}

// unlockState releases what lockState took.
func (db *DB) unlockState() {
	for i := range sim.Stripes {
		db.stateMu.At(i).Unlock()
	}
}

// router dispatches buffer.Store calls to the page's owning store.
type router struct{ db *DB }

func (r router) Fetch(w *sim.Worker, id core.PageID, buf []byte) (int, error) {
	st := r.db.pageDir.get(id)
	if st == nil {
		return 0, fmt.Errorf("%w: page %d has no store", noftl.ErrUnknownPage, id)
	}
	return st.Fetch(w, id, buf)
}

func (r router) Flush(w *sim.Worker, fr *buffer.Frame) error {
	st := r.db.pageDir.get(fr.ID)
	if st == nil {
		return fmt.Errorf("%w: page %d has no store", noftl.ErrUnknownPage, fr.ID)
	}
	return st.Flush(w, fr)
}

// newPool builds a buffer pool from the instance options — the single
// place the buffer.Config literal lives, shared by New, ResizePool and
// SimulateCrash.
func (db *DB) newPool(frames int) (*buffer.Pool, error) {
	cfg := buffer.Config{
		Frames:         frames,
		PageSize:       db.opts.pageSize(),
		Shards:         db.opts.PoolShards,
		DirtyThreshold: db.opts.DirtyThreshold,
		Cleaner:        db.cleaner,
	}
	var store buffer.Store = router{db}
	if db.wrapStore != nil {
		store = db.wrapStore(store)
	}
	return buffer.New(cfg, store)
}

// New creates a database over a NoFTL device.
func New(dev *noftl.Device, opts Options) (*DB, error) {
	if err := opts.Validate(dev.Geometry().PageSize); err != nil {
		return nil, err
	}
	db := &DB{
		dev:    dev,
		log:    wal.NewLog(opts.LogCapacity),
		opts:   opts,
		stores: make(map[string]*PageStore),
		tables: make(map[string]*Table),
	}
	if opts.Timeline != nil {
		db.cleaner = opts.Timeline.NewWorker()
	}
	pool, err := db.newPool(opts.BufferFrames)
	if err != nil {
		return nil, err
	}
	db.pool = pool
	if opts.MVCC {
		db.vs = newVersionStore()
		db.vs.startReaper(db.log.Head)
	}
	return db, nil
}

// Close shuts the instance down: the closed flag is raised under the
// exclusive state latch (so every Begin/Checkpoint/Stats that starts
// after Close returns deterministically fails with ErrClosed), then the
// MVCC version reaper is drained (a no-op without Options.MVCC).
// Repeated calls do nothing. SimulateCrash, then Recover, reopens a
// closed instance, as a process restart does. The error is always nil.
func (db *DB) Close() error {
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	if db.closed.Load() {
		return nil
	}
	// Raise the flag with the state latch held exclusively: in-flight
	// operations (holding it shared) finish first, and any operation
	// starting afterwards observes the flag before touching the pool.
	db.lockState()
	db.closed.Store(true)
	db.unlockState()
	if db.vs != nil {
		db.vs.stopReaper()
	}
	return nil
}

// Pool exposes the buffer pool.
//
// Deprecated: for tools and tests only. Production code should consume
// DB.Stats().
func (db *DB) Pool() *buffer.Pool {
	defer db.rlockState(nil).RUnlock()
	return db.pool
}

// Device exposes the NoFTL device.
//
// Deprecated: for tools and tests only. Production code should consume
// DB.Stats().
func (db *DB) Device() *noftl.Device { return db.dev }

// attachRegion makes a NoFTL region usable by tables and indexes,
// creating its page store.
func (db *DB) attachRegion(regionName string) (*PageStore, error) {
	db.catMu.Lock()
	defer db.catMu.Unlock()
	return db.attachRegionLocked(regionName)
}

func (db *DB) attachRegionLocked(regionName string) (*PageStore, error) {
	if st, ok := db.stores[regionName]; ok {
		return st, nil
	}
	region := db.dev.Region(regionName)
	if region == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoRegion, regionName)
	}
	st, err := NewPageStore(region, db.opts.pageSize(), db.opts.UseECC, db.log)
	if err != nil {
		return nil, err
	}
	db.stores[regionName] = st
	return st, nil
}

// Store returns the page store of a region, or nil.
func (db *DB) Store(regionName string) *PageStore {
	db.catMu.Lock()
	defer db.catMu.Unlock()
	return db.stores[regionName]
}

// allocPage assigns a fresh page id owned by the store.
func (db *DB) allocPage(st *PageStore) (core.PageID, error) {
	id := core.PageID(db.nextPage.Add(1))
	if err := db.pageDir.put(id, st); err != nil {
		return core.InvalidPageID, err
	}
	return id, nil
}

// newPage allocates a page of st and returns it formatted, pinned and
// exclusively latched. The caller holds stateMu shared.
func (db *DB) newPage(w *sim.Worker, st *PageStore, owner uint64, flags uint16) (pageRef, error) {
	id, err := db.allocPage(st)
	if err != nil {
		return pageRef{}, err
	}
	pg, err := db.formatNew(w, st, id)
	if err != nil {
		db.pageDir.delete(id)
		return pageRef{}, err
	}
	pg.SetFlags(flags)
	if db.opts.Replicated {
		// Published before the page's first update record (same
		// goroutine), so a follower always learns the page's store
		// before it must redo onto it.
		db.log.Append(wal.Record{Type: wal.RecAlloc, Meta: encodeAllocMeta(id, owner, st.region.Name())})
	}
	return pg, nil
}

// WAL exposes the write-ahead log for the replication layer (stream
// cursor, retain floor, commit-horizon queries). Not for transactional
// use — records are appended through Tx.
func (db *DB) WAL() *wal.Log { return db.log }

// maybeReclaim emulates Shore-MT's eager log-space reclamation: when the
// log fills past the threshold, the oldest dirty pages are flushed, a
// fuzzy checkpoint is taken and the log tail advances. Reclaim is
// best-effort concurrent: whichever committer trips the threshold first
// runs it; everyone else proceeds. Caller holds stateMu shared.
func (db *DB) maybeReclaim(w *sim.Worker) error {
	if db.log.Capacity() == 0 || db.log.Usage() <= db.opts.reclaimThreshold() {
		return nil
	}
	if !db.ckptMu.TryLock() {
		return nil // a reclaim/checkpoint is already running
	}
	defer db.ckptMu.Unlock()
	if db.log.Usage() <= db.opts.reclaimThreshold() {
		return nil // the pass we raced with already reclaimed
	}
	db.reclaims.Add(1)
	cw := db.cleaner
	if cw == nil {
		cw = w
	} else if w != nil {
		cw.SetNow(w.Now())
	}
	// A quarter of the pool per pass: the reclaim is insensitive to the
	// exact batch as long as it scales with the pool.
	if _, err := db.pool.FlushOldest(cw, db.pool.Size()/4+1); err != nil {
		return err
	}
	return db.checkpointLocked(w)
}

// checkpointLocked runs with ckptMu held and stateMu shared. The
// active-transaction snapshot is fuzzy: transactions keep running while
// the checkpoint record is built (their lastLSN fields are atomics).
func (db *DB) checkpointLocked(w *sim.Worker) error {
	att := make(map[uint64]core.LSN)
	var minTxFirst core.LSN
	db.eachActive(func(tx *Tx) {
		att[tx.id] = tx.lastLSN.load()
		if minTxFirst == 0 || tx.firstLSN < minTxFirst {
			minTxFirst = tx.firstLSN
		}
	})
	dpt := db.pool.DirtyPages()
	ckptLSN := db.log.Append(wal.Record{Type: wal.RecCheckpoint, ActiveTxs: att, DirtyPages: dpt})
	db.log.Flush(ckptLSN)
	db.checkpoints.Add(1)

	// The log tail can advance to the oldest LSN still needed: the
	// earliest recLSN of a dirty page (straight from the checkpoint's own
	// snapshot — no second pool scan), the first LSN of an active
	// transaction, or the checkpoint itself.
	cut := ckptLSN
	for _, r := range dpt {
		if r != 0 && r < cut {
			cut = r
		}
	}
	if minTxFirst != 0 && minTxFirst < cut {
		cut = minTxFirst
	}
	db.log.Truncate(cut)
	return nil
}

// FlushAll forces every dirty page out (clean shutdown support).
func (db *DB) FlushAll(w *sim.Worker) error {
	defer db.rlockState(w).RUnlock()
	return db.pool.FlushAll(w)
}

// ResizePool replaces the buffer pool with one of the given frame count
// (flushing all dirty pages first). The experiment harness uses this to
// set the buffer size to a percentage of the loaded database size, as the
// paper's buffer-sweep experiments do. Stop-the-world: blocks until all
// in-flight operations drain.
func (db *DB) ResizePool(w *sim.Worker, frames int) error {
	db.lockState()
	defer db.unlockState()
	if err := db.pool.FlushAll(w); err != nil {
		return err
	}
	pool, err := db.newPool(frames)
	if err != nil {
		return err
	}
	db.pool = pool
	db.dropReservations()
	db.opts.BufferFrames = frames
	return nil
}

// dropReservations forgets the pages the stores reserved for frames of a
// pool that is gone (PageStore.reserve): a crash or a snapshot install
// loses those pages, and after a pool-wide flush the only new frames
// left unwritten are clean ones, which no flush will write.
func (db *DB) dropReservations() {
	db.catMu.Lock()
	defer db.catMu.Unlock()
	for _, st := range db.stores {
		st.unwritten.Store(0)
	}
}

// SimulateCrash cuts the power. Everything DBMS memory holds is lost:
// the buffer pool, the transaction, lock and version tables, every
// region's NoFTL mapping and every log record past WAL().Flushed() (a PDL
// region's differential index is rebuilt from nothing too). Flash, the
// durable log and the catalog (assumed on stable metadata storage, as
// NoFTL does) survive. The instance is down — Begin, Checkpoint and Stats
// fail with ErrClosed — until Recover, the only way back, restarts it.
// Stop-the-world: blocks until all in-flight operations drain.
func (db *DB) SimulateCrash() error {
	// closeMu before stateMu — the same order Close takes them.
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	db.lockState()
	defer db.unlockState()
	if err := db.dropVolatile(); err != nil {
		return err
	}
	db.log.Cut()
	for _, st := range byName(db, db.stores) {
		if err := st.region.Adopt(nil); err != nil {
			return err
		}
	}
	if !db.closed.Swap(true) && db.vs != nil {
		db.vs.stopReaper()
	}
	db.crashed = true
	return nil
}

// dropVolatile replaces the pool and empties the transaction, lock and
// version tables: what a crash and a snapshot install both discard.
func (db *DB) dropVolatile() error {
	pool, err := db.newPool(db.opts.BufferFrames)
	if err != nil {
		return err
	}
	db.pool = pool
	db.dropReservations()
	db.resetActive()
	db.locks.clear()
	if db.vs != nil {
		db.vs.reset()
	}
	return nil
}

// byName lists a catalog map's values in name order, the order a restart
// visits them in, so that its simulated time is deterministic.
func byName[T any](db *DB, m map[string]T) []T {
	db.catMu.Lock()
	defer db.catMu.Unlock()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	out := make([]T, len(names))
	for i, name := range names {
		out[i] = m[name]
	}
	return out
}
