package main

import (
	"fmt"
	"net"
	"time"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/repl"
	"ipa/internal/server"
	"ipa/internal/sim"
)

// region is the single NoFTL region every stack in the benchmark uses.
const region = "data"

// simTxCPU is the simulated CPU time charged per embedded transaction,
// so simulated throughput stays finite when a transaction hits the
// buffer for every page. It is part of the sim time base, not measured.
const simTxCPU = 50 * time.Microsecond

// flashSpec sizes the paper's device: 16 SLC chips, 4 KiB pages, IPA
// [2×4]. physPages is the raw capacity; the region keeps overProvision
// of it away from the logical capacity as collector slack.
type flashSpec struct {
	physPages     int
	overProvision float64
}

const (
	flashChips         = 16
	flashPagesPerBlock = 64
	flashPageSize      = 4096
)

// embedded is an engine on its own simulated flash array, with no
// server in front.
type embedded struct {
	db     *engine.DB
	tl     *sim.Timeline
	dev    *noftl.Device
	frames int // buffer pool size
}

// newFlashDB builds the flash → NoFTL → engine stack of the two flash
// workloads. The pool starts at loadFrames and is cut to its measured
// size after the load (see resizePool).
func newFlashDB(fs flashSpec, loadFrames int, seed int64) (*embedded, error) {
	blocksPerChip := fs.physPages/(flashChips*flashPagesPerBlock) + 1
	g := flash.Geometry{
		Chips: flashChips, BlocksPerChip: blocksPerChip, PagesPerBlock: flashPagesPerBlock,
		PageSize: flashPageSize, OOBSize: flashPageSize / 16, Cell: flash.SLC,
	}
	tl := sim.NewTimeline(g.Chips)
	arr, err := flash.New(flash.Config{
		Geometry: g, Timing: flash.SLCTiming(), StrictProgramOrder: true,
		MaxAppends: 8, Seed: seed,
	}, tl)
	if err != nil {
		return nil, err
	}
	dev := noftl.Open(arr)
	if _, err := dev.CreateRegion(noftl.RegionConfig{
		Name: region, Mode: noftl.ModeSLC, Scheme: core.NewScheme(2, 4),
		BlocksPerChip: blocksPerChip, OverProvision: fs.overProvision,
	}); err != nil {
		return nil, err
	}
	db, err := engine.New(dev, engine.Options{
		PageSize:            flashPageSize,
		BufferFrames:        loadFrames,
		PoolShards:          8,
		DirtyThreshold:      0.125,
		LogCapacity:         16 << 20,
		LogReclaimThreshold: 0.35,
		IndexKind:           engine.IndexOLC,
		Timeline:            tl,
	})
	if err != nil {
		return nil, err
	}
	return &embedded{db: db, tl: tl, dev: dev, frames: loadFrames}, nil
}

// resizePool cuts the pool to frac of the pages the load mapped, the
// way the paper sizes its buffer.
func (e *embedded) resizePool(w *sim.Worker, frac float64) error {
	e.frames = int(frac * float64(e.mappedPages()))
	if e.frames < 64 {
		e.frames = 64
	}
	return e.db.ResizePool(w, e.frames)
}

func (e *embedded) mappedPages() int {
	return e.db.Store(region).Region().MappedPages()
}

func (e *embedded) close() {
	e.db.Close()
	e.dev.Close()
}

// Served stacks: 1 KiB pages on 8 chips, MVCC on. The pool is so much
// larger than the database that the eager cleaner's trigger (12.5 % of
// the frames dirty) is above every page a run can dirty, so flash is
// idle while clients run — on the standalone server and on every
// cluster member alike.
const (
	servedChips         = 8
	servedBlocksPerChip = 256
	servedPageSize      = 1024
	servedFrames        = 131072
	servedPoolShards    = 8
)

// servedPool is the pool size of a served stack; the -quick database
// is a hundredth of the size and gets by with far fewer frames.
func servedPool(quick bool) int {
	if quick {
		return servedFrames / 32
	}
	return servedFrames
}

// newServedDB builds a standalone member with repl.NewMemberDB's
// geometry and engine options, except Replicated.
func newServedDB(quick bool) (*embedded, error) {
	g := flash.Geometry{
		Chips: servedChips, BlocksPerChip: servedBlocksPerChip, PagesPerBlock: 32,
		PageSize: servedPageSize, OOBSize: 64, Cell: flash.SLC,
	}
	tl := sim.NewTimeline(g.Chips)
	arr, err := flash.New(flash.Config{
		Geometry: g, Timing: flash.SLCTiming(), StrictProgramOrder: true, MaxAppends: 8,
	}, tl)
	if err != nil {
		return nil, err
	}
	dev := noftl.Open(arr)
	if _, err := dev.CreateRegion(noftl.RegionConfig{
		Name: region, Mode: noftl.ModeSLC, Scheme: core.NewScheme(2, 3),
		BlocksPerChip: servedBlocksPerChip, OverProvision: 0.15,
	}); err != nil {
		return nil, err
	}
	db, err := engine.New(dev, engine.Options{
		PageSize:     servedPageSize,
		BufferFrames: servedPool(quick),
		PoolShards:   servedPoolShards,
		MVCC:         true,
		Timeline:     tl,
	})
	if err != nil {
		return nil, err
	}
	return &embedded{db: db, tl: tl, dev: dev, frames: servedPool(quick)}, nil
}

// standalone is one server on a loopback port in front of an embedded
// stack.
type standalone struct {
	*embedded
	srv  *server.Server
	addr string
}

func newStandalone(quick bool) (*standalone, error) {
	e, err := newServedDB(quick)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{DB: e.db, Timeline: e.tl})
	if err != nil {
		e.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	go srv.Serve(ln) // returns when shutdown closes ln
	return &standalone{embedded: e, srv: srv, addr: ln.Addr().String()}, nil
}

func (s *standalone) close() {
	s.srv.Shutdown(10 * time.Second) // also closes the DB
	s.dev.Close()
}

// newCluster starts the 3-node in-process cluster. The election timeout
// is long enough that a busy two-core box cannot fire an election: a
// repetition in which one fires is invalid.
func newCluster(quick bool) (*repl.Cluster, error) {
	cl, err := repl.NewCluster(repl.ClusterConfig{
		N:             3,
		Chips:         servedChips,
		BlocksPerChip: servedBlocksPerChip,
		PageSize:      servedPageSize,
		BufferFrames:  servedPool(quick),
		PoolShards:    servedPoolShards,
		Node: repl.Config{
			HeartbeatInterval: 50 * time.Millisecond,
			ElectionTimeout:   time.Second,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return cl, nil
}
