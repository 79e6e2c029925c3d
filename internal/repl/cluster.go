package repl

import (
	"fmt"
	"net"
	"time"

	"ipa/internal/client"
	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/server"
	"ipa/internal/sim"
)

// Cluster is an in-process N-node replicated deployment: each member
// gets its own simulated flash array, NoFTL region, engine, repl node
// and TCP server. Node 1 bootstraps as leader of term 1. Used by the
// failover tests and the replication benchmarks; cmd/ipaserver wires
// the same pieces across real processes.
type Cluster struct {
	Members []*Member
}

// Member is one node of an in-process cluster.
type Member struct {
	ID     uint64
	Addr   string
	DB     *engine.DB
	TL     *sim.Timeline
	Node   *Node
	Server *server.Server

	killed bool
	closed bool
}

// ClusterConfig sizes an in-process cluster.
type ClusterConfig struct {
	N             int // members (default 3)
	Chips         int // flash chips per member (default 8)
	BlocksPerChip int // per chip (default 256)
	PageSize      int // flash/page size (default 1024)
	BufferFrames  int // buffer pool frames (default 1024)
	PoolShards    int // engine pool shards (default 8)
	LogCapacity   int // 0 = unbounded (new members replay from LSN 1)

	Node Config               // timing/batching knobs; identity fields are overwritten
	Logf func(string, ...any) // optional; fans into every layer
}

func (c *ClusterConfig) defaults() {
	if c.N <= 0 {
		c.N = 3
	}
	if c.Chips <= 0 {
		c.Chips = 8
	}
	if c.BlocksPerChip <= 0 {
		c.BlocksPerChip = 256
	}
	if c.PageSize <= 0 {
		c.PageSize = 1024
	}
	if c.BufferFrames <= 0 {
		c.BufferFrames = 1024
	}
}

// DefaultPoolShards is the buffer pool shard count of a served stack:
// what NewMemberDB turns 0 into.
const DefaultPoolShards = 8

// PagesPerBlock is the erase-block size NewMemberDB builds, for callers
// that size BlocksPerChip from a page count.
const PagesPerBlock = 32

// MemberSpec sizes one served flash → NoFTL → engine stack.
type MemberSpec struct {
	Chips         int
	BlocksPerChip int
	PageSize      int
	BufferFrames  int
	PoolShards    int // 0 = DefaultPoolShards
	LogCapacity   int // 0 = unbounded (new members replay from LSN 1)
	// Standalone leaves Options.Replicated off: the engine of a server
	// that is no cluster member.
	Standalone bool
	// NoIPA makes the region [0×0] / ModeNone instead of [2×3] SLC.
	NoIPA bool
}

// NewMemberDB builds the one stack every server serves: SLC flash, one
// "data" region with 15 % over-provisioning, a sharded pool and MVCC
// on. A cluster member and cmd/ipaserver's standalone engine differ
// only in Options.Replicated.
func NewMemberDB(s MemberSpec) (*engine.DB, *sim.Timeline, error) {
	if s.PoolShards <= 0 {
		s.PoolShards = DefaultPoolShards
	}
	g := flash.Geometry{
		Chips: s.Chips, BlocksPerChip: s.BlocksPerChip, PagesPerBlock: PagesPerBlock,
		PageSize: s.PageSize, OOBSize: 64, Cell: flash.SLC,
	}
	tl := sim.NewTimeline(g.Chips)
	arr, err := flash.New(flash.Config{
		Geometry: g, Timing: flash.SLCTiming(), StrictProgramOrder: true, MaxAppends: 8,
	}, tl)
	if err != nil {
		return nil, nil, err
	}
	dev := noftl.Open(arr)
	mode, scheme := noftl.ModeSLC, core.NewScheme(2, 3)
	if s.NoIPA {
		mode, scheme = noftl.ModeNone, core.Scheme{}
	}
	if _, err := dev.CreateRegion(noftl.RegionConfig{
		Name: "data", Mode: mode, Scheme: scheme,
		BlocksPerChip: s.BlocksPerChip, OverProvision: 0.15,
	}); err != nil {
		return nil, nil, err
	}
	db, err := engine.New(dev, engine.Options{
		PageSize:     s.PageSize,
		BufferFrames: s.BufferFrames,
		PoolShards:   s.PoolShards,
		LogCapacity:  s.LogCapacity,
		MVCC:         true,
		Replicated:   !s.Standalone,
		Timeline:     tl,
	})
	if err != nil {
		return nil, nil, err
	}
	return db, tl, nil
}

// NewCluster builds and starts an N-member cluster on ephemeral
// loopback ports. It returns once every server is accepting; leadership
// is already settled (node 1 bootstraps).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg.defaults()
	lns := make([]net.Listener, cfg.N)
	peers := make(map[uint64]string, cfg.N)
	for i := 0; i < cfg.N; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		peers[uint64(i+1)] = ln.Addr().String()
	}

	c := &Cluster{}
	for i := 0; i < cfg.N; i++ {
		id := uint64(i + 1)
		db, tl, err := NewMemberDB(MemberSpec{
			Chips: cfg.Chips, BlocksPerChip: cfg.BlocksPerChip, PageSize: cfg.PageSize,
			BufferFrames: cfg.BufferFrames, PoolShards: cfg.PoolShards, LogCapacity: cfg.LogCapacity,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		ncfg := cfg.Node
		ncfg.NodeID = id
		ncfg.Peers = peers
		ncfg.DB = db
		ncfg.TL = tl
		ncfg.Bootstrap = i == 0
		ncfg.Logf = cfg.Logf
		node, err := NewNode(ncfg)
		if err != nil {
			db.Close()
			c.Close()
			return nil, err
		}
		srv, err := server.New(server.Config{
			DB: db, Timeline: tl, Repl: node, Logf: cfg.Logf,
		})
		if err != nil {
			node.Stop()
			db.Close()
			c.Close()
			return nil, err
		}
		m := &Member{ID: id, Addr: peers[id], DB: db, TL: tl, Node: node, Server: srv}
		c.Members = append(c.Members, m)
		go srv.Serve(lns[i])
	}
	return c, nil
}

// Addrs returns every member's address (living or dead), in id order.
func (c *Cluster) Addrs() []string {
	addrs := make([]string, 0, len(c.Members))
	for _, m := range c.Members {
		addrs = append(addrs, m.Addr)
	}
	return addrs
}

// Leader returns the current leader, or nil when no live member leads.
func (c *Cluster) Leader() *Member {
	for _, m := range c.Members {
		if !m.killed && m.Node.IsLeader() {
			return m
		}
	}
	return nil
}

// WaitLeader blocks until some live member assumes leadership.
func (c *Cluster) WaitLeader(timeout time.Duration) (*Member, error) {
	deadline := time.Now().Add(timeout)
	for {
		if m := c.Leader(); m != nil {
			return m, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("repl: no leader within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Kill crash-stops a member: connections drop mid-request, nothing
// drains, the engine is abandoned. The cluster's answer is an election.
func (c *Cluster) Kill(id uint64) {
	for _, m := range c.Members {
		if m.ID != id || m.killed {
			continue
		}
		m.killed = true
		m.Server.Kill()
		m.Node.Stop()
	}
}

// Pool returns a cluster-aware client pool seeded with every member.
func (c *Cluster) Pool(opts client.Options) *client.Pool {
	return client.NewClusterPool(c.Addrs(), opts)
}

// Close stops every member. Killed members still get their engines
// closed so the test process does not leak version-reaper goroutines.
func (c *Cluster) Close() {
	for _, m := range c.Members {
		if m.closed {
			continue
		}
		m.closed = true
		if m.killed {
			m.DB.Close()
			continue
		}
		m.Node.Stop()
		m.Server.Shutdown(10 * time.Second)
	}
}
