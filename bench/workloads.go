package main

import (
	"fmt"
	"math/rand"
	"time"

	"ipa/internal/client"
	"ipa/internal/engine"
	"ipa/internal/repl"
	"ipa/internal/server"
)

// Scales. The flash workloads keep rows ≫ clients and the database ≫
// the pool (10 % of its pages); flash holds ≈1.6× the final database,
// so the collector is in steady state once the warm-up has filled it.
// -quick divides rows by 100 for the smoke test.
const (
	flashBranches       = 32
	flashAccountsPerBr  = 20000 // 640k accounts, ≈22.8k pages
	flashPoolFrac       = 0.10
	flashPagesPerKRows  = 62 // physical pages per 1000 rows: ≈1.6× final database
	flashOverProvision  = 0.25
	ycsbRows            = 640000
	servedBranches      = 32
	servedAccountsPerBr = 2000 // 64k accounts, buffer-resident

	flashTPCBWarmup = 40000  // per client: fills the device and starts GC
	ycsbAging       = 60000  // per client, updates only: fills the device and starts GC
	ycsbWarmup      = 120000 // per client, aging included: the rest warms the pool
	servedWarmup    = 1500   // per client
	clusterWarmup   = 300    // per client
)

func scaleDown(n int, quick bool) int {
	if quick {
		return n / 100
	}
	return n
}

func flashPagesFor(rows int) flashSpec {
	pages := rows * flashPagesPerKRows / 1000
	// The collector reserves two blocks per chip; below eight it has no
	// room to work in.
	if min := 8 * flashChips * flashPagesPerBlock; pages < min {
		pages = min
	}
	return flashSpec{physPages: pages, overProvision: flashOverProvision}
}

var workloads = []workload{
	{name: "tpcb-flash", flash: true, warmup: flashTPCBWarmup, build: buildFlashTPCB},
	{name: "ycsb-read-flash", flash: true, warmup: ycsbWarmup, build: buildFlashYCSB},
	{name: "tpcb-wire", warmup: servedWarmup, build: buildWireTPCB},
	// A cluster commit is mostly the 1 ms sleep of a caught-up shipper.
	{name: "tpcb-cluster", warmup: clusterWarmup, timerBound: true, build: buildClusterTPCB},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// engineSnapshot fills the part of a snapshot every instance has.
func engineSnapshot(e *embedded, eng engine.Stats) snapshot {
	return snapshot{eng: eng, mapped: e.mappedPages(), pageSize: e.dev.Geometry().PageSize}
}

// snapshot and replStats of a stack with no server and no cluster; the
// served instances override them.
func (e *embedded) snapshot() (snapshot, error) {
	eng, err := e.db.Stats()
	return engineSnapshot(e, eng), err
}

func (e *embedded) replStats() func() repl.Stats { return nil }

// --- tpcb-flash --------------------------------------------------------

type flashTPCB struct {
	*embedded
	d    *tpcbData
	gens []*tpcbGen
}

func buildFlashTPCB(quick bool, seed int64) (instance, error) {
	sc := tpcbScale{flashBranches, scaleDown(flashAccountsPerBr, quick)}
	fs := flashPagesFor(sc.accounts())
	e, err := newFlashDB(fs, fs.physPages/16, seed)
	if err != nil {
		return nil, err
	}
	w := e.tl.NewWorker()
	inst := &flashTPCB{embedded: e}
	if inst.d, err = loadTPCB(e.db, w, sc, true); err != nil {
		e.close()
		return nil, err
	}
	if err = e.resizePool(w, flashPoolFrac); err != nil {
		e.close()
		return nil, err
	}
	return inst, nil
}

func (f *flashTPCB) newClient(i int, seed int64, tr *tracer) (txClient, error) {
	gen := newTPCBGen(f.d.scale, i, nClients, seed)
	f.gens = append(f.gens, gen)
	w := f.tl.NewWorker()
	w.SetNow(f.tl.Horizon())
	return &embeddedTPCB{d: f.d, db: f.db, w: w, gen: gen, tr: tr}, nil
}

func (f *flashTPCB) history() uint64 {
	var n uint64
	for _, g := range f.gens {
		n += g.n - uint64(len(g.unacked))
	}
	return n
}

func (f *flashTPCB) sizes() map[string]float64 {
	return map[string]float64{
		"accounts":     float64(f.d.scale.accounts()),
		"pool_frames":  float64(f.frames),
		"mapped_pages": float64(f.mappedPages()),
		"flash_pages":  float64(f.dev.Geometry().TotalPages()),
		"user_bytes":   f.d.scale.userBytes(f.history()),
	}
}

// check audits the live state, then crashes the engine, recovers it
// from flash and the log, and audits again: acknowledged writes must be
// readable after a restart.
func (f *flashTPCB) check() []string {
	w := f.tl.NewWorker()
	fails := checkTPCB("live", engineScan(f.db, w), f.d.scale, f.gens)
	if err := f.db.SimulateCrash(); err != nil {
		return append(fails, "crash: "+err.Error())
	}
	if _, err := f.db.Recover(w); err != nil {
		return append(fails, "recover: "+err.Error())
	}
	return append(fails, checkTPCB("after crash+recover", engineScan(f.db, w), f.d.scale, f.gens)...)
}

// --- ycsb-read-flash ---------------------------------------------------

type flashYCSB struct {
	*embedded
	d       *ycsbData
	aging   int // per client
	clients []*ycsbClient
}

func buildFlashYCSB(quick bool, seed int64) (instance, error) {
	rows := scaleDown(ycsbRows, quick)
	fs := flashPagesFor(rows)
	e, err := newFlashDB(fs, fs.physPages/16, seed)
	if err != nil {
		return nil, err
	}
	w := e.tl.NewWorker()
	inst := &flashYCSB{embedded: e, aging: scaleDown(ycsbAging, quick)}
	if inst.d, err = loadYCSB(e.db, w, rows); err != nil {
		e.close()
		return nil, err
	}
	if err = e.resizePool(w, flashPoolFrac); err != nil {
		e.close()
		return nil, err
	}
	return inst, nil
}

func (f *flashYCSB) newClient(i int, seed int64, tr *tracer) (txClient, error) {
	w := f.tl.NewWorker()
	w.SetNow(f.tl.Horizon())
	c := &ycsbClient{d: f.d, db: f.db, w: w, rng: rand.New(rand.NewSource(seed)),
		client: i, clients: nClients, tr: tr, aging: f.aging}
	f.clients = append(f.clients, c)
	return c, nil
}

func (f *flashYCSB) sizes() map[string]float64 {
	return map[string]float64{
		"rows":         float64(f.d.rows),
		"pool_frames":  float64(f.frames),
		"mapped_pages": float64(f.mappedPages()),
		"flash_pages":  float64(f.dev.Geometry().TotalPages()),
		"user_bytes":   float64(f.d.rows) * rowSize,
	}
}

func (f *flashYCSB) check() []string {
	return checkYCSB("live", engineScan(f.db, f.tl.NewWorker()), f.d, f.clients)
}

// --- tpcb-wire ---------------------------------------------------------

type wireInstance struct {
	*standalone
	d       *tpcbData
	gens    []*tpcbGen
	clients []*wireTPCB
}

func servedScale(quick bool) tpcbScale {
	return tpcbScale{servedBranches, scaleDown(servedAccountsPerBr, quick)}
}

func buildWireTPCB(quick bool, _ int64) (instance, error) {
	s, err := newStandalone(quick)
	if err != nil {
		return nil, err
	}
	d, err := loadTPCB(s.db, s.tl.NewWorker(), servedScale(quick), false)
	if err != nil {
		s.close()
		return nil, err
	}
	return &wireInstance{standalone: s, d: d}, nil
}

func (s *wireInstance) newClient(i int, seed int64, tr *tracer) (txClient, error) {
	conn, err := client.Dial(s.addr, client.Options{})
	if err != nil {
		return nil, err
	}
	gen := newTPCBGen(s.d.scale, i, nClients, seed)
	c := &wireTPCB{d: s.d, conn: conn, gen: gen, tr: tr}
	s.gens, s.clients = append(s.gens, gen), append(s.clients, c)
	return c, nil
}

// servedSnapshot fills a snapshot from a server's stats document and
// the wire scripts' own frame counts.
func servedSnapshot(e *embedded, srv *server.Server, clients []*wireTPCB) (snapshot, error) {
	doc, err := srv.StatsDocument()
	if err != nil {
		return snapshot{}, err
	}
	s := engineSnapshot(e, doc.Engine)
	s.served, s.ops, s.srv = true, doc.Ops, doc.Server
	for _, c := range clients {
		s.wireFrames += c.frames
		s.wireBytes += c.bytes
	}
	return s, nil
}

func (s *wireInstance) snapshot() (snapshot, error) {
	return servedSnapshot(s.embedded, s.srv, s.clients)
}

func servedSizes(sc tpcbScale, e *embedded) map[string]float64 {
	return map[string]float64{
		"accounts":     float64(sc.accounts()),
		"pool_frames":  float64(e.frames),
		"mapped_pages": float64(e.mappedPages()),
	}
}

func (s *wireInstance) sizes() map[string]float64 { return servedSizes(s.d.scale, s.embedded) }

func (s *wireInstance) check() []string {
	return checkTPCB("server", engineScan(s.db, s.tl.NewWorker()), s.d.scale, s.gens)
}

// --- tpcb-cluster ------------------------------------------------------

type clusterInstance struct {
	cl      *repl.Cluster
	lead    *repl.Member
	e       *embedded // the leader's stack
	pool    *client.Pool
	d       *tpcbData
	gens    []*tpcbGen
	clients []*wireTPCB
}

func buildClusterTPCB(quick bool, _ int64) (instance, error) {
	cl, err := newCluster(quick)
	if err != nil {
		return nil, err
	}
	lead := cl.Members[0] // node 1 bootstraps as leader
	d, err := loadTPCB(lead.DB, lead.TL.NewWorker(), servedScale(quick), false)
	if err != nil {
		cl.Close()
		return nil, err
	}
	c := &clusterInstance{cl: cl, lead: lead, d: d,
		e:    &embedded{db: lead.DB, tl: lead.TL, dev: lead.DB.Device(), frames: servedPool(quick)},
		pool: cl.Pool(client.Options{RequestTimeout: 5 * time.Second})}
	// The load reaches the followers through the log; measuring starts
	// once they have replayed it.
	if err := c.waitFollowers(30 * time.Second); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// waitFollowers blocks until every follower has applied the leader's
// current log head.
func (c *clusterInstance) waitFollowers(timeout time.Duration) error {
	head := c.lead.Node.Stats().HeadLSN
	deadline := time.Now().Add(timeout)
	for _, m := range c.cl.Members {
		for m != c.lead && uint64(m.Node.AppliedLSN()) < head {
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster: node %d applied %d of %d within %v",
					m.ID, m.Node.AppliedLSN(), head, timeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (c *clusterInstance) newClient(i int, seed int64, tr *tracer) (txClient, error) {
	gen := newTPCBGen(c.d.scale, i, nClients, seed)
	w := &wireTPCB{d: c.d, pool: c.pool, gen: gen, tr: tr}
	c.gens, c.clients = append(c.gens, gen), append(c.clients, w)
	return w, nil
}

func (c *clusterInstance) snapshot() (snapshot, error) {
	s, err := servedSnapshot(c.e, c.lead.Server, c.clients)
	s.replicated, s.repl = true, c.lead.Node.Stats()
	return s, err
}

func (c *clusterInstance) replStats() func() repl.Stats { return c.lead.Node.Stats }

func (c *clusterInstance) sizes() map[string]float64 { return servedSizes(c.d.scale, c.e) }

// check audits the leader in process and a follower through one MVCC
// snapshot scan over the wire, after the follower has caught up.
func (c *clusterInstance) check() []string {
	fails := checkTPCB("leader", engineScan(c.lead.DB, c.lead.TL.NewWorker()), c.d.scale, c.gens)
	if err := c.waitFollowers(10 * time.Second); err != nil {
		return append(fails, err.Error())
	}
	follower := c.cl.Members[1]
	conn, err := client.Dial(follower.Addr, client.Options{})
	if err != nil {
		return append(fails, "follower: "+err.Error())
	}
	defer conn.Close()
	scan, done, err := snapshotScan(conn)
	if err != nil {
		return append(fails, "follower snapshot: "+err.Error())
	}
	defer done()
	return append(fails, checkTPCB("follower snapshot", scan, c.d.scale, c.gens)...)
}

func (c *clusterInstance) close() {
	c.pool.Close()
	c.cl.Close()
}
