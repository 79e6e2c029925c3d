package server_test

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"ipa/internal/client"
	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/metrics"
	"ipa/internal/noftl"
	"ipa/internal/server"
	"ipa/internal/sim"
	"ipa/internal/wire"
)

// newStack builds the flash → NoFTL → engine stack the server tests
// run on: 8 SLC chips, IPA [2x3] on the data region, 1 KiB pages.
func newStack(tb testing.TB) (*engine.DB, *sim.Timeline) {
	tb.Helper()
	return newStackOpts(tb, engine.Options{PageSize: 1024, BufferFrames: 512})
}

// newStackOpts is newStack with caller-chosen engine options (the
// snapshot tests need MVCC on). PageSize must stay 1024 and Timeline is
// filled in here.
func newStackOpts(tb testing.TB, opts engine.Options) (*engine.DB, *sim.Timeline) {
	tb.Helper()
	g := flash.Geometry{
		Chips: 8, BlocksPerChip: 128, PagesPerBlock: 32,
		PageSize: 1024, OOBSize: 64, Cell: flash.SLC,
	}
	tl := sim.NewTimeline(g.Chips)
	arr, err := flash.New(flash.Config{
		Geometry: g, Timing: flash.SLCTiming(), StrictProgramOrder: true, MaxAppends: 8,
	}, tl)
	if err != nil {
		tb.Fatal(err)
	}
	dev := noftl.Open(arr)
	if _, err := dev.CreateRegion(noftl.RegionConfig{
		Name: "data", Mode: noftl.ModeSLC, Scheme: core.NewScheme(2, 3),
		BlocksPerChip: 128, OverProvision: 0.15,
	}); err != nil {
		tb.Fatal(err)
	}
	opts.Timeline = tl
	db, err := engine.New(dev, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return db, tl
}

// startServer serves a DB on an ephemeral port (plus an admin port) and
// returns the server and both addresses.
func startServer(tb testing.TB, db *engine.DB, tl *sim.Timeline, cfg server.Config) (*server.Server, string, string) {
	tb.Helper()
	cfg.DB = db
	cfg.Timeline = tl
	srv, err := server.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	go srv.ServeAdmin(adminLn)
	return srv, ln.Addr().String(), adminLn.Addr().String()
}

func le64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// acceptableStop reports whether a client error is a legitimate way for
// a transaction to die during a server drain: connection loss, explicit
// closed/busy statuses, a request timeout, or a commit whose BEGIN was
// dropped at the drain boundary (StatusTxClosed). Anything else — a
// poisoned transaction, a missing table or tuple, an internal error —
// is a bug on disjoint key ranges.
func acceptableStop(err error) bool {
	if errors.Is(err, wire.ErrClosed) || errors.Is(err, wire.ErrBusy) ||
		errors.Is(err, wire.ErrTxClosed) || errors.Is(err, client.ErrTimeout) {
		return true
	}
	var se *wire.StatusError
	return !errors.As(err, &se) // transport-level loss, not a server status
}

// TestServerIntegration is the acceptance test of the network layer:
// an in-process server, 64 concurrent connections driving pipelined
// mixed transactions (field update + journal insert per commit), the
// admin endpoint decoded mid-load, a graceful shutdown racing the load,
// and a crash/recover cycle that must preserve every acknowledged
// commit.
func TestServerIntegration(t *testing.T) {
	const numClients = 64

	db, tl := newStack(t)
	counters, err := db.CreateTable("counters", "data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("journal", "data"); err != nil {
		t.Fatal(err)
	}
	// One 16-byte counter tuple per client: disjoint key ranges, so no
	// transaction may legitimately abort on a lock conflict.
	engineRIDs := make([]core.RID, numClients)
	setup := mustBegin(t, db)
	for i := range engineRIDs {
		if engineRIDs[i], err = counters.Insert(setup, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	srv, addr, adminAddr := startServer(t, db, tl, server.Config{})

	type outcome struct {
		acked     uint64 // last value whose COMMIT was acknowledged OK
		attempted uint64 // last value any frame was sent for
		stop      error  // why the loop ended
	}
	outcomes := make([]outcome, numClients)
	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{RequestTimeout: 10 * time.Second})
			if err != nil {
				outcomes[i].stop = err
				return
			}
			defer c.Close()
			rid := wire.RID{Page: uint64(engineRIDs[i].Page), Slot: engineRIDs[i].Slot}
			for v := uint64(1); ; v++ {
				outcomes[i].attempted = v
				tx := c.NewTxID()
				entry := make([]byte, 24)
				binary.LittleEndian.PutUint64(entry, uint64(i))
				binary.LittleEndian.PutUint64(entry[8:], v)
				pend := []*client.Pending{c.BeginAsync(tx)}
				if v%3 == 0 {
					// Mixed op shape: every third transaction rewrites the
					// whole tuple instead of the 8-byte field delta.
					tuple := make([]byte, 16)
					binary.LittleEndian.PutUint64(tuple, v)
					pend = append(pend, c.UpdateAsync(tx, "counters", rid, tuple))
				} else {
					pend = append(pend, c.UpdateFieldAsync(tx, "counters", rid, 0, le64(v)))
				}
				pend = append(pend,
					c.InsertAsync(tx, "journal", entry),
					c.CommitAsync(tx),
				)
				var firstErr error
				for _, p := range pend {
					if _, err := p.Wait(); err != nil && firstErr == nil {
						firstErr = err
					}
				}
				if firstErr != nil {
					outcomes[i].stop = firstErr
					return
				}
				outcomes[i].acked = v
			}
		}(i)
	}

	// Let the load build, then decode the admin endpoint mid-flight.
	time.Sleep(300 * time.Millisecond)
	var doc struct {
		Engine engine.Stats                       `json:"engine"`
		Ops    map[string]metrics.LatencySnapshot `json:"ops"`
		Server server.Counters                    `json:"server"`
	}
	resp, err := http.Get("http://" + adminAddr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin /stats = %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("admin JSON does not decode: %v", err)
	}
	resp.Body.Close()
	// WAL.Flushes is non-zero as soon as any commit is acknowledged;
	// Flash.Programs would race the first buffer-pool eviction.
	if doc.Engine.WAL.Flushes == 0 {
		t.Error("admin engine stats empty mid-load")
	}
	// The footprint gauges ride the same document: inserts have bound
	// frames by now, whatever the device holds.
	if doc.Engine.Pool.FramesAllocated == 0 {
		t.Error("admin engine stats: Pool.FramesAllocated = 0 mid-load")
	}
	for _, op := range []string{"BEGIN", "COMMIT", "INSERT"} {
		snap, ok := doc.Ops[op]
		if !ok || snap.Count == 0 || len(snap.Buckets) == 0 {
			t.Errorf("admin latency histogram for %s empty: %+v", op, snap)
		}
	}
	if doc.Server.ConnsActive == 0 {
		t.Error("no active connections mid-load")
	}

	// Graceful shutdown races the load: drain sessions, abort orphans,
	// close the DB.
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	var totalAcked uint64
	for i := range outcomes {
		o := outcomes[i]
		if o.acked == 0 {
			t.Errorf("client %d never committed (stop: %v)", i, o.stop)
		}
		if o.stop != nil && !acceptableStop(o.stop) {
			t.Errorf("client %d stopped on unexpected error: %v", i, o.stop)
		}
		totalAcked += o.acked
	}
	t.Logf("drained with %d acknowledged commits across %d clients", totalAcked, numClients)

	// The DB is closed now; "reopen the device" is a crash/recover cycle
	// on the same instance (the WAL lives with it). Every acknowledged
	// commit must survive; values past the last acknowledgement may only
	// appear if the commit applied and the ack was lost in the drain.
	if _, err := db.Begin(nil); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("Begin after Shutdown: %v, want ErrClosed", err)
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Recover(nil); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for i := range outcomes {
		data, err := counters.Read(nil, engineRIDs[i])
		if err != nil {
			t.Fatalf("client %d counter unreadable after recovery: %v", i, err)
		}
		v := binary.LittleEndian.Uint64(data)
		if v < outcomes[i].acked {
			t.Errorf("client %d lost committed update: recovered %d < acked %d",
				i, v, outcomes[i].acked)
		}
		if v > outcomes[i].attempted {
			t.Errorf("client %d recovered %d beyond last attempt %d",
				i, v, outcomes[i].attempted)
		}
	}
	if _, err := db.Stats(); err != nil {
		t.Fatalf("Stats after recovery: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustBegin(t *testing.T, db *engine.DB) *engine.Tx {
	t.Helper()
	tx, err := db.Begin(nil)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// TestPipelinedPoisonCommit: a failed op in a pipelined transaction
// poisons it — later ops answer StatusTxPoisoned, COMMIT aborts instead
// of committing the partial prefix, and the connection stays usable.
func TestPipelinedPoisonCommit(t *testing.T) {
	db, tl := newStack(t)
	tbl, err := db.CreateTable("t", "data")
	if err != nil {
		t.Fatal(err)
	}
	setup := mustBegin(t, db)
	erid, err := tbl.Insert(setup, le64(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	srv, addr, _ := startServer(t, db, tl, server.Config{})
	defer srv.Shutdown(5 * time.Second)

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rid := wire.RID{Page: uint64(erid.Page), Slot: erid.Slot}

	tx := c.NewTxID()
	pBegin := c.BeginAsync(tx)
	pGood := c.UpdateFieldAsync(tx, "t", rid, 0, le64(99)) // applies, then must roll back
	pBad := c.UpdateAsync(tx, "no_such_table", rid, le64(1))
	pAfter := c.UpdateFieldAsync(tx, "t", rid, 0, le64(100)) // after the poison: rejected
	pCommit := c.CommitAsync(tx)

	if _, err := pBegin.Wait(); err != nil {
		t.Fatalf("BEGIN: %v", err)
	}
	if _, err := pGood.Wait(); err != nil {
		t.Fatalf("first update: %v", err)
	}
	if _, err := pBad.Wait(); !errors.Is(err, wire.ErrNoTable) {
		t.Fatalf("bad-table update: %v, want ErrNoTable", err)
	}
	if _, err := pAfter.Wait(); !errors.Is(err, wire.ErrTxPoisoned) {
		t.Fatalf("op after poison: %v, want ErrTxPoisoned", err)
	}
	if _, err := pCommit.Wait(); !errors.Is(err, wire.ErrTxPoisoned) {
		t.Fatalf("COMMIT of poisoned tx: %v, want ErrTxPoisoned", err)
	}

	// The poisoned transaction rolled back: the committed value stands.
	data, err := c.Read("t", rid)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint64(data); v != 7 {
		t.Fatalf("tuple = %d after poisoned tx, want 7", v)
	}

	// The connection survives and a fresh transaction commits.
	tx2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.UpdateFieldAsync(tx2, "t", rid, 0, le64(8)).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	if data, err = c.Read("t", rid); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint64(data); v != 8 {
		t.Fatalf("tuple = %d after clean tx, want 8", v)
	}

	// The STATS op serves the same document as the admin endpoint.
	raw, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var doc server.StatsDocument
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("STATS JSON: %v", err)
	}
	if doc.Ops["COMMIT"].Count == 0 {
		t.Error("STATS op latency histograms empty")
	}
	if doc.Server.Requests == 0 {
		t.Error("STATS server counters empty")
	}
}

// TestScanAndDelete covers the remaining protocol ops end to end.
func TestScanAndDelete(t *testing.T) {
	db, tl := newStack(t)
	if _, err := db.CreateTable("s", "data"); err != nil {
		t.Fatal(err)
	}
	srv, addr, _ := startServer(t, db, tl, server.Config{})
	defer srv.Shutdown(5 * time.Second)

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rids := make([]wire.RID, 10)
	for i := range rids {
		if rids[i], err = c.Insert(tx, "s", le64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(tx); err != nil {
		t.Fatal(err)
	}

	entries, err := c.Scan("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 {
		t.Fatalf("scan found %d tuples, want 10", len(entries))
	}
	limited, err := c.Scan("s", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 3 {
		t.Fatalf("limited scan returned %d, want 3", len(limited))
	}

	tx2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(tx2, "s", rids[4]); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("s", rids[4]); !errors.Is(err, wire.ErrNoTuple) {
		t.Fatalf("read of deleted tuple: %v, want ErrNoTuple", err)
	}
	if entries, err = c.Scan("s", 0); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 9 {
		t.Fatalf("scan after delete found %d, want 9", len(entries))
	}

	// Commit of an unknown transaction handle.
	if err := c.Commit(12345); !errors.Is(err, wire.ErrTxClosed) {
		t.Fatalf("commit of unknown tx: %v, want ErrTxClosed", err)
	}
}

// TestBusyAdmissionAtomicity: ops addressing an already-open
// transaction bypass the admission semaphore, so a saturated server
// cannot BUSY-reject the middle of a pipelined BEGIN..COMMIT burst and
// half-commit it. With the only slot occupied, a burst whose BEGIN was
// admitted earlier still runs to completion, a non-tx op is rejected
// BUSY, and a burst whose BEGIN is rejected applies nothing.
func TestBusyAdmissionAtomicity(t *testing.T) {
	db, tl := newStack(t)
	tbl, err := db.CreateTable("pairs", "data")
	if err != nil {
		t.Fatal(err)
	}
	setup := mustBegin(t, db)
	var pair [2]wire.RID
	for j := range pair {
		erid, err := tbl.Insert(setup, le64(0))
		if err != nil {
			t.Fatal(err)
		}
		pair[j] = wire.RID{Page: uint64(erid.Page), Slot: erid.Slot}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	srv, addr, _ := startServer(t, db, tl, server.Config{
		MaxInflight:    1,
		AcquireTimeout: time.Millisecond,
	})
	defer srv.Shutdown(5 * time.Second)

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Admit a transaction while the slot is free, then saturate the
	// server: the rest of the burst must still execute.
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	release := srv.OccupySlot()
	pend := []*client.Pending{
		c.UpdateFieldAsync(tx, "pairs", pair[0], 0, le64(1)),
		c.UpdateFieldAsync(tx, "pairs", pair[1], 0, le64(1)),
		c.CommitAsync(tx),
	}
	for i, p := range pend {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("op %d of admitted burst under saturation: %v", i, err)
		}
	}
	// A non-tx op has no exemption and is rejected BUSY.
	if err := c.Ping(); !errors.Is(err, wire.ErrBusy) {
		t.Fatalf("PING under saturation: %v, want ErrBusy", err)
	}

	// A burst whose BEGIN is rejected applies nothing: the handle never
	// opens, so no op of it is exempt.
	tx2 := c.NewTxID()
	rejected := []*client.Pending{
		c.BeginAsync(tx2),
		c.UpdateFieldAsync(tx2, "pairs", pair[0], 0, le64(7)),
		c.UpdateFieldAsync(tx2, "pairs", pair[1], 0, le64(7)),
		c.CommitAsync(tx2),
	}
	if _, err := rejected[0].Wait(); !errors.Is(err, wire.ErrBusy) {
		t.Fatalf("BEGIN under saturation: %v, want ErrBusy", err)
	}
	for i, p := range rejected[1:] {
		if _, err := p.Wait(); !errors.Is(err, wire.ErrBusy) && !errors.Is(err, wire.ErrTxClosed) {
			t.Fatalf("op %d after rejected BEGIN: %v, want ErrBusy or ErrTxClosed", i, err)
		}
	}
	release()

	for j, rid := range pair {
		data, err := c.Read("pairs", rid)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint64(data); v != 1 {
			t.Errorf("tuple %d = %d, want 1 (admitted burst committed, rejected burst did not)", j, v)
		}
	}
	doc, err := srv.StatsDocument()
	if err != nil {
		t.Fatal(err)
	}
	if doc.Server.BusyRejected == 0 {
		t.Error("no BUSY rejections recorded")
	}
}
