package server_test

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipa/internal/client"
	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/netload"
	"ipa/internal/server"
	"ipa/internal/wire"
)

// mvccAcctStack is acctStack with the version store on and n account
// rows.
func mvccAcctStack(t *testing.T, n int) (*engine.DB, *server.Server, *engine.Table, *engine.Table, []core.RID, []wire.RID) {
	t.Helper()
	db, tl := newStackOpts(t, engine.Options{PageSize: 1024, BufferFrames: 512, MVCC: true})
	acct, err := db.CreateTable("acct", "data")
	if err != nil {
		t.Fatal(err)
	}
	hist, err := db.CreateTable("hist", "data")
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, db)
	erids := make([]core.RID, n)
	rids := make([]wire.RID, n)
	for i := range rids {
		if erids[i], err = acct.Insert(tx, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		rids[i] = wire.RID{Page: uint64(erids[i].Page), Slot: erids[i].Slot}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db, Timeline: tl})
	if err != nil {
		t.Fatal(err)
	}
	return db, srv, acct, hist, erids, rids
}

// reap waits for a version-reaper pass that prunes every version: a
// finished snapshot pokes the reaper, and with no snapshot pinned and no
// transaction open a pass keeps nothing.
func reap(t *testing.T, db *engine.DB) {
	t.Helper()
	snap, err := db.BeginSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := db.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.MVCC.VersionsLive == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d versions live 5 s after a finished snapshot poked the reaper", st.MVCC.VersionsLive)
		}
	}
}

// A served TPC-B transaction — BEGIN, three ADDFIELD, the history
// INSERT, COMMIT, pipelined through one session — allocates no more
// than the same transaction run on the engine and released: the session
// hands each ended engine.Tx back, so the next BEGIN draws it again
// instead of allocating one. MVCC is on, and 3 000 transactions of each
// kind come first, and a reaper pass before each measurement, so that
// before-images go into recycled version entries
// (TestTPCBTransactionAllocs, internal/engine).
func TestServedTPCBTransactionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops released handles at random")
	}
	db, srv, acct, hist, erids, rids := mvccAcctStack(t, 3)
	defer db.Close()
	sess := srv.NewTestSession()
	burst := []wire.Frame{{ID: 1, Kind: wire.OpBegin, Payload: txPayload(1)}}
	for i, rid := range rids {
		burst = append(burst, wire.Frame{ID: uint64(2 + i), Kind: wire.OpAddField, Payload: addFieldPayload(1, "acct", rid, 8, 1)})
	}
	burst = append(burst,
		wire.Frame{ID: 5, Kind: wire.OpInsert, Payload: insertPayload(1, "hist", make([]byte, 28))},
		wire.Frame{ID: 6, Kind: wire.OpCommit, Payload: txPayload(1)})
	served := func() {
		for _, f := range burst {
			sess.Handle(f)
		}
	}
	row := make([]byte, 28)
	direct := func() {
		tx, err := db.Begin(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, rid := range erids {
			if err := acct.AddField(tx, rid, 8, 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := hist.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := tx.Release(); err != nil {
			t.Fatal(err)
		}
	}
	for range 3000 {
		served()
		direct()
	}
	// Each measurement starts from free lists a reaper pass filled: its
	// 800 stamped versions stay below the batch that pokes the reaper.
	reap(t, db)
	perTx := testing.AllocsPerRun(200, served)
	reap(t, db)
	bare := testing.AllocsPerRun(200, direct)
	t.Logf("TPC-B transaction: %.0f allocations served, %.0f on the engine with Release", perTx, bare)
	if perTx > bare {
		t.Errorf("a served TPC-B transaction allocates %.0f times, the released engine transaction %.0f", perTx, bare)
	}
	st, err := srv.StatsDocument()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Ops["COMMIT"].Count, uint64(3201); got != want {
		t.Errorf("COMMIT served %d times, want %d", got, want)
	}
	if got, want := counterSum(t, acct, erids), uint64(3*2*3201); got != want {
		t.Errorf("balances sum to %d, want %d: not every transaction committed", got, want)
	}
}

// counterSum adds up the balances (offset 8) of the account rows.
func counterSum(t *testing.T, acct *engine.Table, rids []core.RID) uint64 {
	t.Helper()
	var sum uint64
	for _, rid := range rids {
		row, err := acct.Read(nil, rid)
		if err != nil {
			t.Fatal(err)
		}
		sum += binary.LittleEndian.Uint64(row[8:])
	}
	return sum
}

// Sessions that begin, commit, abort, fail on a lock conflict and drop
// their connection with a transaction open — every path that ends an
// engine.Tx and releases it — run while snapshots scan both tables. A
// handle released while still in use, or twice, would be drawn by two
// transactions at once: the race detector sees the shared handle, and a
// snapshot or the final audit sees a sum that no serial history gives.
// Every transaction adds 1 to two account rows and inserts one history
// row, so each snapshot's balances must sum to twice its history rows.
func TestRecycledTxUnderSnapshotScans(t *testing.T) {
	_, srv, _, _, _, rids := mvccAcctStack(t, 6)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(5 * time.Second)
	addr := ln.Addr().String()

	const writers, rounds = 4, 120
	var committed atomic.Int64
	errs := make(chan error, writers+1)
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				errs <- err
				return
			}
			defer func() { c.Close() }()
			for i := range rounds {
				a, b := rng.Intn(len(rids)), rng.Intn(len(rids)-1)
				if b >= a {
					b++
				}
				tx := c.NewTxID()
				pend := []*client.Pending{
					c.BeginAsync(tx),
					c.AddFieldAsync(tx, "acct", rids[a], 8, 1),
				}
				if i%5 == 4 {
					// Orphaned: the session aborts and releases it. A lock
					// conflict only poisons it, so the replies do not matter.
					for _, p := range pend {
						_, _ = p.Wait()
					}
					c.Close()
					if c, err = client.Dial(addr, client.Options{}); err != nil {
						errs <- err
						return
					}
					continue
				}
				pend = append(pend,
					c.AddFieldAsync(tx, "acct", rids[b], 8, 1),
					c.InsertAsync(tx, "hist", make([]byte, 8)))
				end := wire.OpCommit
				if i%5 == 3 {
					end = wire.OpAbort
				}
				pend = append(pend, c.DoAsync(end, txPayload(tx)))
				var first error
				for _, p := range pend {
					if _, err := p.Wait(); err != nil && first == nil {
						first = err
					}
				}
				switch {
				case first == nil && end == wire.OpCommit:
					committed.Add(1)
				case first != nil && !netload.Aborted(first):
					errs <- first
					return
				}
			}
		}()
	}

	audit := func(c *client.Conn) (rows int, err error) {
		snap, _, err := c.BeginSnapshot()
		if err != nil {
			return 0, err
		}
		acct, err := c.SnapshotScan(snap, "acct", 0)
		if err != nil {
			return 0, err
		}
		hist, err := c.SnapshotScan(snap, "hist", 0)
		if err != nil {
			return 0, err
		}
		if err := c.Commit(snap); err != nil {
			return 0, err
		}
		var sum uint64
		for _, e := range acct {
			sum += binary.LittleEndian.Uint64(e.Data[8:16])
		}
		if sum != 2*uint64(len(hist)) {
			return 0, errors.New("a snapshot's balances do not sum to twice its history rows")
		}
		return len(hist), nil
	}
	reader, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// The last audit starts after every writer has returned.
	audits, rows := 0, 0
	for running := true; running; audits++ {
		select {
		case <-done:
			running = false
		default:
		}
		if rows, err = audit(reader); err != nil {
			t.Fatalf("audit %d: %v", audits, err)
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := committed.Load(); rows != int(n) || n == 0 {
		t.Fatalf("the last audit sees %d history rows, the writers committed %d", rows, n)
	}
	t.Logf("%d committed, %d audits", committed.Load(), audits)
}
