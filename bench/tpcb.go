package main

import (
	"errors"
	"fmt"
	"math/rand"

	"ipa/internal/client"
	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/sim"
	"ipa/internal/wire"
)

// TPC-B, the benchmark's own copy: one Account_Update transaction —
// three 8-byte balance deltas on account, teller and branch, one
// history insert, commit. The generator, the loader and both scripts
// (embedded and wire) live here, so a change to internal/workload
// cannot move the load.

const (
	tpcbAccounts = "tpcb_account"
	tpcbTellers  = "tpcb_teller"
	tpcbBranches = "tpcb_branch"
	tpcbHistory  = "tpcb_history"

	tellersPerBranch = 10
	rowSize          = 100 // id(4) bid(4) balance(8) filler(84)
	histSize         = 28  // aid(4) tid(4) bid(4) delta(8) seq(8)
	balanceOff       = 8

	initAccount = 10_000
	initTeller  = 100_000
	initBranch  = 1_000_000
)

// Field indexes of the two schemas.
const (
	fID, fBID, fBalance            = 0, 1, 2
	hAID, hTID, hBID, hDelta, hSeq = 0, 1, 2, 3, 4
)

var (
	rowSchema  = mustSchema(4, 4, 8, 84)
	histSchema = mustSchema(4, 4, 4, 8, 8)
)

func mustSchema(widths ...int) *engine.Schema {
	s, err := engine.NewSchema(widths...)
	if err != nil {
		panic(err) // widths are constants
	}
	return s
}

// tpcbScale sizes the database; tellers are 10 per branch.
type tpcbScale struct {
	branches, accountsPerBranch int
}

func (s tpcbScale) accounts() int { return s.branches * s.accountsPerBranch }
func (s tpcbScale) tellers() int  { return s.branches * tellersPerBranch }

// userBytes is the live tuple volume with the given history rows.
func (s tpcbScale) userBytes(history uint64) float64 {
	return float64(s.accounts()+s.tellers()+s.branches)*rowSize + float64(history)*histSize
}

// tpcbData is what the loader leaves behind: table handles for the
// embedded script and every row's RID for both scripts (replication is
// physical, so RIDs are the same on every cluster member).
type tpcbData struct {
	scale tpcbScale

	account, teller, branch, history *engine.Table
	accountIdx                       engine.Index // nil when loaded without

	accountRIDs, tellerRIDs, branchRIDs []core.RID
}

// loadTPCB creates and fills the four tables through the engine, then
// flushes every page. withIndex also builds the account primary-key
// index (the embedded script looks accounts up; the wire protocol has
// no index op).
func loadTPCB(db *engine.DB, w *sim.Worker, sc tpcbScale, withIndex bool) (*tpcbData, error) {
	d := &tpcbData{scale: sc}
	var err error
	for _, t := range []struct {
		name string
		dst  **engine.Table
	}{{tpcbBranches, &d.branch}, {tpcbTellers, &d.teller}, {tpcbAccounts, &d.account}, {tpcbHistory, &d.history}} {
		if *t.dst, err = db.CreateTable(t.name, region); err != nil {
			return nil, err
		}
	}
	if withIndex {
		if d.accountIdx, err = db.CreateIndex("tpcb_account_pk", region); err != nil {
			return nil, err
		}
	}

	tx, err := db.Begin(w)
	if err != nil {
		return nil, err
	}
	inserted := 0
	insert := func(tbl *engine.Table, id, bid int, balance uint64) (core.RID, error) {
		row := rowSchema.New()
		rowSchema.SetUint(row, fID, uint64(id))
		rowSchema.SetUint(row, fBID, uint64(bid))
		rowSchema.SetUint(row, fBalance, balance)
		rid, err := tbl.Insert(tx, row)
		if err != nil {
			return rid, fmt.Errorf("load %s %d: %w", tbl.Name(), id, err)
		}
		// Batch-commit for load speed.
		if inserted++; inserted%2000 == 0 {
			if err := tx.Commit(); err != nil {
				return rid, err
			}
			if tx, err = db.Begin(w); err != nil {
				return rid, err
			}
		}
		return rid, nil
	}
	for b := 0; b < sc.branches; b++ {
		rid, err := insert(d.branch, b+1, b+1, initBranch)
		if err != nil {
			return nil, err
		}
		d.branchRIDs = append(d.branchRIDs, rid)
		for t := 0; t < tellersPerBranch; t++ {
			rid, err := insert(d.teller, b*tellersPerBranch+t+1, b+1, initTeller)
			if err != nil {
				return nil, err
			}
			d.tellerRIDs = append(d.tellerRIDs, rid)
		}
	}
	d.accountRIDs = make([]core.RID, 0, sc.accounts())
	for a := 0; a < sc.accounts(); a++ {
		rid, err := insert(d.account, a+1, a/sc.accountsPerBranch+1, initAccount)
		if err != nil {
			return nil, err
		}
		d.accountRIDs = append(d.accountRIDs, rid)
		if withIndex {
			if err := d.accountIdx.Insert(w, uint64(a+1), rid); err != nil {
				return nil, err
			}
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return d, db.FlushAll(w)
}

// tpcbTx is one generated Account_Update input.
type tpcbTx struct {
	account, teller, branch int // zero-based row numbers
	delta                   uint64
	seq                     uint64 // history key: client in the high bits
}

// tpcbGen is one client's input stream. A client draws only from its
// own branches (branch b belongs to client b mod clients), the way a
// TPC-B terminal belongs to a branch, so two clients never touch the
// same row and no attempt loses a no-wait lock race.
type tpcbGen struct {
	rng             *rand.Rand
	scale           tpcbScale
	client, clients int
	n               uint64 // inputs generated
	sumDelta        uint64 // over acknowledged inputs
	unacked         []uint64
}

func newTPCBGen(sc tpcbScale, client, clients int, seed int64) *tpcbGen {
	return &tpcbGen{rng: rand.New(rand.NewSource(seed)), scale: sc, client: client, clients: clients}
}

const seqClientShift = 40

func (g *tpcbGen) next() tpcbTx {
	own := (g.scale.branches - g.client + g.clients - 1) / g.clients
	b := g.client + g.clients*g.rng.Intn(own)
	g.n++
	return tpcbTx{
		branch:  b,
		teller:  b*tellersPerBranch + g.rng.Intn(tellersPerBranch),
		account: b*g.scale.accountsPerBranch + g.rng.Intn(g.scale.accountsPerBranch),
		delta:   uint64(g.rng.Intn(16_000_000) + 1), // spans the low balance bytes
		seq:     uint64(g.client+1)<<seqClientShift | g.n,
	}
}

// settle records whether the last generated input was acknowledged.
func (g *tpcbGen) settle(t tpcbTx, acked bool) {
	if acked {
		g.sumDelta += t.delta
	} else {
		g.unacked = append(g.unacked, t.seq)
	}
}

func historyRow(t tpcbTx) []byte {
	h := histSchema.New()
	histSchema.SetUint(h, hAID, uint64(t.account+1))
	histSchema.SetUint(h, hTID, uint64(t.teller+1))
	histSchema.SetUint(h, hBID, uint64(t.branch+1))
	histSchema.SetUint(h, hDelta, t.delta)
	histSchema.SetUint(h, hSeq, t.seq)
	return h
}

// outcome classifies one transaction attempt.
type outcome uint8

const (
	committed outcome = iota
	conflict          // aborted on a no-wait lock conflict (or poisoned by one)
	busy              // refused by admission control
	broken            // any other error: a correctness failure
	nOutcomes
)

// embeddedTPCB runs the script against engine.DB directly.
type embeddedTPCB struct {
	d   *tpcbData
	db  *engine.DB
	w   *sim.Worker
	gen *tpcbGen
	tr  *tracer
}

func (c *embeddedTPCB) simNow() sim.Time { return c.w.Now() }
func (c *embeddedTPCB) close()           {}

func (c *embeddedTPCB) do() (outcome, error) {
	t := c.gen.next()
	out, err := c.run(t)
	c.gen.settle(t, out == committed)
	return out, err
}

func (c *embeddedTPCB) run(t tpcbTx) (outcome, error) {
	d, tr := c.d, c.tr
	c.w.Compute(simTxCPU)

	arid := d.accountRIDs[t.account]
	if d.accountIdx != nil {
		at := tr.now()
		got, ok, err := d.accountIdx.Lookup(c.w, uint64(t.account+1))
		tr.child(spIdxLookup, at)
		if err != nil {
			return broken, err
		}
		if !ok || got != arid {
			return broken, fmt.Errorf("tpcb: index returned %v (found %v) for account %d, loaded at %v",
				got, ok, t.account+1, arid)
		}
	}

	at := tr.now()
	tx, err := c.db.Begin(c.w)
	tr.child(spBegin, at)
	if err != nil {
		return broken, err
	}
	for _, u := range [3]struct {
		tbl *engine.Table
		rid core.RID
	}{{d.account, arid}, {d.teller, d.tellerRIDs[t.teller]}, {d.branch, d.branchRIDs[t.branch]}} {
		at = tr.now()
		err := u.tbl.AddField(tx, u.rid, balanceOff, t.delta)
		tr.child(spAddField, at)
		if err != nil {
			return abortEmbedded(tx, err)
		}
	}
	at = tr.now()
	_, err = d.history.Insert(tx, historyRow(t))
	tr.child(spInsert, at)
	if err != nil {
		return abortEmbedded(tx, err)
	}
	at = tr.now()
	err = tx.Commit()
	tr.child(spCommit, at)
	if err != nil {
		return broken, err
	}
	return committed, nil
}

// abortEmbedded rolls tx back after err and classifies the attempt.
func abortEmbedded(tx *engine.Tx, err error) (outcome, error) {
	if aerr := tx.Abort(); aerr != nil {
		return broken, fmt.Errorf("abort after %v: %w", err, aerr)
	}
	if errors.Is(err, engine.ErrLockConflict) {
		return conflict, nil
	}
	return broken, err
}

// wireTPCB runs the script over the wire protocol in two pipelined
// round trips: the three balance reads (the terminal's display query),
// then BEGIN, three ADDFIELD deltas, the history INSERT and COMMIT in
// one burst. With a pool it goes through client.Pool.Do, which follows
// a REDIRECT to the leader; standalone it holds one connection.
type wireTPCB struct {
	d    *tpcbData
	conn *client.Conn // standalone
	pool *client.Pool // cluster
	gen  *tpcbGen
	tr   *tracer

	frames, bytes uint64 // both directions, headers included
}

func wireRID(r core.RID) wire.RID { return wire.RID{Page: uint64(r.Page), Slot: r.Slot} }

func (c *wireTPCB) simNow() sim.Time { return 0 }

func (c *wireTPCB) close() {
	if c.conn != nil {
		c.conn.Close()
	}
}

func (c *wireTPCB) do() (outcome, error) {
	t := c.gen.next()
	var err error
	if c.pool != nil {
		err = c.pool.Do(func(conn *client.Conn) error { return c.run(conn, t) })
	} else {
		err = c.run(c.conn, t)
	}
	out := classifyWire(err)
	c.gen.settle(t, out == committed)
	if out != broken {
		err = nil
	}
	return out, err
}

func classifyWire(err error) outcome {
	switch {
	case err == nil:
		return committed
	case errors.Is(err, wire.ErrLockConflict), errors.Is(err, wire.ErrTxPoisoned):
		return conflict
	case errors.Is(err, wire.ErrBusy):
		return busy
	default:
		return broken
	}
}

// frameHeader is the wire frame header: u32 length, u64 id, u8 kind.
const frameHeader = 4 + 8 + 1

// Request payload sizes, mirroring internal/client/ops.go: a table name
// is a u16-prefixed string, a RID is 10 bytes, a blob is u32-prefixed.
func readReqBytes(table string) int     { return frameHeader + 2 + len(table) + 10 }
func txReqBytes() int                   { return frameHeader + 8 }
func addFieldReqBytes(table string) int { return frameHeader + 8 + 2 + len(table) + 10 + 4 + 8 }
func insertReqBytes(table string, n int) int {
	return frameHeader + 8 + 2 + len(table) + 4 + n
}

var tpcbReqBytes = uint64(readReqBytes(tpcbAccounts) + readReqBytes(tpcbTellers) + readReqBytes(tpcbBranches) +
	2*txReqBytes() + addFieldReqBytes(tpcbAccounts) + addFieldReqBytes(tpcbTellers) + addFieldReqBytes(tpcbBranches) +
	insertReqBytes(tpcbHistory, histSize))

func (c *wireTPCB) run(conn *client.Conn, t tpcbTx) error {
	arid, trid, brid := wireRID(c.d.accountRIDs[t.account]), wireRID(c.d.tellerRIDs[t.teller]), wireRID(c.d.branchRIDs[t.branch])

	at := c.tr.now()
	reads := [3]*client.Pending{
		conn.ReadAsync(tpcbAccounts, arid),
		conn.ReadAsync(tpcbTellers, trid),
		conn.ReadAsync(tpcbBranches, brid),
	}
	wantID := [3]int{t.account + 1, t.teller + 1, t.branch + 1}
	var readErr error
	for i, p := range reads {
		f, err := p.Wait()
		c.frames += 2
		c.bytes += uint64(frameHeader + len(f.Payload))
		if err != nil {
			if readErr == nil {
				readErr = fmt.Errorf("tpcb: balance read: %w", err)
			}
			continue
		}
		r := wire.NewReader(f.Payload)
		row := r.Blob()
		if r.Err() != nil || len(row) != rowSize || int(rowSchema.GetUint(row, fID)) != wantID[i] {
			readErr = fmt.Errorf("tpcb: read %d returned a row that is not id %d", i, wantID[i])
		}
	}
	c.tr.child(spRTReads, at)
	if readErr != nil {
		return readErr
	}

	at = c.tr.now()
	tx := conn.NewTxID()
	pend := [6]*client.Pending{
		conn.BeginAsync(tx),
		conn.AddFieldAsync(tx, tpcbAccounts, arid, balanceOff, t.delta),
		conn.AddFieldAsync(tx, tpcbTellers, trid, balanceOff, t.delta),
		conn.AddFieldAsync(tx, tpcbBranches, brid, balanceOff, t.delta),
		conn.InsertAsync(tx, tpcbHistory, historyRow(t)),
		conn.CommitAsync(tx),
	}
	var firstErr, commitErr error
	for i, p := range pend {
		f, err := p.Wait()
		c.frames += 2
		c.bytes += uint64(frameHeader + len(f.Payload))
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if i == len(pend)-1 {
			commitErr = err
		}
	}
	c.bytes += tpcbReqBytes
	c.tr.child(spRTCommit, at)
	if firstErr != nil && !commitResolved(commitErr) {
		// COMMIT never executed, so the transaction may still be open
		// server-side and holding locks; roll it back. ErrTxClosed here
		// means the server resolved it after all.
		_ = conn.Abort(tx)
	}
	return firstErr
}

// commitResolved reports whether the server executed COMMIT: any status
// reply except Busy (an admission rejection skips the op). A timeout or
// a lost connection leaves the outcome unknown.
func commitResolved(err error) bool {
	if err == nil {
		return true
	}
	var se *wire.StatusError
	return errors.As(err, &se) && !errors.Is(err, wire.ErrBusy)
}

// tableScan visits every tuple of a table.
type tableScan func(table string, fn func(tuple []byte)) error

// engineScan scans through the engine in process.
func engineScan(db *engine.DB, w *sim.Worker) tableScan {
	return func(table string, fn func([]byte)) error {
		t, err := db.Table(table)
		if err != nil {
			return err
		}
		return t.Scan(w, func(_ core.RID, tup []byte) bool { fn(tup); return true })
	}
}

// snapshotScan scans one MVCC snapshot over the wire; any member
// serves it.
func snapshotScan(conn *client.Conn) (tableScan, func(), error) {
	tx, _, err := conn.BeginSnapshot()
	if err != nil {
		return nil, nil, err
	}
	scan := func(table string, fn func([]byte)) error {
		entries, err := conn.SnapshotScan(tx, table, 0)
		if err != nil {
			return err
		}
		for _, e := range entries {
			fn(e.Data)
		}
		return nil
	}
	return scan, func() { _ = conn.Commit(tx) }, nil
}

// checkTPCB audits a database state against what the clients were
// acknowledged: the balance-sum invariant (account, teller and branch
// balances moved by exactly the sum of history deltas), every
// acknowledged history sequence present, and no history row the
// clients never sent. It returns one line per violated check.
func checkTPCB(where string, scan tableScan, sc tpcbScale, gens []*tpcbGen) []string {
	var fails []string
	failf := func(format string, args ...any) {
		fails = append(fails, where+": "+fmt.Sprintf(format, args...))
	}
	sum := func(table string, rows int, init uint64) uint64 {
		var total uint64
		n := 0
		if err := scan(table, func(tup []byte) { total += rowSchema.GetUint(tup, fBalance); n++ }); err != nil {
			failf("scan %s: %v", table, err)
		}
		if n != rows {
			failf("%s has %d rows, want %d", table, n, rows)
		}
		return total - uint64(rows)*init
	}
	dAccount := sum(tpcbAccounts, sc.accounts(), initAccount)
	dTeller := sum(tpcbTellers, sc.tellers(), initTeller)
	dBranch := sum(tpcbBranches, sc.branches, initBranch)

	var dHistory uint64
	seen := make([][]bool, len(gens))
	for i, g := range gens {
		seen[i] = make([]bool, g.n+1)
	}
	stray := 0
	if err := scan(tpcbHistory, func(tup []byte) {
		dHistory += histSchema.GetUint(tup, hDelta)
		seq := histSchema.GetUint(tup, hSeq)
		cl, n := int(seq>>seqClientShift)-1, seq&(1<<seqClientShift-1)
		if cl < 0 || cl >= len(gens) || n >= uint64(len(seen[cl])) || seen[cl][n] {
			stray++
			return
		}
		seen[cl][n] = true
	}); err != nil {
		failf("scan %s: %v", tpcbHistory, err)
	}
	if stray > 0 {
		failf("%d history rows are duplicates or were never sent", stray)
	}
	if dAccount != dHistory || dTeller != dHistory || dBranch != dHistory {
		failf("balance sums differ: accounts %d tellers %d branches %d history %d",
			dAccount, dTeller, dBranch, dHistory)
	}
	var acked uint64
	for i, g := range gens {
		acked += g.sumDelta
		unacked := make(map[uint64]bool, len(g.unacked))
		for _, seq := range g.unacked {
			unacked[seq&(1<<seqClientShift-1)] = true
		}
		missing := 0
		for n := uint64(1); n <= g.n; n++ {
			if !seen[i][n] && !unacked[n] {
				missing++
			}
		}
		if missing > 0 {
			failf("client %d: %d acknowledged history rows are missing", i, missing)
		}
	}
	// An attempt whose outcome was lost may have committed, so history
	// can exceed the acknowledged sum only when something was unacked.
	if dHistory != acked && noneUnacked(gens) {
		failf("history deltas sum to %d, acknowledged deltas to %d", dHistory, acked)
	}
	return fails
}

func noneUnacked(gens []*tpcbGen) bool {
	for _, g := range gens {
		if len(g.unacked) > 0 {
			return false
		}
	}
	return true
}
