// Package netload holds the TPC-B driver that loads a running server
// over the wire protocol, NetTPCB. It is apart from internal/workload so
// that the paper rig (internal/experiments), which imports that package,
// links none of client, wire, server or repl.
package netload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"ipa/internal/client"
	"ipa/internal/engine"
	"ipa/internal/wire"
)

// NetTPCB drives the TPC-B Account_Update transaction against an IPA
// server over TCP, using the same tables a local TPCB.Load created
// (the server preloads them; see cmd/ipaserver). The wire protocol has
// no index-lookup op, so Init scans the tables once and builds
// client-side id→RID maps; each transaction then costs two pipelined
// round trips: one for the three balance reads, one for the whole
// BEGIN..COMMIT batch.
//
// The balance updates are server-side ADDFIELD deltas applied under the
// tuple lock, so the read-modify-write is atomic no matter how the
// pre-transaction display reads interleave; concurrent clients hitting
// the same hot row make one of them abort on the no-wait lock
// (StatusLockConflict or StatusTxPoisoned), which RunOne reports as a
// clean abort for the caller to count and retry.
type NetTPCB struct {
	branchRIDs  []wire.RID // index bid-1
	tellerRIDs  []wire.RID // index tid-1
	accountRIDs []wire.RID // index aid-1

	schAcct *engine.Schema
	schCtl  *engine.Schema
	schHist *engine.Schema

	seq atomic.Uint64 // history timestamp surrogate
}

// NewNetTPCB builds a driver; Init must run before RunOne.
func NewNetTPCB() *NetTPCB {
	schAcct, _ := engine.NewSchema(4, 4, 8, 84)
	schCtl, _ := engine.NewSchema(4, 4, 8, 84)
	schHist, _ := engine.NewSchema(4, 4, 4, 8, 8)
	return &NetTPCB{schAcct: schAcct, schCtl: schCtl, schHist: schHist}
}

// Init scans the TPC-B tables and builds the id→RID maps.
func (n *NetTPCB) Init(c *client.Conn) error {
	var err error
	if n.branchRIDs, err = n.ridMap(c, "tpcb_branch", n.schCtl); err != nil {
		return err
	}
	if n.tellerRIDs, err = n.ridMap(c, "tpcb_teller", n.schCtl); err != nil {
		return err
	}
	if n.accountRIDs, err = n.ridMap(c, "tpcb_account", n.schAcct); err != nil {
		return err
	}
	if len(n.branchRIDs) == 0 || len(n.tellerRIDs) != 10*len(n.branchRIDs) {
		return fmt.Errorf("tpcbnet: unexpected cardinality: %d branches, %d tellers",
			len(n.branchRIDs), len(n.tellerRIDs))
	}
	return nil
}

// ridMap scans one table and slots each tuple's RID at its primary id.
func (n *NetTPCB) ridMap(c *client.Conn, table string, sch *engine.Schema) ([]wire.RID, error) {
	entries, err := c.Scan(table, 0)
	if err != nil {
		return nil, fmt.Errorf("tpcbnet: scan %s: %w", table, err)
	}
	rids := make([]wire.RID, len(entries))
	for _, e := range entries {
		id := sch.GetUint(e.Data, 0)
		if id == 0 || id > uint64(len(entries)) {
			return nil, fmt.Errorf("tpcbnet: %s: tuple id %d out of range 1..%d",
				table, id, len(entries))
		}
		rids[id-1] = e.RID
	}
	return rids, nil
}

// Aborted reports whether a RunOne error left no trace of the
// transaction server-side, so retrying is safe. LockConflict and
// TxPoisoned mean the server aborted it; Busy means an admission
// rejection hit BEGIN, so it never opened (the server exempts ops on
// open transactions from admission, and RunOne rolls back explicitly
// whenever COMMIT did not resolve the transaction).
func Aborted(err error) bool {
	return wire.IsTransient(err) ||
		errors.Is(err, wire.ErrLockConflict) || errors.Is(err, wire.ErrTxPoisoned)
}

// commitResolved reports whether a COMMIT error still resolved the
// transaction server-side. Any status response means the server
// executed COMMIT (committing or aborting, and closing the handle) —
// except Busy, an admission rejection that skipped the op entirely. A
// non-status error (timeout, connection loss) leaves the outcome
// unknown.
func commitResolved(err error) bool {
	if err == nil {
		return true
	}
	var se *wire.StatusError
	return errors.As(err, &se) && !errors.Is(err, wire.ErrBusy)
}

// RunOne executes one Account_Update transaction: three pipelined
// balance reads (the terminal's display query), then the pipelined
// BEGIN, three 8-byte ADDFIELD deltas (the IPA delta path), one History
// INSERT and the COMMIT. It returns the history sequence number the
// transaction inserted. A nil error means the server acknowledged the
// COMMIT, so that sequence number must survive any single failure in a
// replicated cluster — the failover test's audit key.
//
// Against a cluster, run it inside client.Pool.Do: a REDIRECT or a
// leader crash mid-transaction re-runs the whole attempt against the
// new leader (physical replication keeps RIDs identical on every
// member, so the Init-time RID maps survive failovers), and each
// attempt draws a fresh sequence number, so one whose outcome was lost
// with a dead leader is never counted as acknowledged.
func (n *NetTPCB) RunOne(c *client.Conn, rng *rand.Rand) (uint64, error) {
	aid := rng.Intn(len(n.accountRIDs))
	tellerIdx := rng.Intn(len(n.tellerRIDs))
	branchIdx := tellerIdx / 10
	delta := uint64(rng.Intn(16_000_000) + 1)

	arid := n.accountRIDs[aid]
	trid := n.tellerRIDs[tellerIdx]
	brid := n.branchRIDs[branchIdx]

	reads := [3]*client.Pending{
		c.ReadAsync("tpcb_account", arid),
		c.ReadAsync("tpcb_teller", trid),
		c.ReadAsync("tpcb_branch", brid),
	}
	var bals [3]uint64
	for i, p := range reads {
		f, err := p.Wait()
		if err != nil {
			return 0, fmt.Errorf("tpcbnet: balance read: %w", err)
		}
		r := wire.NewReader(f.Payload)
		tuple := r.Blob()
		if err := r.Err(); err != nil {
			return 0, err
		}
		sch := n.schCtl
		if i == 0 {
			sch = n.schAcct
		}
		bals[i] = sch.GetUint(tuple, 2)
	}

	seq := n.seq.Add(1)
	h := n.schHist.New()
	n.schHist.SetUint(h, 0, uint64(aid+1))
	n.schHist.SetUint(h, 1, uint64(tellerIdx+1))
	n.schHist.SetUint(h, 2, uint64(branchIdx+1))
	n.schHist.SetUint(h, 3, delta)
	n.schHist.SetUint(h, 4, seq)

	balOff := n.schAcct.Offset(2) // 8 for all three tables
	tx := c.NewTxID()
	pend := [6]*client.Pending{
		c.BeginAsync(tx),
		c.AddFieldAsync(tx, "tpcb_account", arid, balOff, delta),
		c.AddFieldAsync(tx, "tpcb_teller", trid, balOff, delta),
		c.AddFieldAsync(tx, "tpcb_branch", brid, balOff, delta),
		c.InsertAsync(tx, "tpcb_history", h),
		c.CommitAsync(tx),
	}
	var firstErr, commitErr error
	for i, p := range pend {
		_, err := p.Wait()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if i == len(pend)-1 {
			commitErr = err
		}
	}
	if firstErr != nil && !commitResolved(commitErr) {
		// COMMIT never executed (busy rejection, timeout, lost frame):
		// the transaction may still be open server-side, holding no-wait
		// tuple locks that would abort every retry until the connection
		// closes. Roll it back explicitly; TxClosed here just means the
		// server resolved it after all.
		_ = c.Abort(tx)
	}
	return seq, firstErr
}
