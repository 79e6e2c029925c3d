package repl

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/sim"
)

// bellRig is a 3-node cluster with a table of counter rows on the
// leader; each commit is one 8-byte AddField on the next row, run in
// process so that nothing but the engine and the replication layer is
// between the test and the quorum wait it times.
type bellRig struct {
	cl   *Cluster
	lead *Member
	w    *sim.Worker
	tbl  *engine.Table
	rids []core.RID
	next int
}

func newBellRig(t *testing.T, heartbeat time.Duration) *bellRig {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		N:    3,
		Node: Config{HeartbeatInterval: heartbeat, ElectionTimeout: 20 * heartbeat},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	r := &bellRig{cl: cl, lead: cl.Members[0]}
	r.w = r.lead.TL.NewWorker()
	if r.tbl, err = r.lead.DB.CreateTable("counter", "data"); err != nil {
		t.Fatal(err)
	}
	tx, err := r.lead.DB.Begin(r.w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ { // many rows: no MVCC version chain grows long
		rid, err := r.tbl.Insert(tx, make([]byte, 16))
		if err != nil {
			t.Fatal(err)
		}
		r.rids = append(r.rids, rid)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := r.lead.Node.WaitCommitted(tx.CommitLSN()); err != nil {
		t.Fatalf("first quorum commit: %v", err)
	}
	return r
}

// commit runs one transaction up to its local commit and returns the
// LSN the quorum wait is for.
func (r *bellRig) commit(t *testing.T) core.LSN {
	t.Helper()
	tx, err := r.lead.DB.Begin(r.w)
	if err != nil {
		t.Fatal(err)
	}
	r.next = (r.next + 1) % len(r.rids)
	if err := r.tbl.AddField(tx, r.rids[r.next], 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tx.CommitLSN()
}

// A quorum commit costs one follower round trip, not a poll interval:
// 20 000 back-to-back single-client commits, none of which may wait as
// long as half a heartbeat (a lost doorbell wakeup costs a whole one,
// the heartbeat being the only timer left; the interval is long so that
// a scheduling hiccup under the race detector is not mistaken for one),
// with a mean far below the 1 ms the polling shipper imposed.
func TestDoorbellQuorumCommitLatency(t *testing.T) {
	const heartbeat = time.Second
	n := 20000
	if testing.Short() {
		n = 2000
	}
	r := newBellRig(t, heartbeat)
	before := r.lead.Node.Stats().QuorumWait
	var worst time.Duration
	for i := 0; i < n; i++ {
		lsn := r.commit(t)
		start := time.Now()
		if err := r.lead.Node.WaitCommitted(lsn); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	st := r.lead.Node.Stats()
	q := st.QuorumWait
	if got := q.Count - before.Count; got != uint64(n) {
		t.Fatalf("quorum_wait counted %d waits, want %d", got, n)
	}
	mean := time.Duration((q.MeanNs*int64(q.Count) - before.MeanNs*int64(before.Count)) / int64(n))
	t.Logf("%d quorum commits: mean wait %v, p50 <= %v, p99 <= %v, worst %v; %d shipper wakeups, %d heartbeats",
		n, mean, time.Duration(q.P50Ns), time.Duration(q.P99Ns), worst, st.ShipWakeups, st.HeartbeatsSent)
	if worst >= heartbeat/2 {
		t.Errorf("a commit waited %v, at least half a heartbeat (%v): a doorbell wakeup was lost", worst, heartbeat/2)
	}
	limit := 300 * time.Microsecond
	if raceEnabled {
		limit *= 3 // the detector slows every hop of the round trip
	}
	if mean >= limit {
		t.Errorf("mean quorum wait %v, want < %v", mean, limit)
	}
}

// An idle leader makes no wakeups between heartbeats: over a quiet
// second every shipper wakeup is a heartbeat timer firing and is
// followed by exactly one heartbeat — there is no hidden poll.
func TestDoorbellIdleLeaderOnlyHeartbeats(t *testing.T) {
	const heartbeat = 40 * time.Millisecond
	r := newBellRig(t, heartbeat)
	node := r.lead.Node
	// A snapshot is taken between events: two reads a moment apart that
	// agree cannot have caught a shipper between waking and sending.
	sample := func() (wakeups, beats uint64) {
		for {
			a := node.Stats()
			time.Sleep(2 * time.Millisecond)
			b := node.Stats()
			if a.ShipWakeups == b.ShipWakeups && a.HeartbeatsSent == b.HeartbeatsSent {
				return b.ShipWakeups, b.HeartbeatsSent
			}
		}
	}
	// Let the doorbell tokens of the set-up commits drain first.
	time.Sleep(3 * heartbeat)
	w0, h0 := sample()
	time.Sleep(time.Second)
	w1, h1 := sample()
	if h1-h0 < uint64(2*time.Second/heartbeat/2) {
		t.Errorf("only %d heartbeats to two followers in over a second at %v", h1-h0, heartbeat)
	}
	if w1-w0 != h1-h0 {
		t.Errorf("idle leader: %d shipper wakeups but %d heartbeats — something else wakes the shippers", w1-w0, h1-h0)
	}
}

// The race the doorbell protocol must win: records published between a
// shipper's last look at the log and its park. Commits are separated
// from their doorbell ring (WaitCommitted) by a random number of
// yields, so publication lands at every point of the shipper's
// check-then-park sequence, and bursts of waits alternate with pauses
// long enough for both shippers to go back to sleep. A lost wakeup
// would leave a commit waiting for the next heartbeat.
func TestDoorbellPublishParkRace(t *testing.T) {
	const heartbeat = time.Second
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	r := newBellRig(t, heartbeat)
	rng := rand.New(rand.NewSource(1))
	var worst time.Duration
	for i := 0; i < rounds; i++ {
		lsn := r.commit(t)
		for y := rng.Intn(4); y > 0; y-- {
			runtime.Gosched()
		}
		start := time.Now()
		if err := r.lead.Node.WaitCommitted(lsn); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
		// Sometimes give the shippers time to park before the next
		// publication, sometimes publish straight into their ack handling.
		switch rng.Intn(3) {
		case 0:
			time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
		case 1:
			runtime.Gosched()
		}
	}
	t.Logf("%d commits, worst quorum wait %v", rounds, worst)
	if worst >= heartbeat/2 {
		t.Errorf("a commit waited %v, at least half a heartbeat (%v): a doorbell wakeup was lost", worst, heartbeat/2)
	}
}
