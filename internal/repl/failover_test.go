package repl

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ipa/internal/client"
	"ipa/internal/engine"
	"ipa/internal/netload"
	"ipa/internal/wire"
	"ipa/internal/workload"
)

// tpcbSums aggregates one consistent view of the TPC-B tables.
type tpcbSums struct {
	branches, tellers, accounts int
	branchSum, tellerSum        uint64
	acctSum, histSum            uint64
	histSeqs                    map[uint64]bool
}

var (
	schAcct, _ = engine.NewSchema(4, 4, 8, 84)
	schHist, _ = engine.NewSchema(4, 4, 4, 8, 8)
)

// sumEntries folds balance (control/account tables) or delta+seq
// (history) out of one table scan.
func (s *tpcbSums) add(table string, entries []client.ScanEntry) {
	for _, e := range entries {
		switch table {
		case "tpcb_branch":
			s.branches++
			s.branchSum += schAcct.GetUint(e.Data, 2)
		case "tpcb_teller":
			s.tellers++
			s.tellerSum += schAcct.GetUint(e.Data, 2)
		case "tpcb_account":
			s.accounts++
			s.acctSum += schAcct.GetUint(e.Data, 2)
		case "tpcb_history":
			s.histSum += schHist.GetUint(e.Data, 3)
			s.histSeqs[schHist.GetUint(e.Data, 4)] = true
		}
	}
}

// audit checks the TPC-B invariant: every committed Account_Update adds
// the same delta to one branch, one teller and one account, and logs it
// in history — so each table's total drift from its seed balance equals
// the sum of history deltas.
func (s *tpcbSums) audit(t *testing.T, where string) {
	t.Helper()
	drifts := [3]uint64{
		s.branchSum - uint64(s.branches)*1_000_000,
		s.tellerSum - uint64(s.tellers)*100_000,
		s.acctSum - uint64(s.accounts)*10_000,
	}
	for i, d := range drifts {
		if d != s.histSum {
			t.Fatalf("%s: balance drift[%d]=%d but history-sum=%d (torn transaction)",
				where, i, d, s.histSum)
		}
	}
}

var tpcbTables = []string{"tpcb_branch", "tpcb_teller", "tpcb_account", "tpcb_history"}

// sumsViaPool scans the four tables on the current leader. The scans
// run in one Do call but are not a single snapshot; callers quiesce the
// load first.
func sumsViaPool(t *testing.T, p *client.Pool) *tpcbSums {
	t.Helper()
	s := &tpcbSums{histSeqs: make(map[uint64]bool)}
	for _, table := range tpcbTables {
		err := p.Do(func(c *client.Conn) error {
			entries, err := c.Scan(table, 0)
			if err != nil {
				return err
			}
			s.add(table, entries)
			return nil
		})
		if err != nil {
			t.Fatalf("scan %s: %v", table, err)
		}
	}
	return s
}

// sumsViaSnapshot scans the four tables under one MVCC snapshot on a
// specific member — the replica-read path a follower serves while the
// stream keeps applying underneath it.
func sumsViaSnapshot(t *testing.T, addr string) *tpcbSums {
	t.Helper()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial follower %s: %v", addr, err)
	}
	defer c.Close()
	tx, _, err := c.BeginSnapshot()
	if err != nil {
		t.Fatalf("BeginSnapshot on %s: %v", addr, err)
	}
	defer c.Abort(tx)
	s := &tpcbSums{histSeqs: make(map[uint64]bool)}
	for _, table := range tpcbTables {
		entries, err := c.SnapshotScan(tx, table, 0)
		if err != nil {
			t.Fatalf("snapshot scan %s on %s: %v", table, addr, err)
		}
		s.add(table, entries)
	}
	return s
}

// fatalLoadErr reports load-worker errors that indicate real breakage
// rather than a transaction whose fate was lost to the failover.
func fatalLoadErr(err error) bool {
	return errors.Is(err, wire.ErrNoTable) || errors.Is(err, wire.ErrNoTuple) ||
		errors.Is(err, wire.ErrBadRequest)
}

// TestClusterFailover is the headline acceptance test: a 3-node cluster
// takes TPC-B load, the primary is crash-killed mid-stream, a follower
// wins the election, clients resume through REDIRECT against the new
// leader, and no acknowledged commit is lost. Afterwards a surviving
// follower's MVCC snapshot reads pass the same balance audit.
func TestClusterFailover(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		N: 3,
		Node: Config{
			HeartbeatInterval: 25 * time.Millisecond,
			ElectionTimeout:   150 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	boot := cl.Members[0]
	tp := workload.NewTPCB(boot.DB, "data", 2, 200)
	if err := tp.Load(boot.TL.NewWorker()); err != nil {
		t.Fatalf("preload: %v", err)
	}

	pool := cl.Pool(client.Options{RequestTimeout: 3 * time.Second})
	defer pool.Close()
	drv := netload.NewNetTPCB()
	if err := pool.Do(drv.Init); err != nil {
		t.Fatalf("init: %v", err)
	}

	var (
		mu       sync.Mutex
		acked    = make(map[uint64]bool)
		phase2   = 0 // acks after the kill — proof the client resumed
		killed   = false
		aborts   = 0
		unknowns = 0
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				var seq uint64
				err := pool.Do(func(c *client.Conn) error {
					s, err := drv.RunOne(c, rng)
					if err == nil {
						seq = s
					}
					return err
				})
				mu.Lock()
				switch {
				case err == nil:
					acked[seq] = true
					if killed {
						phase2++
					}
				case netload.Aborted(err):
					aborts++
				case fatalLoadErr(err):
					mu.Unlock()
					panic("load worker hit a fatal error: " + err.Error())
				default:
					// Timeout, dead connection, exhausted retries: the
					// transaction's fate is unknown, so its seq must NOT
					// count as acknowledged. History may still contain it.
					unknowns++
				}
				mu.Unlock()
			}
		}(int64(w + 1))
	}

	time.Sleep(500 * time.Millisecond)

	lead := cl.Leader()
	if lead == nil {
		t.Fatal("no leader under load")
	}
	if lead != boot {
		t.Fatalf("leadership moved before the kill: member %d leads", lead.ID)
	}
	killStart := time.Now()
	mu.Lock()
	killed = true
	mu.Unlock()
	cl.Kill(lead.ID)

	newLead, err := cl.WaitLeader(5 * time.Second)
	if err != nil {
		t.Fatalf("no failover: %v", err)
	}
	failoverTime := time.Since(killStart)
	if newLead.ID == lead.ID {
		t.Fatalf("dead member %d still counted as leader", lead.ID)
	}
	t.Logf("failover: member %d took over after %v (term %d)",
		newLead.ID, failoverTime, newLead.Node.Stats().Term)

	time.Sleep(700 * time.Millisecond)
	close(stop)
	wg.Wait()

	mu.Lock()
	nAcked, nPhase2, nAborts, nUnknown := len(acked), phase2, aborts, unknowns
	mu.Unlock()
	t.Logf("load: %d acked (%d after failover), %d clean aborts, %d unknown outcomes",
		nAcked, nPhase2, nAborts, nUnknown)
	if nAcked == 0 {
		t.Fatal("no transaction was ever acknowledged")
	}
	if nPhase2 == 0 {
		t.Fatal("client never resumed after the failover (no post-kill acks)")
	}

	// Audit 1+2 on the new leader: every acknowledged commit survived,
	// and the balance sums show no torn transaction.
	sums := sumsViaPool(t, pool)
	mu.Lock()
	for seq := range acked {
		if !sums.histSeqs[seq] {
			mu.Unlock()
			t.Fatalf("LOST ACKED COMMIT: history seq %d was acknowledged but is gone", seq)
		}
	}
	mu.Unlock()
	sums.audit(t, "new leader")
	if sums.accounts != tp.Accounts() {
		t.Fatalf("account count: %d, want %d", sums.accounts, tp.Accounts())
	}

	// Audit 3: a surviving follower serves consistent MVCC snapshot
	// reads. Let replication drain, then audit under one snapshot.
	var follower *Member
	for _, m := range cl.Members {
		if !m.killed && m != newLead {
			follower = m
		}
	}
	if follower == nil {
		t.Fatal("no surviving follower")
	}
	deadline := time.Now().Add(5 * time.Second)
	for follower.Node.AppliedLSN() < newLead.DB.WAL().Head() {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at LSN %d, leader head %d",
				follower.Node.AppliedLSN(), newLead.DB.WAL().Head())
		}
		time.Sleep(5 * time.Millisecond)
	}
	fsums := sumsViaSnapshot(t, follower.Addr)
	fsums.audit(t, "follower snapshot")
	mu.Lock()
	for seq := range acked {
		if !fsums.histSeqs[seq] {
			mu.Unlock()
			t.Fatalf("follower snapshot missing acked history seq %d", seq)
		}
	}
	mu.Unlock()
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
