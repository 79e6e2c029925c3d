package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ipa/internal/client"
	"ipa/internal/engine"
	"ipa/internal/repl"
	"ipa/internal/workload"
)

// This file is the replication evaluation: a 3-node in-process cluster
// under 16-terminal TPC-B load over the wire protocol, measuring (a)
// how far followers trail the primary (replication lag, in WAL records
// and bytes, sampled from the leader's per-peer shipping state) and (b)
// how long the cluster takes to elect a replacement and resume
// acknowledging commits after the primary is crash-killed. Wall-clock
// numbers: elections and shipping run on real timers, not the simulated
// flash timeline.

// ReplRow is one load phase (before or after the failover).
type ReplRow struct {
	Phase      string // steady-state | post-failover
	Workers    int
	DurationMs float64

	Acked       uint64
	AckedPerSec float64
	Aborts      uint64
	Unknown     uint64

	// Follower lag sampled from the leader every few milliseconds while
	// the load runs, max/mean across samples and connected peers.
	LagRecordsMean float64
	LagRecordsMax  uint64
	LagBytesMean   float64
	LagBytesMax    uint64
}

// ReplSummary is the failover headline.
type ReplSummary struct {
	FailoverMs    float64 // kill → new leader serving
	NewLeaderTerm uint64
	// AckedSurvived confirms the post-run audit: every commit
	// acknowledged to a client was found in the new leader's history
	// table.
	AckedSurvived bool
}

// replPhase drives the cluster for d with nWorkers terminals while
// sampling follower lag from lead.
func replPhase(phase string, d time.Duration, nWorkers int, lead *repl.Member,
	pool *client.Pool, ct *workload.ClusterTPCB, acked map[uint64]bool) ReplRow {

	row := ReplRow{Phase: phase, Workers: nWorkers}
	var mu sync.Mutex
	stop := make(chan struct{})

	// Lag sampler: the leader's shipping state already tracks per-peer
	// acked LSN and bytes; sampling it is free of coordination with the
	// data path.
	var samplerWG sync.WaitGroup
	var samples, lagRecSum, lagByteSum uint64
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for _, ps := range lead.Node.Stats().Peers {
					if !ps.Connected {
						continue
					}
					samples++
					lagRecSum += ps.LagRecords
					lagByteSum += ps.LagBytes
					if ps.LagRecords > row.LagRecordsMax {
						row.LagRecordsMax = ps.LagRecords
					}
					if ps.LagBytes > row.LagBytesMax {
						row.LagBytesMax = ps.LagBytes
					}
				}
			}
		}
	}()

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < nWorkers; w++ {
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
				seq, err := ct.RunOne(pool, rng)
				mu.Lock()
				switch {
				case err == nil:
					row.Acked++
					acked[seq] = true
				case workload.Aborted(err):
					row.Aborts++
				default:
					row.Unknown++
				}
				mu.Unlock()
			}
		}(int64(w + 1))
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	samplerWG.Wait()

	row.DurationMs = float64(time.Since(start).Microseconds()) / 1000
	row.AckedPerSec = float64(row.Acked) / time.Since(start).Seconds()
	if samples > 0 {
		row.LagRecordsMean = float64(lagRecSum) / float64(samples)
		row.LagBytesMean = float64(lagByteSum) / float64(samples)
	}
	return row
}

// RunReplBench executes both phases and the survival audit.
func RunReplBench(p Params) ([]ReplRow, *ReplSummary, error) {
	const workers = 16
	steady, post := 1500*time.Millisecond, 1000*time.Millisecond
	if p.Quick {
		steady, post = 400*time.Millisecond, 400*time.Millisecond
	}

	cl, err := repl.NewCluster(repl.ClusterConfig{
		N: 3,
		Node: repl.Config{
			HeartbeatInterval: 25 * time.Millisecond,
			ElectionTimeout:   150 * time.Millisecond,
		},
	})
	if err != nil {
		return nil, nil, err
	}
	defer cl.Close()

	boot := cl.Members[0]
	tp := workload.NewTPCB(boot.DB, "data", 2, 400)
	if err := tp.Load(boot.TL.NewWorker()); err != nil {
		return nil, nil, fmt.Errorf("repl bench: preload: %w", err)
	}
	pool := cl.Pool(client.Options{RequestTimeout: 3 * time.Second})
	defer pool.Close()
	ct := workload.NewClusterTPCB()
	if err := ct.Init(pool); err != nil {
		return nil, nil, fmt.Errorf("repl bench: init: %w", err)
	}

	acked := make(map[uint64]bool)
	rows := []ReplRow{replPhase("steady-state", steady, workers, boot, pool, ct, acked)}

	lead := cl.Leader()
	if lead == nil {
		return nil, nil, fmt.Errorf("repl bench: no leader after steady phase")
	}
	killStart := time.Now()
	cl.Kill(lead.ID)
	newLead, err := cl.WaitLeader(10 * time.Second)
	if err != nil {
		return nil, nil, fmt.Errorf("repl bench: %w", err)
	}
	sum := &ReplSummary{
		FailoverMs:    float64(time.Since(killStart).Microseconds()) / 1000,
		NewLeaderTerm: newLead.Node.Stats().Term,
	}

	rows = append(rows, replPhase("post-failover", post, workers, newLead, pool, ct, acked))

	// Survival audit: every acknowledged seq must be in the new
	// leader's history table.
	schHist, err := engine.NewSchema(4, 4, 4, 8, 8)
	if err != nil {
		return nil, nil, err
	}
	hist := make(map[uint64]bool, len(acked))
	err = pool.Do(func(c *client.Conn) error {
		entries, err := c.Scan("tpcb_history", 0)
		if err != nil {
			return err
		}
		for _, e := range entries {
			hist[schHist.GetUint(e.Data, 4)] = true
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("repl bench: audit scan: %w", err)
	}
	sum.AckedSurvived = true
	for seq := range acked {
		if !hist[seq] {
			sum.AckedSurvived = false
			return rows, sum, fmt.Errorf("repl bench: acked seq %d missing after failover", seq)
		}
	}
	return rows, sum, nil
}

// Repl renders the experiment as a report table (experiment id "repl").
func Repl(p Params) (*Table, error) {
	rows, sum, err := RunReplBench(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "repl",
		Title:  "Replication: 3-node cluster, TPC-B over the wire, primary crash-killed between phases (16 workers)",
		Header: []string{"phase", "acked", "acked/s", "aborts", "unknown", "lag rec (mean/max)", "lag bytes (mean/max)"},
	}
	for _, r := range rows {
		t.AddRow(r.Phase,
			fmt.Sprintf("%d", r.Acked),
			fmt.Sprintf("%.0f", r.AckedPerSec),
			fmt.Sprintf("%d", r.Aborts),
			fmt.Sprintf("%d", r.Unknown),
			fmt.Sprintf("%.1f / %d", r.LagRecordsMean, r.LagRecordsMax),
			fmt.Sprintf("%.0f / %d", r.LagBytesMean, r.LagBytesMax))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"failover: new leader (term %d) serving after %.1f ms; every acked commit survived: %v",
		sum.NewLeaderTerm, sum.FailoverMs, sum.AckedSurvived),
		"lag sampled from the leader's per-peer shipping state every 5 ms while the load runs",
		"commits acknowledge only after the commit record reaches a quorum (semi-synchronous)")
	return t, nil
}
