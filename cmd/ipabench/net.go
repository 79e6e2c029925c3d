package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ipa/internal/client"
	"ipa/internal/metrics"
	"ipa/internal/netload"
)

// netResult aggregates one connection's share of a network bench run.
type netResult struct {
	committed int
	aborted   int
	err       error
}

// runNet drives TPC-B over TCP against a running ipaserver: conns
// connections, each executing txPerConn Account_Update transactions
// (pipelined, two round trips each), reporting committed transactions
// per wall-clock second (the benchmark's tx_per_s; aborts are their own
// line) and client-observed latency percentiles. The pool is cluster-aware:
// pointing it at a follower of a replicated deployment follows the
// REDIRECT to the leader, and a failover mid-run retries against the
// new leader.
func runNet(addr string, conns, txPerConn int, seed int64) error {
	pool := client.NewClusterPool([]string{addr}, client.Options{})
	defer pool.Close()

	// Discover the schema → RID maps once, shared by all connections
	// (physical replication keeps RIDs identical on every member).
	drv := netload.NewNetTPCB()
	if err := pool.Do(drv.Init); err != nil {
		return fmt.Errorf("init via %s: %w", addr, err)
	}

	lat := make([]*metrics.Latency, conns)
	results := make([]netResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < conns; i++ {
		lat[i] = &metrics.Latency{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(i)))
			for t := 0; t < txPerConn; t++ {
				t0 := time.Now()
				err := pool.Do(func(c *client.Conn) error {
					_, err := drv.RunOne(c, rng)
					return err
				})
				lat[i].Add(time.Since(t0))
				switch {
				case err == nil:
					results[i].committed++
				case netload.Aborted(err):
					results[i].aborted++
				default:
					results[i].err = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := &metrics.Latency{}
	var committed, aborted int
	for i := range results {
		if results[i].err != nil {
			return fmt.Errorf("connection %d: %w", i, results[i].err)
		}
		committed += results[i].committed
		aborted += results[i].aborted
		total.Merge(lat[i])
	}
	fmt.Printf("# TPC-B over TCP: %s, %d connections x %d tx\n", addr, conns, txPerConn)
	fmt.Printf("%-22s %12d\n", "committed", committed)
	fmt.Printf("%-22s %12d\n", "aborted", aborted)
	fmt.Printf("%-22s %12.0f\n", "committed tx/s (wall)", float64(committed)/elapsed.Seconds())
	fmt.Printf("%-22s %12v\n", "latency p50", total.Quantile(0.50))
	fmt.Printf("%-22s %12v\n", "latency p99", total.Quantile(0.99))
	fmt.Printf("%-22s %12v\n", "latency mean", total.Mean())
	return nil
}
