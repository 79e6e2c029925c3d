package server_test

import (
	"bufio"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ipa/internal/client"
	"ipa/internal/metrics"
	"ipa/internal/netload"
	"ipa/internal/server"
	"ipa/internal/wire"
	"ipa/internal/workload"
)

// BenchmarkServerTPCB measures end-to-end wire-protocol throughput and
// client-observed latency for pipelined TPC-B transactions, across a
// connections × pipelining-depth grid (depth = concurrent transactions
// multiplexed on one connection; each transaction is two pipelined
// round trips). Reported metrics: committed tx/s of wall clock, and
// p50/p99 client latency in nanoseconds. Run with:
//
//	go test -bench ServerTPCB -run xxx ./internal/server/
func BenchmarkServerTPCB(b *testing.B) {
	for _, conns := range []int{1, 4, 16} {
		for _, depth := range []int{1, 4} {
			b.Run(fmt.Sprintf("conns=%d/depth=%d", conns, depth), func(b *testing.B) {
				benchServerTPCB(b, conns, depth)
			})
		}
	}
}

func benchServerTPCB(b *testing.B, conns, depth int) {
	db, tl := newStack(b)
	wl := workload.NewTPCB(db, "data", 1, 2000)
	if err := wl.Load(tl.NewWorker()); err != nil {
		b.Fatal(err)
	}
	srv, addr, _ := startServer(b, db, tl, server.Config{})
	defer srv.Shutdown(10 * time.Second)

	cs := make([]*client.Conn, conns)
	for i := range cs {
		c, err := client.Dial(addr, client.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		cs[i] = c
	}
	drv := netload.NewNetTPCB()
	if err := drv.Init(cs[0]); err != nil {
		b.Fatal(err)
	}

	workers := conns * depth
	quota := func(w int) int {
		q := b.N / workers
		if w < b.N%workers {
			q++
		}
		return q
	}
	lats := make([]*metrics.Latency, workers)
	committed := make([]int, workers)
	aborted := make([]int, workers)
	errs := make([]error, workers)

	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lats[w] = &metrics.Latency{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := cs[w%conns] // depth workers share each connection
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < quota(w); i++ {
				t0 := time.Now()
				_, err := drv.RunOne(c, rng)
				lats[w].Add(time.Since(t0))
				switch {
				case err == nil:
					committed[w]++
				case netload.Aborted(err):
					// Optimistic RMW on shared branch/teller rows: a clean
					// no-wait abort, counted but not retried.
					aborted[w]++
				default:
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	total := &metrics.Latency{}
	var nCommit, nAbort int
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			b.Fatalf("worker %d: %v", w, errs[w])
		}
		nCommit += committed[w]
		nAbort += aborted[w]
		total.Merge(lats[w])
	}
	if nCommit == 0 {
		b.Fatal("no transaction committed")
	}
	b.ReportMetric(float64(nCommit)/elapsed.Seconds(), "tx/s")
	b.ReportMetric(float64(total.Quantile(0.50)), "p50-ns")
	b.ReportMetric(float64(total.Quantile(0.99)), "p99-ns")
	b.ReportMetric(float64(nAbort), "aborts")
}

// BenchmarkSessionBurst measures the serving path by itself: one raw
// connection sends the TPC-B commit burst (BEGIN, three ADDFIELD, the
// history INSERT, COMMIT — six frames in one write) and reads the six
// replies, with nothing of internal/client in the loop. ns/op is one
// burst's round trip, allocs/op (-benchmem) what the server allocates
// for it on top of the engine, writes/burst the socket writes the
// session answered it with (1: one flush per burst).
func BenchmarkSessionBurst(b *testing.B) {
	db, tl, _, _, rids := acctStack(b)
	srv, conn, writes := rawServer(b, db, tl, server.Config{})
	defer srv.Shutdown(10 * time.Second)
	req := commitBurst(1, rids, 1).buf.Bytes()
	br := bufio.NewReader(conn)
	roundTrip := func() {
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			size, err := wire.PeekFrameSize(br, 0)
			if err != nil {
				b.Fatal(err)
			}
			p, err := br.Peek(size)
			if err != nil {
				b.Fatal(err)
			}
			if f := wire.ParseFrame(p); f.Kind != wire.StatusOK {
				b.Fatalf("request %d: status %d", f.ID, f.Kind)
			}
			br.Discard(size)
		}
	}
	roundTrip() // resolves and caches the tables
	before := writes.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	b.StopTimer()
	b.ReportMetric(float64(writes.Load()-before)/float64(b.N), "writes/burst")
}
