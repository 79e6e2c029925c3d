package workload

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ipa/internal/engine"
	"ipa/internal/metrics"
	"ipa/internal/sim"
)

// RunParallel executes txTotal transactions spread over the given
// terminal workers, one goroutine per terminal, all hammering the same
// DB. This is the mode the fine-grained engine concurrency exists for:
// simulated chip-level interference is exercised by real concurrent
// workers instead of a round-robin loop. Transactions that lose a
// no-wait tuple-lock race (engine.ErrLockConflict) count as aborts —
// the driver, like a real terminal, retries with its next transaction.
func RunParallel(wl Workload, terminals []*sim.Worker, txTotal int, seed int64) (Results, error) {
	res, start, err := newResults(wl, terminals)
	if err != nil {
		return res, err
	}

	// Per-terminal tallies, merged after the barrier (no lock on the hot
	// path except the shared latency recorders, which are internally
	// synchronised).
	type tally struct {
		committed     uint64
		aborted       uint64
		abortedByType map[string]uint64
	}
	tallies := make([]tally, len(terminals))
	errs := make([]error, len(terminals))
	perTypeMu := sync.Mutex{}
	// One terminal hitting a non-abort error stops the others at their
	// next transaction boundary: the run is doomed, so finishing quotas
	// would only bury the first failure under later noise.
	var stop atomic.Bool

	quota := func(t int) int {
		q := txTotal / len(terminals)
		if t < txTotal%len(terminals) {
			q++
		}
		return q
	}

	var wg sync.WaitGroup
	for t := range terminals {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			w := terminals[t]
			rng := terminalRNG(seed, t)
			for i := 0; i < quota(t); i++ {
				if stop.Load() {
					return
				}
				before := w.Now()
				w.Compute(TxCPUTime)
				name, err := wl.RunOne(w, rng)
				if err != nil {
					if errors.Is(err, engine.ErrLockConflict) {
						tallies[t].aborted++
						if tallies[t].abortedByType == nil {
							tallies[t].abortedByType = make(map[string]uint64)
						}
						tallies[t].abortedByType[name]++
						continue
					}
					errs[t] = err
					stop.Store(true)
					return
				}
				lat := time.Duration(w.Now() - before)
				tallies[t].committed++
				res.TxLatency.Add(lat)
				perTypeMu.Lock()
				pl := res.PerType[name]
				if pl == nil {
					pl = &metrics.Latency{}
					res.PerType[name] = pl
				}
				perTypeMu.Unlock()
				pl.Add(lat)
			}
		}(t)
	}
	wg.Wait()

	for t := range terminals {
		if errs[t] != nil {
			return res, fmt.Errorf("workload: terminal %d: %w", t, errs[t])
		}
		res.Transactions += tallies[t].committed
		res.Aborted += tallies[t].aborted
		for name, n := range tallies[t].abortedByType {
			if res.AbortedPerType == nil {
				res.AbortedPerType = make(map[string]uint64)
			}
			res.AbortedPerType[name] += n
		}
	}
	res.finish(terminals, start)
	return res, nil
}
