package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"ipa/internal/repl"
	"ipa/internal/sim"
)

// txClient is one closed-loop client of a built system: do runs one
// transaction attempt from generated input to commit acknowledgement.
type txClient interface {
	do() (outcome, error)
	simNow() sim.Time // the client's simulated clock; 0 when served
	close()
}

// instance is one freshly built and loaded system under test.
type instance interface {
	// newClient connects client i; its input stream is seeded from seed.
	newClient(i int, seed int64, tr *tracer) (txClient, error)
	// snapshot reads the public Stats() of every layer the system has.
	snapshot() (snapshot, error)
	// replStats is the leader's replication Stats, nil without a cluster.
	replStats() func() repl.Stats
	// check audits the final state against what the clients were
	// acknowledged and returns one line per failed check.
	check() []string
	// sizes describes the built system for the result's config block.
	sizes() map[string]float64
	close()
}

// workload is one of the four named workloads.
type workload struct {
	name string
	// flash marks the workloads whose device metrics mean something; the
	// served ones leave flash idle and report them as 0.
	flash bool
	// warmup is the untimed transactions per client before measuring:
	// on flash enough to fill the device and start the collector.
	warmup int
	// timerBound marks a workload whose clients mostly wait for a timer,
	// not for computing: its wall-clock metrics follow the host's speed
	// only in the share of the time the process computed in.
	timerBound bool
	build      func(quick bool, seed int64) (instance, error)
}

// phaseResult is what one measured phase yields.
type phaseResult struct {
	loopResult               // lat is sorted
	cpu        time.Duration // reference bursts excluded
	allocs     uint64
	allocBytes uint64
	gcCPU      float64 // seconds
	simElapsed time.Duration
	burstRates []float64 // of the reference kernel, whole phase
	before     snapshot
	after      snapshot
	lag        lagStats
	trace      *traceDoc
}

func (p *phaseResult) attempts() uint64 {
	var n uint64
	for _, c := range p.counts {
		n += c
	}
	return n
}

// loopResult is what one closed-loop run of the clients yields.
type loopResult struct {
	counts [nOutcomes]uint64
	lat    []int64 // committed attempts, ns
	// txPerS sums the clients' commit rates, each over the client's own
	// elapsed time without its reference bursts; wall is the mean of
	// those times and refSpent the bursts' total.
	txPerS   float64
	wall     time.Duration
	refSpent time.Duration
	windows  []window
	err      error
}

// window is one stretch of a measured phase. A phase is cut into
// windows of about windowLen and each wall-clock metric is the median
// over the windows, so a stall of the host that hits one window does
// not move it. The values are already at the reference host speed.
type window struct {
	txPerS, p50Us, tailUs, cpuUsPerTx float64
}

const (
	windowLen  = time.Second
	minWindows = 5 // of a phase shorter than that many windowLen
)

// phaseWindows is how many windows a phase of d is cut into.
func phaseWindows(d time.Duration) int {
	if n := int(d / windowLen); n > minWindows {
		return n
	}
	return minWindows
}

// mark is a client's running totals when it crossed a window boundary.
type mark struct {
	at       time.Duration // since the phase began
	commits  uint64
	samples  int // len(lat)
	bursts   int // len(ref.rates)
	refSpent time.Duration
	cpu      time.Duration // process CPU so far; client 0 only
}

// tally is one client's record of a closed-loop run.
type tally struct {
	counts [nOutcomes]uint64
	lat    []int64
	marks  []mark
	busy   time.Duration
	err    error
}

// runClients drives every client in a closed loop: until its quota of
// committed transactions when quota > 0, otherwise for d. Latency is
// timed per attempt from the first call to the commit acknowledgement
// and, with record set, kept as raw samples and cut into windows.
// Client i runs a burst of refs[i] between two transactions every
// refEvery; timerBound is the workload's.
func runClients(clients []txClient, trs []*tracer, refs []*refKernel, quota int, d time.Duration, record, timerBound bool) loopResult {
	tallies := make([]tally, len(clients))
	var wg sync.WaitGroup
	var stop sync.Once
	halt := make(chan struct{})
	begin, cpu0 := time.Now(), cpuTime()
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, t, tr, ref := clients[i], &tallies[i], trs[i], refs[i]
			every := time.Duration(math.MaxInt64) // between window boundaries
			if record {
				t.lat = make([]int64, 0, 1<<16)
				every = d / time.Duration(phaseWindows(d))
			}
			start, deadline, nextRef, nextMark := begin, begin.Add(d), begin.Add(refEvery), every
			for {
				select {
				case <-halt:
					return
				default:
				}
				tr.beginTx(start)
				out, err := c.do()
				end := time.Now()
				tr.endTx(end)
				t.counts[out]++
				if out == committed && record {
					t.lat = append(t.lat, int64(end.Sub(start)))
				}
				t.busy = end.Sub(begin)
				for ; t.busy >= nextMark; nextMark += every {
					m := mark{at: t.busy, commits: t.counts[committed], samples: len(t.lat),
						bursts: len(ref.rates), refSpent: ref.spent}
					if i == 0 {
						m.cpu = cpuTime()
					}
					t.marks = append(t.marks, m)
				}
				if err != nil {
					// A broken attempt dooms the repetition; stop the others
					// at their next transaction boundary.
					t.err = err
					stop.Do(func() { close(halt) })
					return
				}
				if quota > 0 && t.counts[committed] >= uint64(quota) || quota == 0 && !end.Before(deadline) {
					return
				}
				if !end.Before(nextRef) {
					end = ref.burst(end)
					nextRef = nextRef.Add(refEvery)
				}
				start = end
			}
		}(i)
	}
	wg.Wait()

	var res loopResult
	for i := range tallies {
		t := &tallies[i]
		for o, n := range t.counts {
			res.counts[o] += n
		}
		res.lat = append(res.lat, t.lat...)
		busy := t.busy - refs[i].spent
		res.refSpent += refs[i].spent
		res.txPerS += ratio(float64(t.counts[committed]), busy.Seconds())
		res.wall += busy / time.Duration(len(tallies))
		if t.err != nil && res.err == nil {
			res.err = fmt.Errorf("client %d: %w", i, t.err)
		}
	}
	if record {
		res.windows = cutWindows(tallies, refs, cpu0, phaseWindows(d), timerBound)
	}
	return res
}

// cutWindows turns the clients' marks into the windows every client
// completed, n at most.
func cutWindows(ts []tally, refs []*refKernel, cpu0 time.Duration, n int, timerBound bool) []window {
	for i := range ts {
		if len(ts[i].marks) < n {
			n = len(ts[i].marks)
		}
	}
	ws := make([]window, 0, n)
	for k := 0; k < n; k++ {
		var w window
		var commits uint64
		var refSpent, busy time.Duration // busy sums the clients' wall time
		var lat []int64
		var rates []float64
		prevCPU := cpu0
		if k > 0 {
			prevCPU = ts[0].marks[k-1].cpu
		}
		for i := range ts {
			var prev mark // the phase began with nothing
			if k > 0 {
				prev = ts[i].marks[k-1]
			}
			cur := ts[i].marks[k]
			own := cur.at - prev.at - (cur.refSpent - prev.refSpent)
			busy += own
			w.txPerS += ratio(float64(cur.commits-prev.commits), own.Seconds())
			commits += cur.commits - prev.commits
			refSpent += cur.refSpent - prev.refSpent
			lat = append(lat, ts[i].lat[prev.samples:cur.samples]...)
			rates = append(rates, refs[i].rates[prev.bursts:cur.bursts]...)
		}
		cpu := ts[0].marks[k].cpu - prevCPU - refSpent
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		// At the reference host speed: a host running at speed 0.8 takes
		// 1/0.8 as long for the same computing. A client of a saturated
		// workload waits for nothing but computing, its own or another
		// goroutine's; a timer-bound one also sleeps, and that share of its
		// wall time does not follow the host's speed.
		speed := hostSpeed(rates)
		stretch := speed
		if timerBound {
			stretch = wallStretch(speed, cpu, busy)
		}
		w.txPerS /= stretch
		w.p50Us = stretch * float64(sortedQuantile(lat, 0.50)) / 1e3
		w.tailUs = stretch * float64(sortedQuantile(lat, tailQuantile(len(lat)))) / 1e3
		w.cpuUsPerTx = speed * ratio(float64(cpu.Microseconds()), float64(commits))
		ws = append(ws, w)
	}
	return ws
}

// wallStretch is the factor that takes a wall-clock time measured at
// host speed speed to the reference speed, when the process used cpu of
// CPU time while its clients spent wall (summed over them): 1 for a
// process that only slept, speed for one that computed throughout.
func wallStretch(speed float64, cpu, wall time.Duration) float64 {
	u := math.Min(1, ratio(cpu.Seconds(), wall.Seconds()))
	return 1 - u + u*speed
}

// tailQuantile is the tail percentile n samples support: the 99th with
// at least 1000 of them, otherwise (the -quick smoke test) the highest
// that still has ten samples beyond it.
func tailQuantile(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	return math.Max(0.5, 1-10/float64(n))
}

// rusage is getrusage(RUSAGE_SELF); it cannot fail for that argument.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

// gcCPUSeconds is the CPU time the collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// repResult is one repetition: build + load + warm-up + measured phase
// + checks on a fresh stack.
type repResult struct {
	Seed         int64              `json:"seed"`
	SetupS       float64            `json:"setup_s"`
	MeasuredS    float64            `json:"measured_s"`
	Attempted    uint64             `json:"attempted"`
	Committed    uint64             `json:"committed"`
	Failed       uint64             `json:"failed"`
	Samples      int                `json:"samples"`
	Metrics      map[string]float64 `json:"metrics"`
	Layers       map[string]float64 `json:"layers"`
	Sizes        map[string]float64 `json:"sizes"`
	ChecksFailed []string           `json:"checks_failed,omitempty"`

	trace *traceDoc
}

// runRep runs one repetition of wl for d. With traced set the clients
// record spans and the result carries the merged trace.
func runRep(wl workload, quick bool, seed int64, d time.Duration, traced bool) (*repResult, error) {
	rep := &repResult{Seed: seed}
	// Start from the heap a fresh process would have: the previous
	// repetition's stack is garbage by now, and handing its memory back
	// keeps the resident-set high-water mark that of one repetition.
	debug.FreeOSMemory()
	setupStart := time.Now()
	inst, err := wl.build(quick, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", wl.name, err)
	}
	defer inst.close()

	clients := make([]txClient, nClients)
	trs := make([]*tracer, nClients)
	for i := range clients {
		if traced {
			trs[i] = newTracer(i)
		}
		if clients[i], err = inst.newClient(i, deriveSeed(seed, uint64(i)+1), trs[i]); err != nil {
			return nil, fmt.Errorf("%s: client %d: %w", wl.name, i, err)
		}
		defer clients[i].close()
	}
	warmup := wl.warmup
	if quick {
		warmup = warmup/100 + 1
	}
	refs := make([]*refKernel, nClients)
	for i := range refs {
		refs[i] = newRefKernel(i)
	}
	warm := runClients(clients, trs, refs, warmup, 0, false, wl.timerBound)
	if warm.err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", wl.name, warm.err)
	}
	runtime.GC()
	// The host speed seen during the warm-up stands for the whole set-up.
	var warmRates []float64
	for _, k := range refs {
		warmRates = append(warmRates, k.rates...)
	}
	// The clients ran their bursts side by side.
	rep.SetupS = (time.Since(setupStart) - warm.refSpent/nClients).Seconds() * hostSpeed(warmRates)

	var p phaseResult
	if p.before, err = inst.snapshot(); err != nil {
		return nil, err
	}
	p.before.resetLive()
	simStart := make([]sim.Time, len(clients))
	for i, c := range clients {
		simStart[i] = c.simNow()
	}
	stopLag := sampleLag(inst.replStats())
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPUSeconds(), cpuTime()
	phaseStart := time.Now()
	for _, t := range trs {
		t.reset(phaseStart)
	}

	for _, k := range refs {
		k.reset()
	}
	p.loopResult = runClients(clients, trs, refs, 0, d, true, wl.timerBound)

	p.cpu = cpuTime() - cpu0 - p.refSpent
	for _, k := range refs {
		p.burstRates = append(p.burstRates, k.rates...)
	}
	p.gcCPU = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&ms1)
	p.allocs, p.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	p.lag = stopLag()
	for i, c := range clients {
		if e := time.Duration(c.simNow() - simStart[i]); e > p.simElapsed {
			p.simElapsed = e
		}
	}
	if p.after, err = inst.snapshot(); err != nil {
		return nil, err
	}
	sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
	if traced {
		doc := mergeTraces(wl.name, seed, trs)
		p.trace, rep.trace = &doc, &doc
	}

	rep.MeasuredS = p.wall.Seconds()
	rep.Attempted = p.attempts()
	rep.Committed = p.counts[committed]
	rep.Failed = rep.Attempted - rep.Committed
	rep.Samples = len(p.lat)
	rep.Sizes = inst.sizes()
	if p.err != nil {
		rep.ChecksFailed = append(rep.ChecksFailed, "measured phase: "+p.err.Error())
	}
	rep.ChecksFailed = append(rep.ChecksFailed, inst.check()...)
	if p.after.replicated && p.after.repl.Elections != p.before.repl.Elections {
		// Leadership moved: the phase measured a failover, not the
		// steady state. Every attempt counts as failed.
		rep.ChecksFailed = append(rep.ChecksFailed, "an election fired during the measured phase")
		rep.Failed = rep.Attempted
	}
	rep.Metrics = endToEndMetrics(wl, &p, rep)
	rep.Layers = layerMetrics(&p, rep)
	rep.Metrics["peak_rss_mb"] = peakRSSMB()
	return rep, nil
}

// deriveSeed mixes a stream number into a seed (splitmix64), so every
// repetition and every client draws from its own stream of one -seed.
func deriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) &^ (1 << 63))
}

// endToEndMetrics derives the end-to-end values of one repetition.
func endToEndMetrics(wl workload, p *phaseResult, rep *repResult) map[string]float64 {
	tx := float64(rep.Committed)
	over := func(get func(window) float64) float64 {
		vs := make([]float64, len(p.windows))
		for i, w := range p.windows {
			vs[i] = get(w)
		}
		return median(vs)
	}
	m := map[string]float64{
		"tx_per_s":      over(func(w window) float64 { return w.txPerS }),
		"lat_p50_us":    over(func(w window) float64 { return w.p50Us }),
		"lat_p99_us":    over(func(w window) float64 { return w.tailUs }),
		"cpu_us_per_tx": over(func(w window) float64 { return w.cpuUsPerTx }),
		"setup_s":       rep.SetupS,
		"failed_frac":   ratio(float64(rep.Failed), float64(rep.Attempted)),
	}
	if !wl.flash {
		for _, d := range compareOnly {
			if d.flashOnly {
				m[d.Name] = 0
			}
		}
		return m
	}
	fl0, fl := p.before.eng.Flash, p.after.eng.Flash
	m["sim_tx_per_s"] = ratio(tx, p.simElapsed.Seconds())
	m["flash_write_bytes_per_tx"] = ratio(float64(fl.BytesWritten-fl0.BytesWritten), tx)
	m["erases_per_ktx"] = ratio(1000*float64(fl.Erases-fl0.Erases), tx)
	m["space_amp"] = ratio(float64(p.after.mapped)*float64(p.after.pageSize), rep.Sizes["user_bytes"])
	return m
}
