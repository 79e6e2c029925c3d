package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"testing"

	"ipa/internal/repl"
	"ipa/internal/sim"
)

// TestBenchmarkJSON holds BENCHMARK.json at the repository root to
// spec.go and to the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	wantData, err := json.Marshal(benchmarkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantData, &want); err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(onDisk)
	exp, _ := json.Marshal(want)
	if string(got) != string(exp) {
		t.Errorf("BENCHMARK.json differs from `go run . -spec`; regenerate it")
	}

	spec := benchmarkSpec()
	if n := len(spec.Workloads); n != 4 {
		t.Errorf("%d workloads, want 4", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is in the spec but not runnable", w.Name)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric in seconds, lower better")
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}

// TestQuickSmoke runs all four workloads at 1/100 scale, untraced and
// traced, and checks that every check passes and that exactly the
// metrics BENCHMARK.json names come out.
func TestQuickSmoke(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil { // trace files go to ./results
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	d := phaseLen(runSeconds, true)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			line, fails, err := driverRun(io.Discard, wl, true, 7, d, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			for _, f := range fails {
				t.Errorf("%s traced=%v: check failed: %s", wl.name, traced, f)
			}
			if !line.Correct || line.Attempted == 0 || line.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					wl.name, traced, line.Correct, line.Attempted, line.Failed)
			}
			var want []string
			if traced {
				for _, l := range perLayer() {
					want = append(want, l.Name)
				}
			} else {
				for _, m := range endToEnd {
					want = append(want, m.Name)
					if line.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, must be positive", wl.name, m.Name, line.Metrics[m.Name].Value)
					}
				}
			}
			var got []string
			for k := range line.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", wl.name, traced, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s traced=%v: emitted %q where %q was expected", wl.name, traced, got[i], want[i])
				}
			}
			if traced {
				checkPredictions(t, wl, line.Metrics)
			}
		}
	}
}

// checkPredictions asserts what each workload is chosen for: which
// layers work and which are bypassed.
func checkPredictions(t *testing.T, wl workload, m map[string]driverMetric) {
	t.Helper()
	v := func(name string) float64 { return m[name].Value }
	if wl.flash {
		if v("flash.reads_per_tx") == 0 || v("noftl.host_writes_per_tx") == 0 || v("buffer.hit_rate") >= 1 {
			t.Errorf("%s: flash is not exercised: reads/tx %v, host writes/tx %v, hit rate %v",
				wl.name, v("flash.reads_per_tx"), v("noftl.host_writes_per_tx"), v("buffer.hit_rate"))
		}
		if v("wire.frames_per_tx") != 0 || v("server.requests_per_tx") != 0 {
			t.Errorf("%s: wire/server not bypassed", wl.name)
		}
		return
	}
	if v("flash.programs_per_tx") != 0 || v("buffer.hit_rate") < 0.99 {
		t.Errorf("%s: flash is not idle: programs/tx %v, hit rate %v", wl.name, v("flash.programs_per_tx"), v("buffer.hit_rate"))
	}
	if v("wire.frames_per_tx") != 18 || v("server.requests_per_tx") != 9 {
		t.Errorf("%s: %v frames and %v requests per tx, want 18 and 9", wl.name, v("wire.frames_per_tx"), v("server.requests_per_tx"))
	}
	if got, want := v("repl.batches_per_tx") > 0, wl.name == "tpcb-cluster"; got != want {
		t.Errorf("%s: repl batches/tx %v", wl.name, v("repl.batches_per_tx"))
	}
}

// TestQuantileExact compares the quantile helper against a sorted
// reference on values that no power-of-two bucket would preserve.
func TestQuantileExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 4097} {
		ref := make([]int64, n)
		for i := range ref {
			ref[i] = 1000 + rng.Int63n(1_000_000)*3 // never a power of two
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			// Nearest rank: the smallest sample with at least q·n samples
			// at or below it.
			want := ref[n-1]
			for i, v := range ref {
				if float64(i+1) >= q*float64(n) {
					want = v
					break
				}
			}
			if got := sortedQuantile(ref, q); got != want {
				t.Errorf("n=%d q=%v: got %d, want %d", n, q, got, want)
			}
		}
	}
	if got := sortedQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty: got %d", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3: %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median of 4: %v", got)
	}
	if got := spread([]float64{90, 100, 110}); got != 0.2 {
		t.Errorf("spread: %v", got)
	}
}

// scripted is a client that replays a fixed outcome sequence.
type scripted struct {
	script []outcome
	n      int
	sent   [nOutcomes]uint64
}

func (s *scripted) do() (outcome, error) {
	out := s.script[s.n%len(s.script)]
	s.n++
	s.sent[out]++
	return out, nil
}
func (s *scripted) simNow() sim.Time { return 0 }
func (s *scripted) close()           {}

type scriptedInstance struct{ clients []*scripted }

func (s *scriptedInstance) newClient(int, int64, *tracer) (txClient, error) {
	c := &scripted{script: []outcome{committed, conflict, committed, committed, busy, committed, conflict, committed, committed, committed}}
	s.clients = append(s.clients, c)
	return c, nil
}
func (s *scriptedInstance) snapshot() (snapshot, error)  { return snapshot{}, nil }
func (s *scriptedInstance) replStats() func() repl.Stats { return nil }
func (s *scriptedInstance) check() []string              { return nil }
func (s *scriptedInstance) sizes() map[string]float64    { return nil }
func (s *scriptedInstance) close()                       {}

// TestFailedFrac drives the runner with a scripted abort sequence:
// lock-conflict aborts and busy rejections count as failed attempts,
// and only committed attempts leave a latency sample.
func TestFailedFrac(t *testing.T) {
	inst := &scriptedInstance{}
	wl := workload{name: "scripted", warmup: 10, build: func(bool, int64) (instance, error) { return inst, nil }}
	rep, err := runRep(wl, false, 1, phaseLen(runSeconds, true), false)
	if err != nil {
		t.Fatal(err)
	}
	var sent [nOutcomes]uint64
	for _, c := range inst.clients {
		// The warm-up ran each client until its 10th commit: 14 attempts.
		for o, n := range c.sent {
			sent[o] += n
		}
	}
	const warm = nClients * 14
	attempts := sent[committed] + sent[conflict] + sent[busy] - warm
	failed := sent[conflict] + sent[busy] - nClients*4
	if rep.Attempted != attempts || rep.Failed != failed || rep.Committed != attempts-failed {
		t.Fatalf("attempted %d failed %d committed %d, want %d %d %d",
			rep.Attempted, rep.Failed, rep.Committed, attempts, failed, attempts-failed)
	}
	if rep.Samples != int(rep.Committed) {
		t.Errorf("%d latency samples for %d commits", rep.Samples, rep.Committed)
	}
	want := float64(failed) / float64(attempts)
	if got := rep.Metrics["failed_frac"]; got != want || got < 0.25 || got > 0.35 {
		t.Errorf("failed_frac %v, want %v (about 0.3)", got, want)
	}
}

// TestCompareVerdicts checks the three verdicts and the absolute bound
// of failed_frac.
func TestCompareVerdicts(t *testing.T) {
	tx := metricSpec{Name: "tx_per_s", Better: "higher", Bound: 0.10}
	lat := metricSpec{Name: "lat_p50_us", Better: "lower", Bound: 0.10}
	ff := metricSpec{Name: "failed_frac", Better: "lower", Bound: 0.005}
	for _, c := range []struct {
		m                metricSpec
		old, new, so, sn float64
		want             verdict
	}{
		{tx, 100, 95, 0.01, 0.01, ok},
		{tx, 100, 89, 0.01, 0.01, worse},
		{tx, 100, 130, 0.01, 0.01, ok},
		{tx, 100, 95, 0.20, 0.01, unresolved},
		{tx, 100, 80, 0.20, 0.20, worse},
		{lat, 100, 111, 0, 0, worse},
		{lat, 100, 109, 0, 0, ok},
		{ff, 0, 0.004, 0, 0, ok},
		{ff, 0, 0.006, 0, 0, worse},
	} {
		if got := judge(c.m, c.old, c.new, c.so, c.sn); got != c.want {
			t.Errorf("%s %v -> %v (spreads %v %v): %s, want %s", c.m.Name, c.old, c.new, c.so, c.sn, got, c.want)
		}
	}
}
