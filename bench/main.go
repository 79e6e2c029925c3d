// Command bench is the one benchmark of the whole stack: four
// workloads, end-to-end metrics with regression bounds, per-layer
// metrics measured from outside (public Stats() deltas, the
// benchmark's own spans, isolated probes) and a correctness gate.
//
//	go run . [-seed n] [-seconds n] [-quick] [-out file]   the suite
//	go run . -workload name [-trace 0|1] ...                one workload
//	go run . -compare old.json new.json
//
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

const resultsDir = "results"

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print one JSON result line (default: the whole suite)")
		seed         = flag.Int64("seed", 1, "seed of every generator; per-repetition and per-client streams derive from it")
		seconds      = flag.Int("seconds", runSeconds, "measured seconds per workload, shared by its repetitions")
		trace        = flag.Int("trace", 0, "with -workload: 1 runs the traced repetition and the probes and prints the per-layer metrics")
		quick        = flag.Bool("quick", false, "smoke test: 1/100 of the rows and of the time")
		out          = flag.String("out", resultsDir+"/latest.json", "where the suite writes its result document")
		compare      = flag.Bool("compare", false, "compare two result documents: -compare old.json new.json")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()

	switch {
	case *spec:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		exitOn(enc.Encode(benchmarkSpec()))
	case *compare:
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("-compare needs two files, got %d", flag.NArg()))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		exitOn(err)
		if worse {
			os.Exit(1)
		}
	case *workloadName != "":
		wl, ok := findWorkload(*workloadName)
		if !ok {
			exitOn(fmt.Errorf("unknown workload %q", *workloadName))
		}
		if !runOne(wl, *quick, *seed, phaseLen(*seconds, *quick), *trace == 1) {
			os.Exit(1)
		}
	default:
		if !runSuite(*quick, *seed, *seconds, *out) {
			os.Exit(1)
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// phaseLen is one repetition's measured time.
func phaseLen(seconds int, quick bool) time.Duration {
	d := time.Duration(seconds) * time.Second / reps
	if quick {
		d /= 100
	}
	return d
}

// workloadResult is one workload's entry in the result document.
type workloadResult struct {
	Name       string `json:"name"`
	Seed       int64  `json:"seed"`
	Clients    int    `json:"clients"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// PhaseS is the measured time of one repetition.
	PhaseS float64      `json:"phase_s"`
	Reps   []*repResult `json:"reps"`
	// Median and Spread are over the repetitions: the reported value of
	// each end-to-end metric and its (max−min)/median.
	Median   map[string]float64  `json:"median"`
	Spread   map[string]float64  `json:"spread"`
	TimeBase map[string]timeBase `json:"time_base"`
	// Samples is the latency sample count of the smallest repetition.
	Samples   int                `json:"samples"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Config    map[string]float64 `json:"config"`
	// Layers holds the S metrics (median over the untraced repetitions)
	// and, once the traced repetition has run, the T metrics.
	Layers map[string]float64 `json:"layers"`
	// Traced is the one repetition run with spans on.
	Traced            *repResult `json:"traced,omitempty"`
	TraceOverheadFrac float64    `json:"trace_overhead_frac"`
	ChecksFailed      []string   `json:"checks_failed,omitempty"`
}

// measure runs the untraced repetitions of wl. Repetition r draws from
// stream r of the seed.
func measure(wl workload, quick bool, seed int64, d time.Duration) (*workloadResult, error) {
	res := &workloadResult{
		Name: wl.name, Seed: seed, Clients: nClients,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		PhaseS:   d.Seconds(),
		Median:   map[string]float64{},
		Spread:   map[string]float64{},
		TimeBase: map[string]timeBase{},
		Layers:   map[string]float64{},
	}
	for r := 0; r < reps; r++ {
		rep, err := runRep(wl, quick, deriveSeed(seed, uint64(r)<<32), d, false)
		if err != nil {
			return nil, err
		}
		res.Reps = append(res.Reps, rep)
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		if r == 0 || rep.Samples < res.Samples {
			res.Samples = rep.Samples
		}
		for _, c := range rep.ChecksFailed {
			res.ChecksFailed = append(res.ChecksFailed, fmt.Sprintf("rep %d: %s", r, c))
		}
	}
	res.Config = res.Reps[0].Sizes
	over := func(get func(*repResult) map[string]float64, key string) []float64 {
		vs := make([]float64, len(res.Reps))
		for i, rep := range res.Reps {
			vs[i] = get(rep)[key]
		}
		return vs
	}
	for _, m := range judged() {
		vs := over(func(r *repResult) map[string]float64 { return r.Metrics }, m.Name)
		res.Median[m.Name], res.Spread[m.Name] = median(vs), spread(vs)
		res.TimeBase[m.Name] = m.Base
	}
	for key := range res.Reps[0].Layers {
		res.Layers[key] = median(over(func(r *repResult) map[string]float64 { return r.Layers }, key))
	}
	return res, nil
}

// traceRep runs the traced repetition of wl, writes its spans to
// results/trace-<workload>.json and returns it.
func traceRep(wl workload, quick bool, seed int64, d time.Duration) (*repResult, error) {
	rep, err := runRep(wl, quick, deriveSeed(seed, uint64(reps)<<32), d, true)
	if err != nil {
		return nil, err
	}
	return rep, writeJSON(resultsDir+"/trace-"+wl.name+".json", rep.trace)
}

// driverLine is the one JSON object a single-workload run ends with.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted uint64                  `json:"attempted"`
	Failed    uint64                  `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun runs one workload the way the regression driver asks for
// it: untraced it yields every end-to-end metric of BENCHMARK.json,
// traced every per-layer metric. fails lists the checks that failed.
func driverRun(w io.Writer, wl workload, quick bool, seed int64, d time.Duration, traced bool) (line driverLine, fails []string, err error) {
	line.Metrics = map[string]driverMetric{}
	if !traced {
		res, err := measure(wl, quick, seed, d)
		if err != nil {
			return line, nil, err
		}
		printWorkload(w, res)
		line.Attempted, line.Failed, fails = res.Attempted, res.Failed, res.ChecksFailed
		for _, m := range endToEnd {
			line.Metrics[m.Name] = driverMetric{res.Median[m.Name], m.Unit}
		}
	} else {
		rep, err := traceRep(wl, quick, seed, d)
		if err != nil {
			return line, nil, err
		}
		probes, err := runProbes(quick)
		if err != nil {
			return line, nil, err
		}
		line.Attempted, line.Failed, fails = rep.Attempted, rep.Failed, rep.ChecksFailed
		for _, l := range perLayer() {
			v, ok := rep.Metrics[l.Name]
			if !ok {
				if v, ok = probes[l.Name]; !ok {
					v = rep.Layers[l.Name]
				}
			}
			line.Metrics[l.Name] = driverMetric{v, l.Unit}
		}
		printLayers(w, wl.name, line.Metrics)
	}
	line.Correct = len(fails) == 0
	return line, fails, nil
}

// runOne is driverRun for the command line: it ends standard output
// with the one JSON line and reports whether every check passed.
func runOne(wl workload, quick bool, seed int64, d time.Duration, traced bool) bool {
	line, fails, err := driverRun(os.Stdout, wl, quick, seed, d, traced)
	exitOn(err)
	for _, f := range fails {
		fmt.Printf("CHECK FAILED %s: %s\n", wl.name, f)
	}
	data, err := json.Marshal(line)
	exitOn(err)
	fmt.Println(string(data))
	return line.Correct
}

// suiteResult is results/latest.json: everything one suite run measured.
type suiteResult struct {
	Schema     string             `json:"schema"`
	Quick      bool               `json:"quick"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	GoVersion  string             `json:"go_version"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Workloads  []*workloadResult  `json:"workloads"`
	Probes     map[string]float64 `json:"probes"`
	// Derived metrics need two workloads: repl.quorum_wait_us is
	// server.commit_exec_us on tpcb-cluster minus the same on tpcb-wire.
	Derived      map[string]float64 `json:"derived"`
	Budgets      []budget           `json:"layer_budgets"`
	ChecksFailed int                `json:"checks_failed"`
}

const schemaName = "ipa-bench/1"

func (s *suiteResult) workload(name string) *workloadResult {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// runSuite runs every workload untraced and traced, then the probes,
// prints the tables and writes the result document. It reports whether
// every check passed.
func runSuite(quick bool, seed int64, seconds int, out string) bool {
	suite := &suiteResult{
		Schema: schemaName, Quick: quick, Seed: seed, Seconds: seconds,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Derived: map[string]float64{},
	}
	d := phaseLen(seconds, quick)
	for _, wl := range workloads {
		res, err := measure(wl, quick, seed, d)
		exitOn(err)
		res.Traced, err = traceRep(wl, quick, seed, d)
		exitOn(err)
		for _, l := range layers {
			if l.Source == "T" {
				res.Layers[l.Name] = res.Traced.Layers[l.Name]
			}
		}
		res.TraceOverheadFrac = 1 - ratio(res.Traced.Metrics["tx_per_s"], res.Median["tx_per_s"])
		for _, c := range res.Traced.ChecksFailed {
			res.ChecksFailed = append(res.ChecksFailed, "traced rep: "+c)
		}
		suite.ChecksFailed += len(res.ChecksFailed)
		suite.Workloads = append(suite.Workloads, res)
		printWorkload(os.Stdout, res)
	}
	var err error
	suite.Probes, err = runProbes(quick)
	exitOn(err)
	if wire, cl := suite.workload("tpcb-wire"), suite.workload("tpcb-cluster"); wire != nil && cl != nil {
		suite.Derived["repl.quorum_wait_us"] = cl.Layers["server.commit_exec_us"] - wire.Layers["server.commit_exec_us"]
	}
	for _, res := range suite.Workloads {
		suite.Budgets = append(suite.Budgets, layerBudget(res, suite))
	}
	printSuite(os.Stdout, suite)
	exitOn(writeJSON(out, suite))
	fmt.Printf("\nresult document: %s\n", out)
	for _, res := range suite.Workloads {
		for _, f := range res.ChecksFailed {
			fmt.Printf("CHECK FAILED %s: %s\n", res.Name, f)
		}
	}
	fmt.Printf("{\"correct\": %v, \"checks_failed\": %d}\n", suite.ChecksFailed == 0, suite.ChecksFailed)
	return suite.ChecksFailed == 0
}
