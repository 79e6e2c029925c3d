package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// printWorkload prints one workload's end-to-end table: the median of
// the repetitions, the per-repetition values, unit and time base.
func printWorkload(w io.Writer, res *workloadResult) {
	fmt.Fprintf(w, "\n== %s  seed %d, %d clients closed-loop, nproc %d, GOMAXPROCS %d, %d reps x %.2fs, %d latency samples/rep\n",
		res.Name, res.Seed, res.Clients, res.NProc, res.GOMAXPROCS, len(res.Reps), res.PhaseS, res.Samples)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tmedian\tunit\tbase\tspread\treps")
	for _, m := range judged() {
		if m.flashOnly && res.Median[m.Name] == 0 {
			continue // the served workloads leave flash idle
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%s\t%s\t%.3f\t", m.Name, res.Median[m.Name], m.Unit, m.Base, res.Spread[m.Name])
		for i, rep := range res.Reps {
			if i > 0 {
				fmt.Fprint(tw, " ")
			}
			fmt.Fprintf(tw, "%.4g", rep.Metrics[m.Name])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	keys := make([]string, 0, len(res.Config))
	for k := range res.Config {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "config:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%.0f", k, res.Config[k])
	}
	fmt.Fprintf(w, "; attempted %d, failed %d\n", res.Attempted, res.Failed)
}

// printLayers prints the per-layer metrics of a traced single-workload
// run.
func printLayers(w io.Writer, workload string, metrics map[string]driverMetric) {
	fmt.Fprintf(w, "\n== %s per-layer (traced repetition + probes)\n", workload)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, l := range perLayer() {
		fmt.Fprintf(tw, "%s\t%.4g\t%s\t%s\n", l.Name, metrics[l.Name].Value, l.Unit, l.Source)
	}
	tw.Flush()
}

// printSuite prints the per-layer table across workloads, the probes,
// the layer budgets and the trace overhead.
func printSuite(w io.Writer, s *suiteResult) {
	fmt.Fprintln(w, "\n== per-layer metrics (S = Stats() delta, median of reps; T = traced repetition's spans)")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "metric\tunit\tsrc")
	for _, res := range s.Workloads {
		fmt.Fprintf(tw, "\t%s", res.Name)
	}
	fmt.Fprintln(tw)
	for _, l := range layers {
		if l.Source == "P" {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s", l.Name, l.Unit, l.Source)
		for _, res := range s.Workloads {
			fmt.Fprintf(tw, "\t%.4g", res.Layers[l.Name])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Fprintln(w, "\n== probes (P: one goroutine, wall ns/op, median of 5; allocs/op exact)")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, l := range layers {
		if l.Source == "P" {
			fmt.Fprintf(tw, "%s\t%.4g\t%s\n", l.Name, s.Probes[l.Name], l.Unit)
		}
	}
	tw.Flush()

	for _, b := range s.Budgets {
		fmt.Fprintf(w, "\n== layer budget: %s (wall us per committed tx: calls/tx x probe)\n", b.Workload)
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "layer\tcalls/tx\tprobe us\tus/tx\tshare")
		for _, r := range b.Rows {
			fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%.4g\t%.1f%%\n", r.Layer, r.CallsPerTx, r.ProbeUs, r.UsPerTx, 100*ratio(r.UsPerTx, b.MeanTxUs))
		}
		fmt.Fprintf(tw, "unattributed\t\t\t%.4g\t%.1f%%\n", b.UnattributedUs, 100*ratio(b.UnattributedUs, b.MeanTxUs))
		fmt.Fprintf(tw, "mean tx (measured)\t\t\t%.4g\t\n", b.MeanTxUs)
		tw.Flush()
	}

	fmt.Fprintln(w, "\n== derived")
	for k, v := range s.Derived {
		fmt.Fprintf(w, "%s = %.4g us\n", k, v)
	}
	if wire, cl := s.workload("tpcb-wire"), s.workload("tpcb-cluster"); wire != nil && cl != nil {
		// Both sides raw: the server's recorders are not speed-corrected.
		gap := cl.Layers["client.tx_p50_us"] - wire.Layers["client.tx_p50_us"]
		fmt.Fprintf(w, "median latency gap tpcb-cluster - tpcb-wire (client.tx_p50_us, raw) = %.4g us; quorum wait explains %.0f%% of it\n",
			gap, 100*ratio(s.Derived["repl.quorum_wait_us"], gap))
	}
	fmt.Fprintln(w, "\n== trace overhead (1 - traced tx_per_s / untraced median)")
	for _, res := range s.Workloads {
		fmt.Fprintf(w, "trace_overhead_frac %s = %.3f\n", res.Name, res.TraceOverheadFrac)
	}
}

// budget attributes a workload's mean transaction time to layers:
// calls per transaction (S metrics) times the layer's probed cost (P).
type budget struct {
	Workload       string      `json:"workload"`
	MeanTxUs       float64     `json:"mean_tx_us"`
	Rows           []budgetRow `json:"rows"`
	UnattributedUs float64     `json:"unattributed_us"`
}

type budgetRow struct {
	Layer      string  `json:"layer"`
	CallsPerTx float64 `json:"calls_per_tx"`
	ProbeUs    float64 `json:"probe_us"`
	UsPerTx    float64 `json:"us_per_tx"`
}

// layerBudget builds the budget of one workload. Rows are additive:
// each charges only what the rows above it do not already contain (the
// transaction floor already holds a buffer hit per page access, so a
// miss is charged its cost above a hit; NoFTL probes include the flash
// operation beneath them).
func layerBudget(res *workloadResult, s *suiteResult) budget {
	L, P := res.Layers, s.Probes
	b := budget{Workload: res.Name, MeanTxUs: L["client.tx_mean_us"]}
	add := func(layer string, calls, probeNs float64) {
		if calls == 0 {
			return
		}
		b.Rows = append(b.Rows, budgetRow{layer, calls, probeNs / 1e3, calls * probeNs / 1e3})
	}
	misses := L["buffer.misses_per_tx"]
	switch res.Name {
	case "ycsb-read-flash":
		add("engine.index_lookup (buffer-resident)", 1, P["engine.index_lookup_ns"])
		add("buffer.get_hit (row page)", 1, P["buffer.get_hit_ns"])
	default:
		add("engine.tx_floor (buffer-resident script)", 1, P["engine.tx_floor_us"]*1e3)
	}
	add("buffer.get_miss above a hit", misses, P["buffer.get_miss_ns"]-P["buffer.get_hit_ns"])
	add("noftl.read (flash read incl.)", misses, P["noftl.read_ns"])
	add("page.delta_apply", misses*L["engine.fetch_delta_apply_frac"], P["page.delta_apply_ns"])
	flushes := L["engine.flush_delta_per_tx"] + L["engine.flush_oop_per_tx"] + L["engine.flush_skipped_per_tx"]
	add("core.diff", flushes, P["core.diff_ns"])
	add("core.delta_encode + noftl.write_delta", L["engine.flush_delta_per_tx"], P["core.delta_encode_ns"]+P["noftl.write_delta_ns"])
	add("noftl.write (GC incl.)", L["engine.flush_oop_per_tx"], P["noftl.write_gc_ns"])
	add("wire.frame (write + read)", L["wire.frames_per_tx"], P["wire.frame_rt_ns"])
	if L["wire.frames_per_tx"] > 0 {
		add("server.ping_rt (loopback round trip)", 2, P["server.ping_rt_us"]*1e3)
	}
	if res.Name == "tpcb-cluster" {
		add("repl.quorum_wait", 1, s.Derived["repl.quorum_wait_us"]*1e3)
	}
	var sum float64
	for _, r := range b.Rows {
		sum += r.UsPerTx
	}
	b.UnattributedUs = b.MeanTxUs - sum
	return b
}
