// Command ipatrace records page-level I/O traces from a workload run and
// replays them on the In-Page Logging simulator and the In-Place Appends
// model — the exact methodology of the paper's Sec. 8.3 comparison
// ("we have recorded traces for TPC-C, TPC-B and TATP benchmarks ...
// each of those traces has been replayed on the original IPL simulator").
//
// Usage:
//
//	ipatrace -record -bench tpcb -tx 5000 -o tpcb.trace
//	ipatrace -replay tpcb.trace -scheme 2x4
package main

import (
	"flag"
	"fmt"
	"os"

	"ipa/internal/core"
	"ipa/internal/experiments"
	"ipa/internal/ipl"
	"ipa/internal/trace"
)

func main() {
	record := flag.Bool("record", false, "record a new trace from a workload run")
	replay := flag.String("replay", "", "replay a trace file on IPL and IPA")
	bench := flag.String("bench", "tpcb", "workload for -record: tpcb | tpcc | tatp | linkbench")
	tx := flag.Int("tx", 5000, "transactions to record")
	out := flag.String("o", "workload.trace", "output file for -record")
	schemeStr := flag.String("scheme", "2x4", "[N×M] scheme for the IPA replay, as NxM")
	op := flag.Float64("op", 0.5, "free-space fraction available to the IPA replay")
	flag.Parse()

	if err := run(*record, *replay, *bench, *tx, *out, *schemeStr, *op); err != nil {
		fmt.Fprintf(os.Stderr, "ipatrace: %v\n", err)
		os.Exit(1)
	}
}

func run(record bool, replay, bench string, tx int, out, schemeStr string, op float64) error {
	switch {
	case record:
		return doRecord(bench, tx, out)
	case replay != "":
		return doReplay(replay, schemeStr, op)
	default:
		return fmt.Errorf("need -record or -replay (see -h)")
	}
}

func doRecord(bench string, tx int, out string) error {
	fmt.Printf("recording %s, %d transactions ...\n", bench, tx)
	o, err := experiments.Execute(experiments.Spec{
		Bench: bench, Scheme: core.NewScheme(2, 4), BufferPct: 0.25, Eager: true, Tx: tx,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := o.Trace.Save(f); err != nil {
		return err
	}
	fetches, evicts := o.Trace.Counts()
	fmt.Printf("wrote %s: %d events (%d fetches, %d evictions) over %d pages\n",
		out, o.Trace.Len(), fetches, evicts, o.DBPages)
	return nil
}

func doReplay(path, schemeStr string, op float64) error {
	scheme, err := core.ParseScheme(schemeStr)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Load(f)
	if err != nil {
		return err
	}
	distinct := map[uint64]bool{}
	for _, e := range tr.Events() {
		distinct[uint64(e.Page)] = true
	}
	fetches, evicts := tr.Counts()
	fmt.Printf("trace: %d events, %d fetches, %d evictions, %d distinct pages\n\n",
		tr.Len(), fetches, evicts, len(distinct))

	iplRes := ipl.NewSimulator(ipl.Config{}).Replay(tr)
	ipaRes := ipl.NewIPAModel(ipl.IPAConfig{Scheme: scheme, OverProvision: op}, len(distinct)).Replay(tr)

	fmt.Printf("%-22s %12s %12s\n", "metric", "IPA "+scheme.String(), "IPL")
	row := func(name string, a, b any) { fmt.Printf("%-22s %12v %12v\n", name, a, b) }
	row("write amplification", fmt.Sprintf("%.2f", ipaRes.WriteAmplific), fmt.Sprintf("%.2f", iplRes.WriteAmplific))
	row("read amplification", fmt.Sprintf("%.2f", ipaRes.ReadAmplific), fmt.Sprintf("%.2f", iplRes.ReadAmplific))
	row("erases", ipaRes.Erases, iplRes.Erases)
	row("physical reads", ipaRes.PhysReads, iplRes.PhysReads)
	row("physical writes", ipaRes.PhysWrites, iplRes.PhysWrites)
	row("reserved space", fmt.Sprintf("%.1f%%", 100*ipaRes.ReservedSpaceF), fmt.Sprintf("%.2f%%", 100*iplRes.ReservedSpaceF))
	return nil
}
