// Command ipabench regenerates the paper's evaluation tables and
// figures. Each experiment builds the full stack (flash array → NoFTL →
// storage engine → workload) and prints the same rows the paper reports,
// in simulated time from a fixed seed: the output of every id is the
// same bytes on every run.
//
// Usage:
//
//	ipabench -exp table1          # one experiment
//	ipabench -exp all             # everything (~40 s)
//	ipabench -exp table9 -quick   # reduced scale
//	ipabench -list                # enumerate experiment ids
//
// With -net it instead acts as a TCP bench client against a running
// ipaserver, driving pipelined TPC-B transactions over the wire
// protocol:
//
//	ipabench -net 127.0.0.1:7070 -conns 16 -tx 500
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ipa/internal/experiments"
)

func main() {
	ids := experiments.IDs()
	exp := flag.String("exp", "", "experiment id: "+strings.Join(ids, ", ")+", or 'all'")
	quick := flag.Bool("quick", false, "reduced scale for fast runs")
	list := flag.Bool("list", false, "list experiment ids")
	netAddr := flag.String("net", "", "bench a running ipaserver at this address instead of an experiment")
	conns := flag.Int("conns", 8, "client connections for -net")
	txPerConn := flag.Int("tx", 500, "transactions per connection for -net")
	seed := flag.Int64("seed", 42, "rng seed for -net")
	flag.Parse()

	if *netAddr != "" {
		if err := runNet(*netAddr, *conns, *txPerConn, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "ipabench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "ipabench: -exp required (use -list for ids)")
		os.Exit(2)
	}
	p := experiments.Params{Quick: *quick}
	if *exp == "all" {
		out, err := experiments.All(p)
		fmt.Print(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipabench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	t, err := experiments.ByID(*exp, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipabench: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(t.Render())
}
