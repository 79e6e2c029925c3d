package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict of one (workload, metric) row of a comparison.
type verdict string

const (
	ok         verdict = "ok"
	worse      verdict = "worse"
	unresolved verdict = "unresolved" // the repetitions spread wider than the bound
)

// judge compares a new median against the old one under m's bound.
// failed_frac is bounded absolutely; every other metric relative to the
// old median. A metric that is not worse is still unresolved when the
// repetitions of either side spread wider than the bound: the benchmark
// could not have seen a regression of that size.
func judge(m metricSpec, old, new, oldSpread, newSpread float64) verdict {
	limit := old * m.Bound
	if m.Name == "failed_frac" {
		limit = m.Bound
	}
	d := new - old
	if m.Better == "higher" {
		d = -d
	}
	switch {
	case d > limit:
		return worse
	case m.Name != "failed_frac" && (oldSpread > m.Bound || newSpread > m.Bound):
		return unresolved
	default:
		return ok
	}
}

func readSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != schemaName {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, schemaName)
	}
	return &s, nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result documents and reports whether any row is worse.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	oldS, err := readSuite(oldPath)
	if err != nil {
		return false, err
	}
	newS, err := readSuite(newPath)
	if err != nil {
		return false, err
	}
	return compareSuites(w, oldS, newS), nil
}

func compareSuites(w io.Writer, oldS, newS *suiteResult) bool {
	anyWorse := false
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tnew/old\tbound\tbetter\tverdict")
	for _, nw := range newS.Workloads {
		ow := oldS.workload(nw.Name)
		if ow == nil {
			fmt.Fprintf(tw, "%s\t(not in old)\n", nw.Name)
			continue
		}
		for _, m := range judged() {
			o, n := ow.Median[m.Name], nw.Median[m.Name]
			if m.flashOnly && o == 0 && n == 0 {
				continue
			}
			v := judge(m, o, n, ow.Spread[m.Name], nw.Spread[m.Name])
			anyWorse = anyWorse || v == worse
			bound := fmt.Sprintf("%.3f of old", m.Bound)
			if m.Name == "failed_frac" {
				bound = fmt.Sprintf("+%.3f abs", m.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.3f\t%s\t%s\t%s\n",
				nw.Name, m.Name, o, n, ratio(n, o), bound, m.Better, v)
		}
	}
	tw.Flush()
	return anyWorse
}
