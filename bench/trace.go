package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The benchmark's own spans: one root per transaction attempt and one
// child around each call into engine or client. Spans inside the
// program are a later change; these are recorded from outside.

type spanName uint8

const (
	spTx spanName = iota
	spIdxLookup
	spBegin
	spAddField
	spInsert
	spCommit
	spRead
	spRTReads
	spRTCommit
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"tx",
	"engine.idx_lookup",
	"engine.begin",
	"engine.add_field",
	"engine.insert",
	"engine.commit",
	"engine.read",
	"client.rt_reads",
	"client.rt_commit",
}

// rawSpan is one span as written to the trace file. Times are
// nanoseconds since the start of the measured phase.
type rawSpan struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// rawKeep is how many raw spans a trace file holds; every span still
// counts towards the aggregates.
const rawKeep = 10000

// tracer records one client's spans. Each client owns one, so nothing
// here is shared. A nil *tracer is tracing off: every method returns at
// once and now() does not read the clock.
type tracer struct {
	base    time.Time
	idBase  uint64 // client index in the high bits keeps ids unique
	nextID  uint64
	root    uint64
	rootT0  time.Time
	childNs int64

	raw  []rawSpan
	dur  [nSpanNames][]int64
	self []int64 // root span minus its children
}

func newTracer(client int) *tracer {
	return &tracer{idBase: uint64(client+1) << 48}
}

// reset starts a phase: spans recorded before it are dropped.
func (t *tracer) reset(base time.Time) {
	if t == nil {
		return
	}
	t.base = base
	t.raw = t.raw[:0]
	for i := range t.dur {
		t.dur[i] = t.dur[i][:0]
	}
	t.self = t.self[:0]
}

func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) beginTx(start time.Time) {
	if t == nil {
		return
	}
	t.nextID++
	t.root = t.idBase | t.nextID
	t.rootT0 = start
	t.childNs = 0
}

// child closes a span that began at start and ends now, under the open
// root.
func (t *tracer) child(name spanName, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.nextID++
	t.record(t.idBase|t.nextID, t.root, name, start, end)
	t.childNs += int64(end.Sub(start))
}

func (t *tracer) endTx(end time.Time) {
	if t == nil {
		return
	}
	t.record(t.root, 0, spTx, t.rootT0, end)
	t.self = append(t.self, int64(end.Sub(t.rootT0))-t.childNs)
}

func (t *tracer) record(id, parent uint64, name spanName, start, end time.Time) {
	t.dur[name] = append(t.dur[name], int64(end.Sub(start)))
	if len(t.raw) < rawKeep {
		t.raw = append(t.raw, rawSpan{
			ID: id, Parent: parent, Name: spanNames[name],
			StartNs: int64(start.Sub(t.base)), EndNs: int64(end.Sub(t.base)),
		})
	}
}

// spanAgg is the per-name aggregate of a traced repetition.
type spanAgg struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	// SelfMeanUs is the span's duration minus the part its children
	// cover; children are leaves, so for them it equals MeanUs.
	SelfMeanUs float64 `json:"self_mean_us"`
	// TotalUs sums every span of this name; divided by committed
	// transactions it is the layer's *_us metric.
	TotalUs float64 `json:"total_us"`
}

// traceDoc is the content of results/trace-<workload>.json.
type traceDoc struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Clients  int       `json:"clients"`
	Spans    int       `json:"spans"`
	Agg      []spanAgg `json:"aggregates"`
	Raw      []rawSpan `json:"first_spans"`
}

// mergeTraces folds the clients' tracers into one document.
func mergeTraces(workload string, seed int64, trs []*tracer) traceDoc {
	doc := traceDoc{Workload: workload, Seed: seed, Clients: len(trs)}
	for name := spanName(0); name < nSpanNames; name++ {
		var all []int64
		for _, t := range trs {
			all = append(all, t.dur[name]...)
		}
		if len(all) == 0 {
			continue
		}
		doc.Spans += len(all)
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		a := spanAgg{
			Name:    spanNames[name],
			Count:   len(all),
			MeanUs:  meanInt(all) / 1e3,
			P50Us:   float64(sortedQuantile(all, 0.50)) / 1e3,
			P99Us:   float64(sortedQuantile(all, 0.99)) / 1e3,
			TotalUs: meanInt(all) * float64(len(all)) / 1e3,
		}
		a.SelfMeanUs = a.MeanUs
		if name == spTx {
			var self []int64
			for _, t := range trs {
				self = append(self, t.self...)
			}
			a.SelfMeanUs = meanInt(self) / 1e3
		}
		doc.Agg = append(doc.Agg, a)
	}
	for _, t := range trs {
		doc.Raw = append(doc.Raw, t.raw...)
	}
	sort.Slice(doc.Raw, func(i, j int) bool { return doc.Raw[i].StartNs < doc.Raw[j].StartNs })
	if len(doc.Raw) > rawKeep {
		doc.Raw = doc.Raw[:rawKeep]
	}
	return doc
}

// totalUs returns the summed duration of every span called name.
func (d traceDoc) totalUs(name spanName) float64 {
	for _, a := range d.Agg {
		if a.Name == spanNames[name] {
			return a.TotalUs
		}
	}
	return 0
}

// writeJSON writes v, indented, to path, creating its directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
