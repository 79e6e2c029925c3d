// Package ipa's root benchmark harness: BenchmarkExperiment/<id> for
// every table and figure of the paper's evaluation (regenerating the
// experiment at reduced scale), plus micro-benchmarks of the core IPA
// operations and ablation benchmarks for the design choices called out
// in DESIGN.md.
//
// Run: go test -bench=. -benchmem
package ipa

import (
	"fmt"
	"testing"

	"ipa/internal/core"
	"ipa/internal/ecc"
	"ipa/internal/experiments"
	"ipa/internal/flash"
	"ipa/internal/ipl"
	"ipa/internal/noftl"
	"ipa/internal/page"
	"ipa/internal/trace"
)

var quick = experiments.Params{Quick: true}

// BenchmarkExperiment regenerates every experiment of the id table
// (`ipabench -list`), one sub-benchmark per id, and fails on an error or
// an empty table; the rendered output is the artefact, time is secondary.
//
//	go test -run xxx -bench 'BenchmarkExperiment/table9$' -benchtime 1x
func BenchmarkExperiment(b *testing.B) {
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := experiments.ByID(id, quick)
				if err != nil {
					b.Fatalf("%s: %v", id, err)
				}
				if len(t.Rows) == 0 {
					b.Fatalf("%s: empty table", id)
				}
			}
		})
	}
}

// --- micro-benchmarks of the hot IPA paths ----------------------------

// BenchmarkDeltaEncodeDecode measures one delta-record round trip the
// way the engine makes it: Encode into the first slot of a 4 KiB page's
// delta area (the flush), then ApplyArea, the fetch path's decoder, on
// that page.
func BenchmarkDeltaEncodeDecode(b *testing.B) {
	s := core.Scheme{N: 2, M: 3, V: 12}
	rec := core.DeltaRecord{
		Body: []core.Pair{{Off: 100, Val: 1}, {Off: 101, Val: 2}, {Off: 102, Val: 3}},
		Meta: []core.Pair{{Off: 8, Val: 9}},
	}
	pg := make([]byte, 4096)
	area := len(pg) - s.AreaSize()
	for i := area; i < len(pg); i++ {
		pg[i] = core.Erased
	}
	slot := pg[area:][:s.RecordSize()]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Encode(rec, slot); err != nil {
			b.Fatal(err)
		}
		if n, err := s.ApplyArea(pg, area); err != nil || n != 1 {
			b.Fatalf("ApplyArea applied %d records: %v", n, err)
		}
	}
}

// BenchmarkPageDiff measures the diff-at-evict change tracking on a 4KB
// page with a handful of changed bytes, using the flush path's kernel: a
// word-at-a-time scan with range-based classification into a reused
// ChangeSet (steady state allocates nothing).
func BenchmarkPageDiff(b *testing.B) {
	l := page.Layout{PageSize: 4096, Scheme: core.Scheme{N: 2, M: 3, V: 12}}
	buf := make([]byte, 4096)
	pg, err := page.Format(buf, l, 1)
	if err != nil {
		b.Fatal(err)
	}
	flushed := append([]byte(nil), buf...)
	buf[100] ^= 1
	buf[8] ^= 1
	var cs core.ChangeSet
	var rbuf [4]core.ClassRange
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := core.DiffInto(&cs, buf, flushed, pg.ClassRanges(rbuf[:0])); err != nil {
			b.Fatal(err)
		}
	}
	if len(cs.Body) != 1 || len(cs.Meta) != 1 {
		b.Fatalf("diff found body=%d meta=%d, want 1/1", len(cs.Body), len(cs.Meta))
	}
}

// BenchmarkFlashProgramDelta measures the ISPP append (write_delta) on
// the bit-accurate flash model.
func BenchmarkFlashProgramDelta(b *testing.B) {
	g := flash.Geometry{Chips: 1, BlocksPerChip: 4, PagesPerBlock: 64, PageSize: 4096, OOBSize: 128, Cell: flash.SLC}
	arr, err := flash.New(flash.Config{Geometry: g, Timing: flash.SLCTiming(), MaxAppends: 1 << 30}, nil)
	if err != nil {
		b.Fatal(err)
	}
	img := make([]byte, 4096)
	for i := range img {
		img[i] = 0xFF
	}
	if _, err := arr.Program(nil, 0, img, nil); err != nil {
		b.Fatal(err)
	}
	delta := make([]byte, 46) // one [2×3] record
	b.SetBytes(int64(len(delta)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Appending 0x00 over anything is always legal (only clears bits).
		if _, err := arr.ProgramDelta(nil, 0, 4000, delta, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkECCEncode4K measures the sectioned code computation for a
// full page body.
func BenchmarkECCEncode4K(b *testing.B) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 31)
	}
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ecc.Encode(data)
	}
}

// BenchmarkIPLReplay and BenchmarkIPAReplay time the two trace
// simulators on the same synthetic OLTP trace (Table 2 machinery).
func replayTrace() *trace.Trace {
	t := trace.New()
	for p := 1; p <= 128; p++ {
		t.RecordEvict(core.PageID(p), 0, 0, true)
	}
	for i := 0; i < 5000; i++ {
		p := core.PageID(i%128 + 1)
		t.RecordFetch(p)
		t.RecordEvict(p, 4, 14, false)
	}
	return t
}

func BenchmarkIPLReplay(b *testing.B) {
	tr := replayTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ipl.NewSimulator(ipl.Config{}).Replay(tr)
	}
}

func BenchmarkIPAReplay(b *testing.B) {
	tr := replayTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ipl.NewIPAModel(ipl.IPAConfig{Scheme: core.NewScheme(2, 4)}, 128).Replay(tr)
	}
}

// --- ablation benchmarks (design choices in DESIGN.md) -----------------

// BenchmarkAblationMetadataTracking quantifies the paper's Sec. 6.1
// claim: byte-level metadata tracking shrinks the delta-record area
// substantially versus storing the complete page metadata per record
// (the paper measured 49% for [2×3]).
func BenchmarkAblationMetadataTracking(b *testing.B) {
	s := core.Scheme{N: 2, M: 3, V: 12}
	byteLevel := s.AreaSize()
	// Alternative encoding: ctrl + M body pairs + a full metadata copy
	// (page header plus a typical 16-entry slot table).
	fullMeta := page.HeaderSize + 16*page.SlotSize
	whole := s.N * (1 + 3*s.M + fullMeta)
	saving := 1 - float64(byteLevel)/float64(whole)
	b.ReportMetric(100*saving, "%area-saved")
	for i := 0; i < b.N; i++ {
		_ = s.AreaSize()
	}
	if saving < 0.4 {
		b.Fatalf("byte-level tracking saves only %.0f%%, paper claims ~49%%", 100*saving)
	}
}

// BenchmarkAblationECC measures the flush-path cost of the sectioned
// ECC (per-delta-record codes in the OOB area) versus no ECC.
func BenchmarkAblationECC(b *testing.B) {
	for _, useECC := range []bool{false, true} {
		b.Run(fmt.Sprintf("ecc=%v", useECC), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o, err := experiments.Execute(experiments.Spec{
					Bench: "tpcb", Scheme: core.NewScheme(2, 4),
					BufferPct: 0.5, Eager: true, Tx: 300, UseECC: useECC,
				})
				if err != nil {
					b.Fatal(err)
				}
				if o.Results.Transactions != 300 {
					b.Fatalf("%d of 300 transactions", o.Results.Transactions)
				}
			}
		})
	}
}

// BenchmarkAblationSchemeN sweeps N for a fixed M on the same workload,
// reporting the erase count — the longevity knob of the [N×M] scheme.
func BenchmarkAblationSchemeN(b *testing.B) {
	for _, n := range []int{0, 1, 2, 3} {
		scheme := core.Scheme{}
		if n > 0 {
			scheme = core.NewScheme(n, 4)
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var erases float64
			for i := 0; i < b.N; i++ {
				o, err := experiments.Execute(experiments.Spec{
					Bench: "tpcb", Scheme: scheme, BufferPct: 0.2, Eager: true, Tx: 1500,
				})
				if err != nil {
					b.Fatal(err)
				}
				erases = float64(o.Region.GCErases)
			}
			b.ReportMetric(erases, "gc-erases")
		})
	}
}

// BenchmarkAblationModes compares pSLC and odd-MLC on the OpenSSD
// profile (Appendix C): pSLC appends everywhere at half capacity,
// odd-MLC appends on LSB pages only.
func BenchmarkAblationModes(b *testing.B) {
	for _, mode := range []string{"pslc", "oddmlc"} {
		b.Run(mode, func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				spec := experiments.Spec{
					Bench: "tpcb", Testbed: experiments.OpenSSD,
					Scheme: core.NewScheme(2, 4), BufferPct: 0.2, Eager: true, Tx: 800,
				}
				if mode == "oddmlc" {
					spec.Mode = noftl.ModeOddMLC
				}
				o, err := experiments.Execute(spec)
				if err != nil {
					b.Fatal(err)
				}
				frac = o.Region.IPAFraction()
			}
			b.ReportMetric(100*frac, "%ipa")
		})
	}
}
