package experiments

import (
	"fmt"

	"ipa/internal/core"
	"ipa/internal/metrics"
)

// Fig1 reproduces Figure 1: the anatomy of write amplification for one
// small in-place update, measured on the actual stack — a 10-byte tuple
// change under [0×0] versus the same change served as an In-Place
// Append.
func Fig1(p Params) (*Table, error) {
	t := &Table{
		ID:     "fig1",
		Title:  "Write amplification of one ~10-byte update (4KB page)",
		Header: []string{"stage", "[0×0] bytes written", "IPA [2×3] bytes written"},
	}
	// Run a tiny TPC-C burst under both configurations and take the
	// per-flush averages.
	base, err := Execute(Spec{Bench: "tpcc", Scheme: core.Scheme{}, BufferPct: 0.75, Eager: true, Tx: p.tx(2000)})
	if err != nil {
		return nil, err
	}
	o, err := Execute(Spec{Bench: "tpcc", Scheme: core.NewScheme(2, 3), BufferPct: 0.75, Eager: true, Tx: p.tx(2000)})
	if err != nil {
		return nil, err
	}
	netB := base.Store.NetBytes.Mean()
	grossB := base.Store.GrossBytes.Mean()
	netI := o.Store.NetBytes.Mean()
	grossI := o.Store.GrossBytes.Mean()
	rs := float64(o.Spec.Scheme.RecordSize())
	ipaFrac := o.Region.IPAFraction()
	devB := float64(base.Spec.PageSize) * (1 + base.Region.MigrationsPerHostWrite())
	devI := rs*ipaFrac + float64(o.Spec.PageSize)*(1-ipaFrac)*(1+o.Region.MigrationsPerHostWrite())

	t.AddRow("(a) net tuple change", fmt.Sprintf("%.1f", netB), fmt.Sprintf("%.1f", netI))
	t.AddRow("(b,c) page body+metadata change", fmt.Sprintf("%.1f", grossB), fmt.Sprintf("%.1f", grossI))
	t.AddRow("(d) DBMS write to device", base.Spec.PageSize, fmt.Sprintf("%.0f (delta-record ×%.0f%% | page ×%.0f%%)",
		rs*ipaFrac+float64(o.Spec.PageSize)*(1-ipaFrac), 100*ipaFrac, 100*(1-ipaFrac)))
	t.AddRow("(f) on-device incl. GC", fmt.Sprintf("%.0f", devB), fmt.Sprintf("%.0f", devI))
	if netB > 0 && netI > 0 {
		t.AddRow("write amplification", fmt.Sprintf("%.0fx", devB/netB), fmt.Sprintf("%.0fx", devI/netI))
	}
	t.Notes = append(t.Notes, "paper Figure 1: a 10-byte update costs 400-800x write amplification without IPA")
	return t, nil
}

// Fig6 reproduces Figure 6: fraction of update I/Os performed as
// in-place appends in LinkBench, per [N×M] scheme and buffer size.
func Fig6(p Params) (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "LinkBench: fraction of update I/Os performed as IPA [%]",
		Header: []string{"buffer", "1x100", "1x125", "2x100", "2x125", "3x100", "3x125"},
	}
	grid := []core.Scheme{
		core.NewScheme(1, 100), core.NewScheme(1, 125),
		core.NewScheme(2, 100), core.NewScheme(2, 125),
		core.NewScheme(3, 100), core.NewScheme(3, 125),
	}
	buffers := []float64{0.20, 0.50, 0.75, 0.90}
	if p.Quick {
		buffers = []float64{0.20, 0.75}
		grid = grid[2:4]
		t.Header = []string{"buffer", "2x100", "2x125"}
	}
	tx := p.tx(4000)
	for _, b := range buffers {
		cells := []any{pct(b)}
		for _, s := range grid {
			o, err := Execute(Spec{Bench: "linkbench", Scheme: s, BufferPct: b, Eager: true, Tx: tx})
			if err != nil {
				return nil, err
			}
			cells = append(cells, fmt.Sprintf("%.0f%%", 100*o.Region.IPAFraction()))
		}
		t.AddRow(cells...)
	}
	t.Notes = append(t.Notes, "paper: 28-47% of update I/Os become appends, growing with N and M, shrinking with buffer size")
	return t, nil
}

// cdfFigure renders an update-size CDF across buffer sizes.
func cdfFigure(id, title, bench string, scheme core.Scheme, gross bool, eager bool, buffers []float64, points []int, p Params) (*Table, []metrics.Series, error) {
	t := &Table{ID: id, Title: title, Header: []string{"changed bytes ≤"}}
	for _, b := range buffers {
		t.Header = append(t.Header, "buffer "+pct(b))
	}
	var series []metrics.Series
	var outs []*Out
	for _, b := range buffers {
		o, err := Execute(Spec{Bench: bench, Scheme: scheme, BufferPct: b, Eager: eager, Tx: p.tx(6000)})
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, o)
		h := o.Store.NetBytes
		if gross {
			h = o.Store.GrossBytes
		}
		s := metrics.Series{
			Label:  fmt.Sprintf("%s buffer %s", bench, pct(b)),
			XLabel: "changed bytes", YLabel: "CDF",
		}
		for _, pt := range points {
			s.X = append(s.X, float64(pt))
			s.Y = append(s.Y, h.FractionLE(pt))
		}
		series = append(series, s)
	}
	for _, pt := range points {
		cells := []any{pt}
		for _, o := range outs {
			h := o.Store.NetBytes
			if gross {
				h = o.Store.GrossBytes
			}
			cells = append(cells, fmt.Sprintf("%.2f", h.FractionLE(pt)))
		}
		t.AddRow(cells...)
	}
	return t, series, nil
}

func sweepBuffers(p Params, all []float64) []float64 {
	if p.Quick {
		return []float64{all[0], all[len(all)-1]}
	}
	return all
}

// Fig7 reproduces Figure 7: CDF of update sizes in TPC-B (net data).
func Fig7(p Params) (*Table, error) {
	t, _, err := cdfFigure("fig7", "CDF of update-sizes in TPC-B (net data)",
		"tpcb", core.NewScheme(2, 4), false, true,
		sweepBuffers(p, []float64{0.10, 0.20, 0.50, 0.75, 0.90}),
		[]int{2, 4, 8, 16, 32, 64, 128}, p)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: 50-90% of update I/Os change only 4 net bytes; >80% change ≤8")
	return t, nil
}

// Fig8 reproduces Figure 8: CDF of update sizes in TPC-C, eager.
func Fig8(p Params) (*Table, error) {
	t, _, err := cdfFigure("fig8", "CDF of update-sizes in TPC-C (net data, eager eviction)",
		"tpcc", core.NewScheme(2, 3), false, true,
		sweepBuffers(p, []float64{0.10, 0.20, 0.50, 0.75, 0.90}),
		[]int{3, 6, 10, 20, 40, 80, 160}, p)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: ~70% of update I/Os change <6 net bytes with eager eviction")
	return t, nil
}

// Fig9 reproduces Figure 9: CDF of update sizes in TPC-C, non-eager.
func Fig9(p Params) (*Table, error) {
	t, _, err := cdfFigure("fig9", "CDF of update-sizes in TPC-C (net data, non-eager eviction)",
		"tpcc", core.NewScheme(2, 40), false, false,
		sweepBuffers(p, []float64{0.10, 0.20, 0.50, 0.75, 0.90}),
		[]int{3, 6, 10, 30, 40, 100, 400}, p)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: update accumulation shifts the CDF right with larger buffers (~70% <40B)")
	return t, nil
}

// Fig10 reproduces Figure 10: CDF of update sizes in LinkBench (gross).
func Fig10(p Params) (*Table, error) {
	t, _, err := cdfFigure("fig10", "CDF of update-sizes in LinkBench (gross: body+metadata)",
		"linkbench", core.NewScheme(2, 100), true, true,
		sweepBuffers(p, []float64{0.20, 0.50, 0.75, 0.90}),
		[]int{10, 25, 50, 100, 125, 200, 400}, p)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: ~70% of updates ≤100B gross at 20% buffer, ≤200B at larger buffers")
	return t, nil
}

// Longevity quantifies the paper's headline conclusion — "the proposed
// approach doubles the longevity of Flash devices under update-intensive
// workloads" — by running the same TPC-B work under [0×0] and [2×4] and
// comparing total erases and the worst-case per-block wear (which bounds
// device lifetime).
func Longevity(p Params) (*Table, error) {
	t := &Table{
		ID:     "longevity",
		Title:  "Flash longevity under TPC-B: total erases and peak block wear for the same work",
		Header: []string{"metric", "[0×0]", "[2×4]", "lifetime ×"},
	}
	tx := p.tx(12000)
	run := func(s core.Scheme) (*Out, uint32, error) {
		o, err := Execute(Spec{
			Bench: "tpcb", Scale: tpcbSweepScale, Scheme: s, BufferPct: 0.20, Eager: true, Tx: tx,
		})
		if err != nil {
			return nil, 0, err
		}
		return o, o.DB.Device().Array().MaxEraseCount(), nil
	}
	base, basePeak, err := run(core.Scheme{})
	if err != nil {
		return nil, err
	}
	ipa, ipaPeak, err := run(core.NewScheme(2, 4))
	if err != nil {
		return nil, err
	}
	life := func(b, i float64) string {
		if i == 0 {
			return "∞"
		}
		return fmt.Sprintf("%.1fx", b/i)
	}
	t.AddRow("GC erases", base.Region.GCErases, ipa.Region.GCErases,
		life(float64(base.Region.GCErases), float64(ipa.Region.GCErases)))
	t.AddRow("erases per host write",
		fmt.Sprintf("%.4f", base.Region.ErasesPerHostWrite()),
		fmt.Sprintf("%.4f", ipa.Region.ErasesPerHostWrite()),
		life(base.Region.ErasesPerHostWrite(), ipa.Region.ErasesPerHostWrite()))
	t.AddRow("peak block P/E cycles", int(basePeak), int(ipaPeak),
		life(float64(basePeak), float64(ipaPeak)))
	t.Notes = append(t.Notes,
		"paper conclusion: IPA roughly doubles flash longevity under update-intensive OLTP")
	return t, nil
}
