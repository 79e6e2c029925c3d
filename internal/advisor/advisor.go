// Package advisor implements the IPA advisor (paper Sec. 8.4): it
// analyses the update-size behaviour of the current workload — the
// paper profiles the DB log, which contains all update sizes,
// frequencies and skew — and recommends an [N×M] scheme plus metadata
// budget V for a chosen optimisation goal:
//
//   - Performance: maximise the fraction of flushes served as In-Place
//     Appends while keeping space overhead moderate;
//   - Longevity: larger [N×M] — fewer erases and page migrations;
//   - Space: smallest delta-record area that still captures the bulk of
//     updates (effective cost/GB).
package advisor

import (
	"fmt"
	"sort"

	"ipa/internal/core"
	"ipa/internal/noftl"
	"ipa/internal/wal"
)

// Goal selects the advisor's optimisation target.
type Goal int

const (
	Performance Goal = iota
	Longevity
	Space
)

func (g Goal) String() string {
	switch g {
	case Performance:
		return "performance"
	case Longevity:
		return "longevity"
	case Space:
		return "space"
	default:
		return fmt.Sprintf("Goal(%d)", int(g))
	}
}

// Profile is the per-object update-size statistic the advisor works on:
// one sample per page flush, in net (body) and metadata bytes.
type Profile struct {
	Net  []int
	Meta []int
}

// Add records one flush observation.
func (p *Profile) Add(net, meta int) {
	p.Net = append(p.Net, net)
	p.Meta = append(p.Meta, meta)
}

// Len returns the number of samples.
func (p *Profile) Len() int { return len(p.Net) }

// NetQuantile returns the q-quantile (0 < q <= 1) of the net update-size
// distribution — one point of the update-size CDF the paper's Table 1
// decision is based on. Returns 0 on an empty profile.
func (p *Profile) NetQuantile(q float64) int {
	if len(p.Net) == 0 {
		return 0
	}
	net := append([]int(nil), p.Net...)
	sort.Ints(net)
	idx := int(q*float64(len(net))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(net) {
		idx = len(net) - 1
	}
	return net[idx]
}

// FromLog builds per-page-cohort profiles from the write-ahead log, the
// way the paper's advisor profiles the DB log file: consecutive update
// records to the same page between flush boundaries approximate the
// per-flush change volume. Without flush markers in the log we treat
// each transaction's touch of a page as one accumulation unit.
func FromLog(l *wal.Log) *Profile {
	p := &Profile{}
	type acc struct{ net int }
	perPage := make(map[uint64]*acc)
	l.Scan(l.Tail(), func(r wal.Record) bool {
		switch r.Type {
		case wal.RecUpdate:
			a := perPage[uint64(r.Page)]
			if a == nil {
				a = &acc{}
				perPage[uint64(r.Page)] = a
			}
			// Changed bytes ≈ differing bytes between images.
			a.net += changedBytes(r.Before, r.After)
		case wal.RecCommit, wal.RecEnd:
			// Commit boundaries flush accumulations into samples.
			for k, a := range perPage {
				if a.net > 0 {
					p.Add(a.net, core.DefaultV)
				}
				delete(perPage, k)
			}
		}
		return true
	})
	for _, a := range perPage {
		if a.net > 0 {
			p.Add(a.net, core.DefaultV)
		}
	}
	return p
}

// FromLogByTable builds one profile per table from the write-ahead log.
// owner maps a page id to its owning table (false for pages that belong
// to no table — catalog, index interior pages, etc., which land in the
// profile keyed by the empty string). Accumulation follows FromLog.
func FromLogByTable(l *wal.Log, owner func(core.PageID) (string, bool)) map[string]*Profile {
	profs := make(map[string]*Profile)
	sample := func(page uint64, net int) {
		name := ""
		if owner != nil {
			if t, ok := owner(core.PageID(page)); ok {
				name = t
			}
		}
		p := profs[name]
		if p == nil {
			p = &Profile{}
			profs[name] = p
		}
		p.Add(net, core.DefaultV)
	}
	type acc struct{ net int }
	perPage := make(map[uint64]*acc)
	l.Scan(l.Tail(), func(r wal.Record) bool {
		switch r.Type {
		case wal.RecUpdate:
			a := perPage[uint64(r.Page)]
			if a == nil {
				a = &acc{}
				perPage[uint64(r.Page)] = a
			}
			a.net += changedBytes(r.Before, r.After)
		case wal.RecCommit, wal.RecEnd:
			for k, a := range perPage {
				if a.net > 0 {
					sample(k, a.net)
				}
				delete(perPage, k)
			}
		}
		return true
	})
	for k, a := range perPage {
		if a.net > 0 {
			sample(k, a.net)
		}
	}
	return profs
}

func changedBytes(before, after []byte) int {
	n := len(after)
	if len(before) < n {
		n = len(before)
	}
	diff := 0
	for i := 0; i < n; i++ {
		if before[i] != after[i] {
			diff++
		}
	}
	diff += len(after) - n
	if diff < 0 {
		diff = -diff
	}
	return diff
}

// SchemeRecommendation is the advisor's [N×M×V] output.
type SchemeRecommendation struct {
	Scheme core.Scheme
	// CoveredFraction is the fraction of observed flushes a single
	// delta-record of the recommended M absorbs.
	CoveredFraction float64
	// SpaceOverhead for the given page size.
	SpaceOverhead float64
	// Rationale explains the choice.
	Rationale string
}

// Options parameterises a recommendation.
type Options struct {
	// Goal selects the optimisation target (zero value: Performance).
	Goal Goal
	// MaxN bounds the append budget by flash type (2-3 on MLC, more on
	// SLC). Values below 1 are treated as 1.
	MaxN int
	// PageSize is the database page size, used for space-overhead
	// reporting and the PDL small-differential threshold.
	PageSize int
}

// RecommendScheme analyses a profile and proposes an [N×M] scheme for
// the options' goal.
func RecommendScheme(p *Profile, opts Options) (SchemeRecommendation, error) {
	goal, maxN, pageSize := opts.Goal, opts.MaxN, opts.PageSize
	if p.Len() == 0 {
		return SchemeRecommendation{}, fmt.Errorf("advisor: empty profile")
	}
	if maxN < 1 {
		maxN = 1
	}
	net := append([]int(nil), p.Net...)
	sort.Ints(net)
	quantile := func(q float64) int {
		idx := int(q*float64(len(net))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(net) {
			idx = len(net) - 1
		}
		return net[idx]
	}
	// Metadata budget: high quantile of observed metadata bytes, capped
	// at the paper's practical bound.
	meta := append([]int(nil), p.Meta...)
	sort.Ints(meta)
	v := core.DefaultV
	if len(meta) > 0 {
		idx := int(0.95*float64(len(meta))) - 1
		if idx < 0 {
			idx = 0
		}
		if mv := meta[idx]; mv > 0 && mv < v {
			v = mv
		}
	}

	var m, n int
	var why string
	switch goal {
	case Performance:
		// M at the knee of the CDF (≈70th percentile), N mid-budget: most
		// flushes become appends without a bloated page.
		m = quantile(0.70)
		n = (maxN + 1) / 2
		if n < 2 && maxN >= 2 {
			n = 2
		}
		why = "M at the 70th percentile of net update sizes; N at half the flash re-program budget"
	case Longevity:
		// Generous budgets: fewer out-of-place writes and erases.
		m = quantile(0.90)
		n = maxN
		why = "M at the 90th percentile and N at the full re-program budget to minimise erases"
	case Space:
		// Tight budgets: capture the majority of updates at minimal cost.
		m = quantile(0.50)
		n = 2
		if n > maxN {
			n = maxN
		}
		why = "M at the median update size with N=2 for minimal reserved space"
	}
	if m < 1 {
		m = 1
	}
	if m > core.MaxM {
		m = core.MaxM
	}
	s := core.Scheme{N: n, M: m, V: v}
	if err := s.Validate(); err != nil {
		return SchemeRecommendation{}, err
	}
	covered := 0
	for _, u := range net {
		if u <= m {
			covered++
		}
	}
	return SchemeRecommendation{
		Scheme:          s,
		CoveredFraction: float64(covered) / float64(len(net)),
		SpaceOverhead:   s.SpaceOverhead(pageSize),
		Rationale:       fmt.Sprintf("%s goal: %s (V=%d from observed metadata changes)", goal, why, v),
	}, nil
}

// StorageAdvice is the advisor's per-table storage-scheme decision: the
// paper's Table 1 design-space comparison applied to one table's live
// update-size CDF.
type StorageAdvice struct {
	// Storage is the recommended write-reduction scheme.
	Storage noftl.Storage
	// Scheme is the [N×M×V] recommendation that would serve an IPA
	// region for this table (meaningful whatever Storage says, for
	// comparison); RegionScheme is the one to create the region with.
	Scheme SchemeRecommendation
	// P50 and P90 are the quantiles of the net update-size CDF the
	// decision is based on.
	P50, P90 int
	// Rationale explains the choice.
	Rationale string
}

// minIPACoverage is the fraction of a table's flushes one delta-record
// must absorb for the advisor to recommend in-place appends.
const minIPACoverage = 0.5

// RegionScheme is the scheme a region following the advice is created
// with: the recommended [N×M×V] when the advice is to append in place,
// the disabled [0×0] otherwise (a PDL region has no delta area, and an
// IPA region on [0×0] is the out-of-place baseline).
func (a StorageAdvice) RegionScheme() core.Scheme {
	if a.Storage == noftl.StorageIPA && a.Scheme.CoveredFraction >= minIPACoverage {
		return a.Scheme.Scheme
	}
	return core.Scheme{}
}

// RecommendStorage proposes a storage scheme for one table's profile.
// The decision mirrors the paper's framing: IPA when the bulk of the
// table's updates fit a delta-record (CoveredFraction >= 1/2), PDL when
// updates are small page differentials (90th percentile within a
// quarter page) that IPA's fixed record cannot absorb, and IPA on the
// disabled [0×0] scheme — plain out-of-place writes — for large-update
// tables where both schemes degrade to page rewrites anyway.
func RecommendStorage(p *Profile, opts Options) (StorageAdvice, error) {
	rec, err := RecommendScheme(p, opts)
	if err != nil {
		return StorageAdvice{}, err
	}
	a := StorageAdvice{
		Scheme: rec,
		P50:    p.NetQuantile(0.50),
		P90:    p.NetQuantile(0.90),
	}
	pdlBudget := opts.PageSize / 4
	switch {
	case rec.CoveredFraction >= minIPACoverage:
		a.Storage = noftl.StorageIPA
		a.Rationale = fmt.Sprintf("ipa: %.0f%% of flushes fit one %s delta-record",
			rec.CoveredFraction*100, rec.Scheme)
	case pdlBudget > 0 && a.P90 <= pdlBudget:
		a.Storage = noftl.StoragePDL
		a.Rationale = fmt.Sprintf("pdl: updates exceed the delta-record budget but stay small (p90 %dB <= %dB differential budget)",
			a.P90, pdlBudget)
	default:
		a.Storage = noftl.StorageIPA
		a.Rationale = fmt.Sprintf("ipa on [0×0]: large updates (p90 %dB) degrade both appends and pdl to page rewrites", a.P90)
	}
	return a, nil
}
