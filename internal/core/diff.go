package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// ChangeSet is the byte-level difference between the current logical image
// of a page and the image as of its last flush, split into body and
// metadata modifications as the paper's delta-record format requires.
type ChangeSet struct {
	Body []Pair
	Meta []Pair
}

// Empty reports whether nothing changed.
func (c ChangeSet) Empty() bool { return len(c.Body) == 0 && len(c.Meta) == 0 }

// BodyBytes is U in the paper: the number of changed body bytes.
func (c ChangeSet) BodyBytes() int { return len(c.Body) }

// MetaBytes is the number of changed metadata bytes.
func (c ChangeSet) MetaBytes() int { return len(c.Meta) }

// Class labels a run of page offsets for the diff fast path.
type Class uint8

const (
	// ClassBody routes changed bytes to ChangeSet.Body (the paper's U).
	ClassBody Class = iota
	// ClassMeta routes changed bytes to ChangeSet.Meta.
	ClassMeta
	// ClassSkip excludes the run from the diff entirely (the delta-record
	// area: the logical image keeps it erased, so it never diffs).
	ClassSkip
)

// ClassRange classifies the half-open offset run [Start, End). A page
// layout describes itself as a handful of such runs (header, tuple body,
// slot table, delta area), which lets the diff classify a changed offset
// with a cursor bump.
type ClassRange struct {
	Start, End int
	Class      Class
}

// DiffInto computes the ChangeSet between two equal-length page images
// into cs, reusing its slices' capacity (a steady-state caller allocates
// nothing; a diff of an unchanged page is allocation-free from the first
// call). ranges classifies offsets and must be sorted ascending and
// non-overlapping; offsets not covered by any range are ClassBody.
//
// Unchanged runs are dismissed in two tiers: a vectorised equality check
// (bytes.Equal compiles to the runtime's SIMD memequal) skips whole
// chunks, then an 8-byte XOR scan skips equal words within an unequal
// chunk. Each changed byte is located with a trailing-zeros count and
// classified by a cursor that only moves forward, so classification is
// O(1) amortised and a diff of an unchanged page runs at memcmp speed.
func DiffInto(cs *ChangeSet, current, flushed []byte, ranges []ClassRange) error {
	if len(current) != len(flushed) {
		return fmt.Errorf("core: diff image sizes differ: %d vs %d", len(current), len(flushed))
	}
	for r := 1; r < len(ranges); r++ {
		if ranges[r].Start < ranges[r-1].End {
			return fmt.Errorf("core: class ranges unsorted at %d: [%d,%d) after [%d,%d)",
				r, ranges[r].Start, ranges[r].End, ranges[r-1].Start, ranges[r-1].End)
		}
	}
	cs.Body = cs.Body[:0]
	cs.Meta = cs.Meta[:0]
	n := len(current)
	flushed = flushed[:n]
	// Chunk size trades equality-check granularity against rescan width
	// when a chunk does differ; 512 amortises the call while keeping the
	// word-level rescan of a dirty chunk short.
	const chunk = 512
	r := 0
	i := 0
	for ; i+chunk <= n; i += chunk {
		if bytes.Equal(current[i:i+chunk], flushed[i:i+chunk]) {
			continue
		}
		r = cs.scanRange(ranges, r, current, flushed, i, i+chunk)
	}
	if i < n && !bytes.Equal(current[i:], flushed[i:]) {
		r = cs.scanRange(ranges, r, current, flushed, i, n)
	}
	return nil
}

// scanRange word-scans current[lo:hi] against flushed, appending every
// changed byte through the range cursor, and returns the advanced cursor.
func (cs *ChangeSet) scanRange(ranges []ClassRange, r int, current, flushed []byte, lo, hi int) int {
	i := lo
	for ; i+8 <= hi; i += 8 {
		x := binary.LittleEndian.Uint64(current[i:]) ^ binary.LittleEndian.Uint64(flushed[i:])
		for x != 0 {
			k := bits.TrailingZeros64(x) >> 3
			x &^= uint64(0xFF) << (k * 8)
			off := i + k
			r = cs.classify(ranges, r, off, current[off])
		}
	}
	for ; i < hi; i++ {
		if current[i] != flushed[i] {
			r = cs.classify(ranges, r, i, current[i])
		}
	}
	return r
}

// classify appends one changed byte according to the range cursor r and
// returns the advanced cursor. Offsets arrive in ascending order, so the
// cursor never rewinds.
func (cs *ChangeSet) classify(ranges []ClassRange, r, off int, val byte) int {
	for r < len(ranges) && off >= ranges[r].End {
		r++
	}
	c := ClassBody
	if r < len(ranges) && off >= ranges[r].Start {
		c = ranges[r].Class
	}
	switch c {
	case ClassBody:
		cs.Body = append(cs.Body, Pair{Off: uint16(off), Val: val})
	case ClassMeta:
		cs.Meta = append(cs.Meta, Pair{Off: uint16(off), Val: val})
	}
	return r
}

// Plan decides, per Section 6.2 of the paper, whether a change set can be
// absorbed as In-Place Appends given that the page already holds used of
// the scheme's N delta-records, and if so materialises the new records.
//
// The budget is Cp = (N − used)·M body bytes and (N − used)·V metadata
// bytes; ⌈U/M⌉ records are produced (at least enough to also cover the
// metadata pairs). ErrSchemeOverflow signals that the page must be written
// out-of-place instead.
//
// The records share cs's pair storage, so cs must not change while they
// are in use; their slice is Plan's only allocation.
func (s Scheme) Plan(cs ChangeSet, used int) ([]DeltaRecord, error) {
	if s.Disabled() {
		return nil, ErrSchemeOverflow
	}
	if used < 0 || used > s.N {
		return nil, fmt.Errorf("%w: used=%d of N=%d", ErrBadScheme, used, s.N)
	}
	if cs.Empty() {
		return nil, nil
	}
	free := s.N - used
	if free == 0 {
		return nil, ErrSchemeOverflow
	}
	need := (len(cs.Body) + s.M - 1) / s.M
	if s.V > 0 {
		if mn := (len(cs.Meta) + s.V - 1) / s.V; mn > need {
			need = mn
		}
	} else if len(cs.Meta) > 0 {
		return nil, ErrSchemeOverflow
	}
	if need == 0 {
		need = 1
	}
	if need > free {
		return nil, ErrSchemeOverflow
	}
	// Deterministic record contents: pairs in offset order, which is the
	// order DiffInto emits; only a change set built otherwise is
	// sorted, in place.
	body, meta := cs.Body, cs.Meta
	sortPairs(body)
	sortPairs(meta)

	recs := make([]DeltaRecord, need)
	for i := range recs {
		bLo, bHi := i*s.M, (i+1)*s.M
		if bLo > len(body) {
			bLo = len(body)
		}
		if bHi > len(body) {
			bHi = len(body)
		}
		mLo, mHi := i*s.V, (i+1)*s.V
		if mLo > len(meta) {
			mLo = len(meta)
		}
		if mHi > len(meta) {
			mHi = len(meta)
		}
		recs[i] = DeltaRecord{Body: body[bLo:bHi], Meta: meta[mLo:mHi]}
	}
	return recs, nil
}

// sortPairs puts pairs in ascending offset order unless they already are.
func sortPairs(p []Pair) {
	byOff := func(a, b Pair) int { return int(a.Off) - int(b.Off) }
	if !slices.IsSortedFunc(p, byOff) {
		slices.SortFunc(p, byOff)
	}
}

// FitsBudget reports whether a change set of u body bytes and v metadata
// bytes could still be absorbed with used records already present. This is
// the cheap check the buffer manager runs while tracking updates (the
// paper's U ≤ Cp test) without materialising records.
func (s Scheme) FitsBudget(u, v, used int) bool {
	if s.Disabled() {
		return false
	}
	free := s.N - used
	if free <= 0 {
		return false
	}
	if u > free*s.M {
		return false
	}
	if v > free*s.V {
		return false
	}
	// The records needed for body and metadata changes overlap (each record
	// carries both), so the binding constraint is the max of the two.
	need := (u + s.M - 1) / s.M
	if s.V > 0 {
		if mn := (v + s.V - 1) / s.V; mn > need {
			need = mn
		}
	}
	if need == 0 {
		need = 1
	}
	return need <= free
}
