package core

import (
	"math/rand"
	"testing"
)

// diffRef is the byte-wise reference implementation the word-scan kernels
// are checked against.
func diffRef(current, flushed []byte, isMeta, skip func(int) bool) ChangeSet {
	var cs ChangeSet
	for i := range current {
		if current[i] == flushed[i] {
			continue
		}
		if skip != nil && skip(i) {
			continue
		}
		p := Pair{Off: uint16(i), Val: current[i]}
		if isMeta != nil && isMeta(i) {
			cs.Meta = append(cs.Meta, p)
		} else {
			cs.Body = append(cs.Body, p)
		}
	}
	return cs
}

func pairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rangesFor mirrors a typical page split: [0,hdr) meta, [hdr,stl) body,
// [stl,das) meta, [das,n) skip. Degenerate boundaries collapse ranges.
func rangesFor(hdr, stl, das, n int) []ClassRange {
	var rs []ClassRange
	if hdr > 0 {
		rs = append(rs, ClassRange{Start: 0, End: hdr, Class: ClassMeta})
	}
	if stl > hdr {
		rs = append(rs, ClassRange{Start: hdr, End: stl, Class: ClassBody})
	}
	if das > stl {
		rs = append(rs, ClassRange{Start: stl, End: das, Class: ClassMeta})
	}
	if n > das {
		rs = append(rs, ClassRange{Start: das, End: n, Class: ClassSkip})
	}
	return rs
}

func closuresFor(hdr, stl, das int) (isMeta, skip func(int) bool) {
	isMeta = func(off int) bool { return off < hdr || (off >= stl && off < das) }
	skip = func(off int) bool { return off >= das }
	return
}

// checkAgainstRef diffs via DiffInto and compares it against the
// byte-wise reference.
func checkAgainstRef(t *testing.T, current, flushed []byte, hdr, stl, das int) {
	t.Helper()
	isMeta, skip := closuresFor(hdr, stl, das)
	want := diffRef(current, flushed, isMeta, skip)

	var cs ChangeSet
	if err := DiffInto(&cs, current, flushed, rangesFor(hdr, stl, das, len(current))); err != nil {
		t.Fatalf("DiffInto: %v", err)
	}
	if !pairsEqual(cs.Body, want.Body) || !pairsEqual(cs.Meta, want.Meta) {
		t.Errorf("DiffInto mismatch: got body=%v meta=%v, want body=%v meta=%v",
			cs.Body, cs.Meta, want.Body, want.Meta)
	}
}

func TestDiffWordScanTails(t *testing.T) {
	// Sizes that are not a multiple of 8 exercise the partial tail word,
	// including sizes below one word.
	for _, n := range []int{1, 3, 7, 8, 9, 15, 16, 17, 23, 63, 100, 511, 513, 1000} {
		hdr := 0
		if n > 8 {
			hdr = 8
		}
		das := n // no skip area by default
		current := make([]byte, n)
		flushed := make([]byte, n)
		for i := range current {
			current[i] = byte(i * 7)
			flushed[i] = current[i]
		}
		// Change the very last byte (last partial word) and one byte in
		// the middle.
		current[n-1] ^= 0x40
		if n > 2 {
			current[n/2] ^= 0x01
		}
		checkAgainstRef(t, current, flushed, hdr, das, das)
	}
}

func TestDiffChangesStraddlingWordBoundary(t *testing.T) {
	n := 64
	current := make([]byte, n)
	flushed := make([]byte, n)
	for i := range current {
		current[i] = 0xAA
		flushed[i] = 0xAA
	}
	// A run of changed bytes crossing the word boundary at offset 8, one
	// crossing at 16, and one crossing the chunk-to-tail boundary of the
	// scan (here every boundary is within one chunk, which is fine).
	for _, off := range []int{6, 7, 8, 9, 15, 16, 31, 32, 33} {
		current[off] ^= 0xFF
	}
	checkAgainstRef(t, current, flushed, 4, 48, 56)
}

func TestDiffAllChangedAllClasses(t *testing.T) {
	n := 40
	current := make([]byte, n)
	flushed := make([]byte, n)
	for i := range current {
		current[i] = byte(i + 1) // differs from 0 everywhere
	}
	checkAgainstRef(t, current, flushed, 8, 24, 32)
}

func TestDiffFuzzAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x17A))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(2048)
		current := make([]byte, n)
		flushed := make([]byte, n)
		rng.Read(flushed)
		copy(current, flushed)
		// Sprinkle changes: sometimes sparse, sometimes dense runs.
		changes := rng.Intn(20)
		for c := 0; c < changes; c++ {
			if rng.Intn(4) == 0 {
				// A contiguous dirty run.
				start := rng.Intn(n)
				end := start + 1 + rng.Intn(32)
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					current[i] ^= byte(1 + rng.Intn(255))
				}
			} else {
				current[rng.Intn(n)] ^= byte(1 + rng.Intn(255))
			}
		}
		// Random class boundaries 0 ≤ hdr ≤ stl ≤ das ≤ n.
		hdr := rng.Intn(n + 1)
		stl := hdr + rng.Intn(n-hdr+1)
		das := stl + rng.Intn(n-stl+1)
		checkAgainstRef(t, current, flushed, hdr, stl, das)
	}
}

func TestDiffIntoRejectsUnsortedRanges(t *testing.T) {
	var cs ChangeSet
	bad := []ClassRange{{Start: 8, End: 16, Class: ClassBody}, {Start: 0, End: 8, Class: ClassMeta}}
	if err := DiffInto(&cs, make([]byte, 16), make([]byte, 16), bad); err == nil {
		t.Fatal("unsorted ranges accepted")
	}
}

func TestDiffIntoSizeMismatch(t *testing.T) {
	var cs ChangeSet
	if err := DiffInto(&cs, make([]byte, 16), make([]byte, 15), nil); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// TestDiffSizeMismatch checks the other direction (current shorter than
// flushed) and that a rejected diff leaves the caller's change set as it was.
func TestDiffSizeMismatch(t *testing.T) {
	cs := ChangeSet{Body: []Pair{{Off: 1, Val: 7}}}
	ranges := []ClassRange{{Start: 0, End: 2, Class: ClassMeta}}
	if err := DiffInto(&cs, make([]byte, 4), make([]byte, 8), ranges); err == nil {
		t.Fatal("DiffInto accepted mismatched sizes")
	}
	if len(cs.Body) != 1 || cs.Body[0] != (Pair{Off: 1, Val: 7}) || len(cs.Meta) != 0 {
		t.Errorf("rejected diff changed the change set: %+v", cs)
	}
}

func TestDiffIntoReusesCapacity(t *testing.T) {
	current := make([]byte, 256)
	flushed := make([]byte, 256)
	current[10] = 1
	current[200] = 2
	var cs ChangeSet
	if err := DiffInto(&cs, current, flushed, nil); err != nil {
		t.Fatal(err)
	}
	if len(cs.Body) != 2 {
		t.Fatalf("body=%d, want 2", len(cs.Body))
	}
	firstBody := &cs.Body[0]
	if err := DiffInto(&cs, current, flushed, nil); err != nil {
		t.Fatal(err)
	}
	if &cs.Body[0] != firstBody {
		t.Error("DiffInto reallocated Body despite sufficient capacity")
	}
}

func TestDiffIntoUnchangedPageZeroAllocs(t *testing.T) {
	current := make([]byte, 4096)
	flushed := make([]byte, 4096)
	for i := range current {
		current[i] = byte(i)
		flushed[i] = byte(i)
	}
	ranges := rangesFor(40, 4000, 4050, 4096)
	var cs ChangeSet
	allocs := testing.AllocsPerRun(100, func() {
		if err := DiffInto(&cs, current, flushed, ranges); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DiffInto on unchanged page: %.1f allocs/op, want 0", allocs)
	}
}

func TestDiffIntoSteadyStateZeroAllocs(t *testing.T) {
	// A page with changes still allocates nothing once the ChangeSet has
	// warmed its capacity.
	current := make([]byte, 4096)
	flushed := make([]byte, 4096)
	current[8] = 1    // meta
	current[100] = 2  // body
	current[4090] = 3 // skip
	ranges := rangesFor(40, 4000, 4050, 4096)
	var cs ChangeSet
	if err := DiffInto(&cs, current, flushed, ranges); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DiffInto(&cs, current, flushed, ranges); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state DiffInto: %.1f allocs/op, want 0", allocs)
	}
}
