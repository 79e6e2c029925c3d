package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSchemeSizes(t *testing.T) {
	cases := []struct {
		s        Scheme
		record   int
		area     int
		overhead float64
	}{
		// The paper's worked example: [2×3], V=12 ⇒ record 46B, area 92B,
		// 2.2% of a 4KB page.
		{Scheme{N: 2, M: 3, V: 12}, 46, 92, 0.0224609375},
		{Scheme{N: 2, M: 4, V: 12}, 49, 98, 98.0 / 4096},
		{Scheme{N: 0, M: 0, V: 0}, 0, 0, 0},
		{Scheme{N: 3, M: 100, V: 12}, 337, 1011, 1011.0 / 4096},
	}
	for _, c := range cases {
		if got := c.s.RecordSize(); got != c.record {
			t.Errorf("%v RecordSize = %d, want %d", c.s, got, c.record)
		}
		if got := c.s.AreaSize(); got != c.area {
			t.Errorf("%v AreaSize = %d, want %d", c.s, got, c.area)
		}
		if got := c.s.SpaceOverhead(4096); got != c.overhead {
			t.Errorf("%v SpaceOverhead = %g, want %g", c.s, got, c.overhead)
		}
	}
}

func TestSchemeValidate(t *testing.T) {
	valid := []Scheme{NewScheme(2, 3), NewScheme(3, 125), {}, NewScheme(0, 0)}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", s, err)
		}
	}
	invalid := []Scheme{NewScheme(2, 126), NewScheme(65, 3), {N: 2, M: 3, V: 200}, {N: -1, M: 3, V: 1}}
	for _, s := range invalid {
		if s.Disabled() {
			continue
		}
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		}
	}
}

func TestSchemeString(t *testing.T) {
	if got := NewScheme(2, 3).String(); got != "[2×3]" {
		t.Errorf("String = %q", got)
	}
	if got := (Scheme{}).String(); got != "[0×0]" {
		t.Errorf("disabled String = %q", got)
	}
}

func TestParseScheme(t *testing.T) {
	for in, want := range map[string]Scheme{
		"2x4":     NewScheme(2, 4),
		"3X10x8":  {N: 3, M: 10, V: 8},
		" 2 x 3 ": NewScheme(2, 3),
		"0x0":     NewScheme(0, 0),
	} {
		if got, err := ParseScheme(in); err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, in := range []string{"banana", "2", "2x", "2x4x5x6", "2x126", "65x3",
		"-2x4", "2x-4", "-1x-1"} {
		if _, err := ParseScheme(in); !errors.Is(err, ErrBadScheme) {
			t.Errorf("ParseScheme(%q) = %v, want ErrBadScheme", in, err)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := Scheme{N: 2, M: 3, V: 12}
	d := DeltaRecord{
		Body: []Pair{{Off: 100, Val: 9}, {Off: 101, Val: 0}},
		Meta: []Pair{{Off: 8, Val: 10}, {Off: 4095, Val: 0xFE}},
	}
	buf := make([]byte, s.RecordSize())
	if err := s.Encode(d, buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, present, err := s.Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !present {
		t.Fatal("Decode: record not present")
	}
	if len(got.Body) != len(d.Body) || len(got.Meta) != len(d.Meta) {
		t.Fatalf("Decode lengths body=%d meta=%d", len(got.Body), len(got.Meta))
	}
	for i, p := range d.Body {
		if got.Body[i] != p {
			t.Errorf("body[%d] = %+v, want %+v", i, got.Body[i], p)
		}
	}
	for i, p := range d.Meta {
		if got.Meta[i] != p {
			t.Errorf("meta[%d] = %+v, want %+v", i, got.Meta[i], p)
		}
	}
}

func TestDecodeErasedSlot(t *testing.T) {
	s := Scheme{N: 2, M: 3, V: 12}
	slot := bytes.Repeat([]byte{Erased}, s.RecordSize())
	_, present, err := s.Decode(slot)
	if err != nil {
		t.Fatalf("Decode erased: %v", err)
	}
	if present {
		t.Fatal("erased slot decoded as present")
	}
	if SlotPresent(slot) {
		t.Fatal("SlotPresent(erased) = true")
	}
}

func TestEncodeRejectsOverflow(t *testing.T) {
	s := Scheme{N: 1, M: 2, V: 1}
	buf := make([]byte, s.RecordSize())
	d := DeltaRecord{Body: []Pair{{1, 1}, {2, 2}, {3, 3}}}
	if err := s.Encode(d, buf); err == nil {
		t.Error("Encode accepted 3 body pairs with M=2")
	}
	d = DeltaRecord{Meta: []Pair{{1, 1}, {2, 2}}}
	if err := s.Encode(d, buf); err == nil {
		t.Error("Encode accepted 2 meta pairs with V=1")
	}
}

func TestEncodedRecordIsISPPProgrammable(t *testing.T) {
	// Programming onto an erased region only clears bits; therefore any
	// encoded record must be writable over 0xFF. Trivially true, but the
	// converse matters: every *unused* byte must remain 0xFF so a later
	// Correct-and-Refresh style re-program of the same record is legal.
	s := Scheme{N: 2, M: 5, V: 3}
	d := DeltaRecord{Body: []Pair{{Off: 7, Val: 0x55}}}
	buf := make([]byte, s.RecordSize())
	if err := s.Encode(d, buf); err != nil {
		t.Fatal(err)
	}
	// control + one pair = 4 bytes programmed, rest erased.
	for i := 4; i < 1+3*s.M; i++ {
		if buf[i] != Erased {
			t.Errorf("unused body byte %d = %#x, want erased", i, buf[i])
		}
	}
	for i := 1 + 3*s.M; i < len(buf); i++ {
		if buf[i] != Erased {
			t.Errorf("unused meta byte %d = %#x, want erased", i, buf[i])
		}
	}
}

func TestApply(t *testing.T) {
	page := make([]byte, 64)
	d := DeltaRecord{
		Body: []Pair{{Off: 10, Val: 0xAA}},
		Meta: []Pair{{Off: 0, Val: 0x01}},
	}
	if err := d.Apply(page); err != nil {
		t.Fatal(err)
	}
	if page[10] != 0xAA || page[0] != 0x01 {
		t.Errorf("apply result page[10]=%#x page[0]=%#x", page[10], page[0])
	}
	bad := DeltaRecord{Body: []Pair{{Off: 64, Val: 1}}}
	if err := bad.Apply(page); err == nil {
		t.Error("Apply accepted out-of-range offset")
	}
}

// TestApplyAreaMatchesDecodeApply holds the fetch path's decoder to the
// reference (checkApplyArea) on random page images whose delta area
// carries random records — well-formed ones, and ones with a body count
// beyond M or an offset beyond the page.
func TestApplyAreaMatchesDecodeApply(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pair := func(limit int) Pair { return Pair{Off: uint16(rng.Intn(limit)), Val: byte(rng.Intn(256))} }
	failed, applied := 0, 0
	for iter := 0; iter < 2000; iter++ {
		s := Scheme{N: 1 + rng.Intn(4), M: 1 + rng.Intn(6), V: rng.Intn(4)}
		rs := s.RecordSize()
		page := make([]byte, 256+rng.Intn(256))
		rng.Read(page)
		area := len(page) - s.AreaSize()
		for i := area; i < len(page); i++ {
			page[i] = Erased
		}
		// Offsets reach into the area and, one image in four, past the page.
		limit := len(page)
		if iter%4 == 0 {
			limit += 8
		}
		for i, used := 0, rng.Intn(s.N+1); i < used; i++ {
			d := DeltaRecord{}
			for j := rng.Intn(s.M + 1); j > 0; j-- {
				d.Body = append(d.Body, pair(limit))
			}
			for j := rng.Intn(s.V + 1); j > 0; j-- {
				d.Meta = append(d.Meta, pair(limit))
			}
			slot := page[area+i*rs:][:rs]
			if err := s.Encode(d, slot); err != nil {
				t.Fatal(err)
			}
			if iter%7 == 0 && rng.Intn(2) == 0 {
				slot[0] = byte(s.M + 1 + rng.Intn(100))
			}
		}

		n, err := checkApplyArea(t, s, page, area)
		if err != nil {
			failed++
		}
		applied += n
	}
	if failed < 50 || applied < 1000 {
		t.Fatalf("only %d corrupt images and %d applied records: the generator no longer covers both", failed, applied)
	}
}

func TestDiffSplitsBodyAndMeta(t *testing.T) {
	flushed := make([]byte, 32)
	current := make([]byte, 32)
	copy(current, flushed)
	current[2] = 1  // meta (header)
	current[20] = 2 // body
	current[30] = 3 // skipped (delta area)
	var cs ChangeSet
	if err := DiffInto(&cs, current, flushed, []ClassRange{{0, 8, ClassMeta}, {28, 32, ClassSkip}}); err != nil {
		t.Fatal(err)
	}
	if len(cs.Meta) != 1 || cs.Meta[0] != (Pair{Off: 2, Val: 1}) {
		t.Errorf("meta = %+v", cs.Meta)
	}
	if len(cs.Body) != 1 || cs.Body[0] != (Pair{Off: 20, Val: 2}) {
		t.Errorf("body = %+v", cs.Body)
	}
}

func TestPlanSingleRecord(t *testing.T) {
	s := Scheme{N: 2, M: 3, V: 12}
	cs := ChangeSet{
		Body: []Pair{{Off: 300, Val: 3}, {Off: 100, Val: 1}},
		Meta: []Pair{{Off: 8, Val: 10}},
	}
	recs, err := s.Plan(cs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	// Pairs must come out sorted by offset.
	if recs[0].Body[0].Off != 100 || recs[0].Body[1].Off != 300 {
		t.Errorf("body pairs not sorted: %+v", recs[0].Body)
	}
}

func TestPlanMultiRecord(t *testing.T) {
	s := Scheme{N: 3, M: 2, V: 12}
	cs := ChangeSet{Body: []Pair{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}}}
	recs, err := s.Plan(cs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 { // ceil(5/2)
		t.Fatalf("got %d records, want 3", len(recs))
	}
	total := 0
	for _, r := range recs {
		total += len(r.Body)
	}
	if total != 5 {
		t.Errorf("records carry %d body pairs, want 5", total)
	}
}

func TestPlanOverflow(t *testing.T) {
	s := Scheme{N: 2, M: 3, V: 2}
	// 7 body bytes > N*M = 6.
	cs := ChangeSet{Body: make([]Pair, 7)}
	if _, err := s.Plan(cs, 0); err != ErrSchemeOverflow {
		t.Errorf("Plan = %v, want ErrSchemeOverflow", err)
	}
	// Fits body budget, but page already holds 2 records.
	cs = ChangeSet{Body: make([]Pair, 1)}
	if _, err := s.Plan(cs, 2); err != ErrSchemeOverflow {
		t.Errorf("Plan full page = %v, want ErrSchemeOverflow", err)
	}
	// Metadata exceeding (N-used)*V.
	cs = ChangeSet{Meta: make([]Pair, 5)}
	if _, err := s.Plan(cs, 0); err != ErrSchemeOverflow {
		t.Errorf("Plan meta overflow = %v, want ErrSchemeOverflow", err)
	}
}

func TestPlanMetadataOnlyChange(t *testing.T) {
	// A PageLSN-only change (e.g. commit of a logically-undone tx) must
	// still be absorbable.
	s := Scheme{N: 2, M: 3, V: 12}
	cs := ChangeSet{Meta: []Pair{{Off: 8, Val: 1}}}
	recs, err := s.Plan(cs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Body) != 0 || len(recs[0].Meta) != 1 {
		t.Errorf("records = %+v", recs)
	}
}

func TestPlanDisabledScheme(t *testing.T) {
	var s Scheme
	if _, err := s.Plan(ChangeSet{Body: []Pair{{1, 1}}}, 0); err != ErrSchemeOverflow {
		t.Errorf("disabled Plan = %v, want ErrSchemeOverflow", err)
	}
}

func TestFitsBudget(t *testing.T) {
	s := Scheme{N: 2, M: 3, V: 12}
	cases := []struct {
		u, v, used int
		want       bool
	}{
		{3, 12, 0, true},
		{6, 24, 0, true},
		{7, 0, 0, false},
		{6, 25, 0, false},
		{3, 12, 1, true},
		{4, 0, 1, false},
		{1, 1, 2, false},
		{0, 1, 1, true},
	}
	for _, c := range cases {
		if got := s.FitsBudget(c.u, c.v, c.used); got != c.want {
			t.Errorf("FitsBudget(%d,%d,%d) = %v, want %v", c.u, c.v, c.used, got, c.want)
		}
	}
	if (Scheme{}).FitsBudget(0, 0, 0) {
		t.Error("disabled scheme FitsBudget = true")
	}
}

// Property: Plan ∘ Encode ∘ Decode ∘ Apply reconstructs the current image
// from the flushed image for any random small modification set that fits
// the budget.
func TestPropertyDiffPlanApplyRoundTrip(t *testing.T) {
	s := Scheme{N: 3, M: 8, V: 12}
	const pageSize = 512
	metaEnd := 16
	deltaStart := pageSize - s.AreaSize()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		flushed := make([]byte, pageSize)
		rng.Read(flushed)
		// Keep the delta area erased as the page layout maintains it.
		for i := deltaStart; i < pageSize; i++ {
			flushed[i] = Erased
		}
		current := append([]byte(nil), flushed...)
		nChanges := rng.Intn(s.N*s.M + 1)
		for i := 0; i < nChanges; i++ {
			off := rng.Intn(deltaStart)
			current[off] = byte(rng.Intn(256))
		}
		var cs ChangeSet
		if err := DiffInto(&cs, current, flushed, []ClassRange{{0, metaEnd, ClassMeta}, {deltaStart, pageSize, ClassSkip}}); err != nil {
			return false
		}
		if len(cs.Meta) > s.N*s.V {
			return true // legitimately un-plannable; not this property's concern
		}
		recs, err := s.Plan(cs, 0)
		if err == ErrSchemeOverflow {
			return len(cs.Body) > s.N*s.M || len(cs.Meta) > s.N*s.V ||
				!s.FitsBudget(len(cs.Body), len(cs.Meta), 0)
		}
		if err != nil {
			return false
		}
		// Encode every record, decode it back, apply onto flushed copy.
		rebuilt := append([]byte(nil), flushed...)
		for _, r := range recs {
			buf := make([]byte, s.RecordSize())
			if err := s.Encode(r, buf); err != nil {
				return false
			}
			dec, present, err := s.Decode(buf)
			if err != nil || !present {
				return false
			}
			if err := dec.Apply(rebuilt); err != nil {
				return false
			}
		}
		return bytes.Equal(rebuilt, current)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: FitsBudget agrees with Plan for arbitrary u, v, used.
func TestPropertyFitsBudgetMatchesPlan(t *testing.T) {
	f := func(n, m, v, u, vv, used uint8) bool {
		s := Scheme{N: int(n%5) + 1, M: int(m%10) + 1, V: int(v % 13)}
		usedN := int(used) % (s.N + 1)
		cs := ChangeSet{Body: make([]Pair, int(u)%40), Meta: make([]Pair, int(vv)%40)}
		if cs.Empty() {
			return true
		}
		for i := range cs.Body {
			cs.Body[i] = Pair{Off: uint16(i), Val: 1}
		}
		for i := range cs.Meta {
			cs.Meta[i] = Pair{Off: uint16(100 + i), Val: 1}
		}
		_, err := s.Plan(cs, usedN)
		fits := s.FitsBudget(len(cs.Body), len(cs.Meta), usedN)
		if err == nil {
			return fits
		}
		if err == ErrSchemeOverflow {
			return !fits
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRIDString(t *testing.T) {
	r := RID{Page: 42, Slot: 7}
	if r.String() != "42.7" {
		t.Errorf("String = %q", r.String())
	}
}
