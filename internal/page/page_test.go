package page

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ipa/internal/core"
)

var testLayout = Layout{PageSize: 512, Scheme: core.Scheme{N: 2, M: 3, V: 12}}

func newPage(t *testing.T) *Page {
	t.Helper()
	buf := make([]byte, testLayout.PageSize)
	p, err := Format(buf, testLayout, 4711)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLayoutValidate(t *testing.T) {
	if err := testLayout.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Layout{PageSize: 100, Scheme: core.Scheme{N: 2, M: 10, V: 12}}
	if err := bad.Validate(); !errors.Is(err, ErrTooSmall) {
		t.Errorf("tiny page: %v", err)
	}
	huge := Layout{PageSize: 1 << 17, Scheme: core.Scheme{}}
	if err := huge.Validate(); !errors.Is(err, ErrTooSmall) {
		t.Errorf("128KB page: %v", err)
	}
}

func TestLayoutOffsets(t *testing.T) {
	l := testLayout
	if l.Scheme.RecordSize() != 46 {
		t.Fatalf("record size %d", l.Scheme.RecordSize())
	}
	if l.DeltaAreaStart() != 512-92 {
		t.Errorf("DeltaAreaStart = %d", l.DeltaAreaStart())
	}
	if l.DeltaSlotOff(1) != 512-92+46 {
		t.Errorf("DeltaSlotOff(1) = %d", l.DeltaSlotOff(1))
	}
	if l.BodyCapacity() != 512-92-HeaderSize {
		t.Errorf("BodyCapacity = %d", l.BodyCapacity())
	}
}

func TestFormatHeader(t *testing.T) {
	p := newPage(t)
	if p.ID() != 4711 {
		t.Errorf("ID = %d", p.ID())
	}
	if p.LSN() != 0 || p.SlotCount() != 0 || p.NextPage() != 0 {
		t.Error("fresh page header not zeroed")
	}
	for i := p.Layout().DeltaAreaStart(); i < p.Layout().PageSize; i++ {
		if p.Buf()[i] != core.Erased {
			t.Fatal("delta area not erased after Format")
		}
	}
	p.SetLSN(0x1234)
	if p.LSN() != 0x1234 {
		t.Errorf("LSN = %#x", p.LSN())
	}
	p.SetNextPage(99)
	if p.NextPage() != 99 {
		t.Errorf("NextPage = %d", p.NextPage())
	}
	p.SetFlags(FlagIndex | FlagLeaf)
	if p.Flags() != FlagIndex|FlagLeaf {
		t.Errorf("Flags = %#x", p.Flags())
	}
}

func TestLSNLowByteLocality(t *testing.T) {
	// The paper relies on only the least-significant LSN byte changing
	// for nearby LSNs; little-endian encoding at offset 8 provides that.
	p := newPage(t)
	p.SetLSN(0x0100)
	before := append([]byte(nil), p.Buf()[8:16]...)
	p.SetLSN(0x0103)
	changed := 0
	for i, b := range p.Buf()[8:16] {
		if b != before[i] {
			changed++
		}
	}
	if changed != 1 {
		t.Errorf("%d LSN bytes changed, want 1", changed)
	}
}

func TestAttachChecksDeltaArea(t *testing.T) {
	p := newPage(t)
	if _, err := Attach(p.Buf(), testLayout); err != nil {
		t.Fatal(err)
	}
	other := Layout{PageSize: 512, Scheme: core.Scheme{N: 1, M: 3, V: 12}}
	if _, err := Attach(p.Buf(), other); !errors.Is(err, ErrCorrupt) {
		t.Errorf("mismatched layout attach: %v", err)
	}
}

func TestInsertReadUpdateDelete(t *testing.T) {
	p := newPage(t)
	s1, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Insert([]byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("duplicate slot")
	}
	got, err := p.ReadTuple(s1)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadTuple = %q, %v", got, err)
	}
	// Same-length update is in place.
	off1, _ := p.slot(s1)
	if err := p.Update(s1, []byte("HELLO")); err != nil {
		t.Fatal(err)
	}
	off2, _ := p.slot(s1)
	if off1 != off2 {
		t.Error("same-length update relocated tuple")
	}
	got, _ = p.ReadTuple(s1)
	if string(got) != "HELLO" {
		t.Errorf("after update: %q", got)
	}
	// Length-changing update relocates but keeps the slot number.
	if err := p.Update(s1, []byte("a longer tuple value")); err != nil {
		t.Fatal(err)
	}
	got, _ = p.ReadTuple(s1)
	if string(got) != "a longer tuple value" {
		t.Errorf("after grow: %q", got)
	}
	got, _ = p.ReadTuple(s2)
	if string(got) != "world!" {
		t.Errorf("neighbour disturbed: %q", got)
	}
	if err := p.Delete(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadTuple(s1); !errors.Is(err, ErrBadSlot) {
		t.Errorf("read deleted: %v", err)
	}
	if err := p.Delete(s1); !errors.Is(err, ErrBadSlot) {
		t.Errorf("double delete: %v", err)
	}
	// Deleted slot is reused.
	s3, err := p.Insert([]byte("reuse"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Errorf("slot %d reused, want %d", s3, s1)
	}
}

func TestInsertUntilFullThenCompact(t *testing.T) {
	p := newPage(t)
	var slots []int
	tuple := bytes.Repeat([]byte{0x42}, 32)
	for {
		s, err := p.Insert(tuple)
		if err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatal(err)
			}
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 5 {
		t.Fatalf("only %d tuples fit", len(slots))
	}
	// Delete every other tuple; inserting a larger tuple must succeed via
	// compaction.
	for i := 0; i < len(slots); i += 2 {
		if err := p.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte{0x7}, 60)
	if _, err := p.Insert(big); err != nil {
		t.Fatalf("insert after deletes: %v", err)
	}
	// Remaining odd tuples intact.
	for i := 1; i < len(slots); i += 2 {
		got, err := p.ReadTuple(slots[i])
		if err != nil || !bytes.Equal(got, tuple) {
			t.Fatalf("tuple %d corrupted after compact: %v", slots[i], err)
		}
	}
}

func TestInsertErrors(t *testing.T) {
	p := newPage(t)
	if _, err := p.Insert(nil); !errors.Is(err, ErrTupleLarge) {
		t.Errorf("empty insert: %v", err)
	}
	if _, err := p.Insert(make([]byte, 600)); !errors.Is(err, ErrTupleLarge) {
		t.Errorf("oversized insert: %v", err)
	}
}

// IsMeta classifies a page offset as metadata (header or slot table) for
// the paper's byte-level delta tracking, which separates body pairs (M
// budget) from metadata pairs (V budget). IsMeta and InDeltaArea are the
// per-offset reference ClassRanges is checked against.
func (p *Page) IsMeta(off int) bool {
	if off < HeaderSize {
		return true
	}
	return off >= p.slotTableLow() && off < p.l.DeltaAreaStart()
}

// InDeltaArea reports whether an offset lies in the delta-record area
// (always excluded from diffs: the logical image keeps it erased).
func (p *Page) InDeltaArea(off int) bool { return off >= p.l.DeltaAreaStart() }

func TestIsMetaClassification(t *testing.T) {
	p := newPage(t)
	p.Insert([]byte("abcd"))
	p.Insert([]byte("efgh"))
	if !p.IsMeta(0) || !p.IsMeta(HeaderSize-1) {
		t.Error("header not classified as meta")
	}
	if p.IsMeta(HeaderSize) {
		t.Error("body classified as meta")
	}
	// Slot table: 2 slots above the delta area.
	slotLow := p.Layout().DeltaAreaStart() - 2*SlotSize
	if !p.IsMeta(slotLow) || !p.IsMeta(p.Layout().DeltaAreaStart()-1) {
		t.Error("slot table not classified as meta")
	}
	if p.IsMeta(slotLow - 1) {
		t.Error("free space classified as meta")
	}
	if !p.InDeltaArea(p.Layout().DeltaAreaStart()) || p.InDeltaArea(p.Layout().DeltaAreaStart()-1) {
		t.Error("InDeltaArea boundary wrong")
	}
}

// TestClassRangesMatchClosures proves the diff fast path's range
// classifier agrees with IsMeta/InDeltaArea at every offset, for pages
// with and without tuples (the slot-table boundary moves with SlotCount).
func TestClassRangesMatchClosures(t *testing.T) {
	p := newPage(t)
	check := func(label string) {
		t.Helper()
		var rbuf [4]core.ClassRange
		ranges := p.ClassRanges(rbuf[:0])
		for off := 0; off < p.Layout().PageSize; off++ {
			want := core.ClassBody
			switch {
			case p.InDeltaArea(off):
				want = core.ClassSkip
			case p.IsMeta(off):
				want = core.ClassMeta
			}
			got := core.ClassBody
			for _, r := range ranges {
				if off >= r.Start && off < r.End {
					got = r.Class
					break
				}
			}
			if got != want {
				t.Fatalf("%s: offset %d classified %v, closures say %v", label, off, got, want)
			}
		}
		for i := 1; i < len(ranges); i++ {
			if ranges[i].Start < ranges[i-1].End {
				t.Fatalf("%s: ranges unsorted: %v", label, ranges)
			}
		}
	}
	check("empty page")
	for i := 0; i < 5; i++ {
		if _, err := p.Insert([]byte("tuple-data")); err != nil {
			t.Fatal(err)
		}
		check("after insert")
	}
}

func TestClassRangesZeroAllocs(t *testing.T) {
	p := newPage(t)
	if _, err := p.Insert([]byte("abcd")); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var rbuf [4]core.ClassRange
		rs := p.ClassRanges(rbuf[:0])
		if len(rs) == 0 {
			t.Fatal("no ranges")
		}
	})
	if allocs != 0 {
		t.Errorf("ClassRanges: %.1f allocs/op, want 0", allocs)
	}
}

func TestReconstructPhysicalImage(t *testing.T) {
	p := newPage(t)
	s, _ := p.Insert([]byte{9, 9, 9, 9})
	flushed := append([]byte(nil), p.Buf()...)

	// Simulate a later modification captured as a delta-record in the
	// physical image.
	tupOff, _ := p.slot(s)
	rec := core.DeltaRecord{
		Body: []core.Pair{{Off: uint16(tupOff), Val: 3}},
		Meta: []core.Pair{{Off: 8, Val: 10}}, // LSN low byte
	}
	off, data, err := EncodeRecords(testLayout, 0, []core.DeltaRecord{rec})
	if err != nil {
		t.Fatal(err)
	}
	physical := append([]byte(nil), flushed...)
	copy(physical[off:], data)
	if UsedDeltaSlots(physical, testLayout) != 1 {
		t.Fatalf("UsedDeltaSlots = %d", UsedDeltaSlots(physical, testLayout))
	}

	applied, err := Reconstruct(physical, testLayout)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Errorf("applied = %d", applied)
	}
	lp, err := Attach(physical, testLayout)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := lp.ReadTuple(s)
	if got[0] != 3 {
		t.Errorf("tuple byte = %d, want 3", got[0])
	}
	if lp.LSN() != 10 {
		t.Errorf("LSN = %d, want 10", lp.LSN())
	}
	for i := testLayout.DeltaAreaStart(); i < testLayout.PageSize; i++ {
		if physical[i] != core.Erased {
			t.Fatal("delta area not wiped after Reconstruct")
		}
	}
}

func TestReconstructAppliesInOrder(t *testing.T) {
	p := newPage(t)
	s, _ := p.Insert([]byte{1})
	tupOff, _ := p.slot(s)
	r1 := core.DeltaRecord{Body: []core.Pair{{Off: uint16(tupOff), Val: 5}}}
	r2 := core.DeltaRecord{Body: []core.Pair{{Off: uint16(tupOff), Val: 7}}}
	off, data, err := EncodeRecords(testLayout, 0, []core.DeltaRecord{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	physical := append([]byte(nil), p.Buf()...)
	copy(physical[off:], data)
	if n := UsedDeltaSlots(physical, testLayout); n != 2 {
		t.Fatalf("UsedDeltaSlots = %d", n)
	}
	if _, err := Reconstruct(physical, testLayout); err != nil {
		t.Fatal(err)
	}
	lp, _ := Attach(physical, testLayout)
	got, _ := lp.ReadTuple(s)
	if got[0] != 7 { // later record wins
		t.Errorf("tuple = %d, want 7", got[0])
	}
}

func TestEncodeRecordsBounds(t *testing.T) {
	rec := core.DeltaRecord{Body: []core.Pair{{Off: 50, Val: 1}}}
	if _, _, err := EncodeRecords(testLayout, 1, []core.DeltaRecord{rec, rec}); err == nil {
		t.Error("slot overflow accepted")
	}
	if _, _, err := EncodeRecords(Layout{PageSize: 512}, 0, []core.DeltaRecord{rec}); err == nil {
		t.Error("disabled scheme accepted")
	}
}

func TestReconstructNoDeltas(t *testing.T) {
	p := newPage(t)
	physical := append([]byte(nil), p.Buf()...)
	applied, err := Reconstruct(physical, testLayout)
	if err != nil || applied != 0 {
		t.Errorf("Reconstruct = (%d, %v)", applied, err)
	}
	if !bytes.Equal(physical, p.Buf()) {
		t.Error("image changed without deltas")
	}
}

func TestReconstructDisabledScheme(t *testing.T) {
	l := Layout{PageSize: 512}
	buf := make([]byte, 512)
	p, err := Format(buf, l, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := Reconstruct(p.Buf(), l); err != nil || n != 0 {
		t.Errorf("Reconstruct = (%d, %v)", n, err)
	}
}

// Property: a full cycle — modify page, diff against flushed image, plan
// records, encode into the physical image, reconstruct — always yields
// exactly the modified logical image.
func TestPropertyFullIPACycle(t *testing.T) {
	l := testLayout
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, l.PageSize)
		p, err := Format(buf, l, core.PageID(rng.Intn(1000)+1))
		if err != nil {
			return false
		}
		// A handful of 8-byte tuples.
		nTup := 3 + rng.Intn(5)
		slots := make([]int, nTup)
		for i := range slots {
			tup := make([]byte, 8)
			rng.Read(tup)
			s, err := p.Insert(tup)
			if err != nil {
				return false
			}
			slots[i] = s
		}
		flushed := append([]byte(nil), buf...)

		// Small in-place updates: change ≤ M bytes of one tuple + LSN.
		s := slots[rng.Intn(nTup)]
		tup, _ := p.ReadTuple(s)
		for i := 0; i < 1+rng.Intn(l.Scheme.M); i++ {
			tup[rng.Intn(len(tup))] = byte(rng.Intn(256))
		}
		p.SetLSN(core.LSN(rng.Intn(250)))

		var cs core.ChangeSet
		if err := core.DiffInto(&cs, buf, flushed, p.ClassRanges(nil)); err != nil {
			return false
		}
		recs, err := l.Scheme.Plan(cs, 0)
		if err == core.ErrSchemeOverflow {
			return true // legitimately out-of-place
		}
		if err != nil {
			return false
		}
		if len(recs) == 0 {
			return bytes.Equal(buf, flushed)
		}
		off, data, err := EncodeRecords(l, 0, recs)
		if err != nil {
			return false
		}
		physical := append([]byte(nil), flushed...)
		copy(physical[off:], data)
		if _, err := Reconstruct(physical, l); err != nil {
			return false
		}
		return bytes.Equal(physical, buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: random tuple churn never corrupts other tuples.
func TestPropertyTupleChurn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, testLayout.PageSize)
		p, err := Format(buf, testLayout, 1)
		if err != nil {
			return false
		}
		shadow := map[int][]byte{}
		for op := 0; op < 200; op++ {
			switch rng.Intn(3) {
			case 0: // insert
				tup := make([]byte, 1+rng.Intn(24))
				rng.Read(tup)
				s, err := p.Insert(tup)
				if err == nil {
					shadow[s] = append([]byte(nil), tup...)
				}
			case 1: // update random live slot
				for s := range shadow {
					tup := make([]byte, 1+rng.Intn(24))
					rng.Read(tup)
					if err := p.Update(s, tup); err == nil {
						shadow[s] = append([]byte(nil), tup...)
					}
					break
				}
			case 2: // delete random live slot
				for s := range shadow {
					if err := p.Delete(s); err != nil {
						return false
					}
					delete(shadow, s)
					break
				}
			}
		}
		for s, want := range shadow {
			got, err := p.ReadTuple(s)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// physicalWith returns a formatted page with one tuple, as flash would
// hold it with recs appended, plus the tuple's offset.
func physicalWith(t *testing.T, recs ...core.DeltaRecord) (physical []byte, tupOff int) {
	t.Helper()
	p := newPage(t)
	s, err := p.Insert([]byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	tupOff, _ = p.slot(s)
	physical = append([]byte(nil), p.Buf()...)
	if len(recs) > 0 {
		off, data, err := EncodeRecords(testLayout, 0, recs)
		if err != nil {
			t.Fatal(err)
		}
		copy(physical[off:], data)
	}
	return physical, tupOff
}

// A corrupt delta-record — in whichever slot, body or metadata pair —
// fails the page before any record is applied: the image stays exactly
// as it was read.
func TestReconstructCorruptRecords(t *testing.T) {
	good := func(off int) core.DeltaRecord {
		return core.DeltaRecord{Body: []core.Pair{{Off: uint16(off), Val: 9}}, Meta: []core.Pair{{Off: 8, Val: 7}}}
	}
	rs := testLayout.Scheme.RecordSize()
	cases := map[string]func(physical []byte){
		"body count beyond M": func(physical []byte) {
			physical[testLayout.DeltaSlotOff(1)] = byte(testLayout.Scheme.M + 1)
		},
		"body offset beyond the page": func(physical []byte) {
			slot := physical[testLayout.DeltaSlotOff(1):][:rs]
			slot[2], slot[3] = 0xF0, 0x00
		},
		"meta offset beyond the page": func(physical []byte) {
			slot := physical[testLayout.DeltaSlotOff(1):][:rs]
			m := 1 + 3*testLayout.Scheme.M
			slot[m+1], slot[m+2] = 0xF0, 0x00
		},
		"unused meta pair with a value": func(physical []byte) {
			slot := physical[testLayout.DeltaSlotOff(0):][:rs]
			slot[rs-3] = 0x00 // offset stays 0xFFFF
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			_, tupOff := physicalWith(t)
			physical, _ := physicalWith(t, good(tupOff), good(tupOff+1))
			corrupt(physical)
			before := append([]byte(nil), physical...)
			n, err := Reconstruct(physical, testLayout)
			if !errors.Is(err, core.ErrCorruptDelta) || n != 0 {
				t.Fatalf("Reconstruct = (%d, %v), want ErrCorruptDelta", n, err)
			}
			if !bytes.Equal(physical, before) {
				t.Error("a corrupt page was partly reconstructed")
			}
		})
	}
}

// A pair aimed into the delta area changes nothing that survives (the
// area is wiped) and must not be able to rewrite a later record after it
// was validated.
func TestReconstructPairAimedAtDeltaArea(t *testing.T) {
	physical, tupOff := physicalWith(t)
	// Record 0 rewrites the high offset byte of record 1's first body
	// pair, from "the tuple" to far beyond the page.
	target := testLayout.DeltaSlotOff(1) + 2
	r0 := core.DeltaRecord{Body: []core.Pair{{Off: uint16(target), Val: 0xF0}}}
	r1 := core.DeltaRecord{Body: []core.Pair{{Off: uint16(tupOff), Val: 9}}}
	off, data, err := EncodeRecords(testLayout, 0, []core.DeltaRecord{r0, r1})
	if err != nil {
		t.Fatal(err)
	}
	copy(physical[off:], data)
	n, err := Reconstruct(physical, testLayout)
	if err != nil || n != 2 {
		t.Fatalf("Reconstruct = (%d, %v)", n, err)
	}
	if physical[tupOff] != 9 {
		t.Errorf("tuple byte = %d, want record 1 applied as it was stored", physical[tupOff])
	}
}

// The fetch path applies delta-records on about a third of its misses;
// doing so allocates nothing.
func TestReconstructZeroAllocs(t *testing.T) {
	full := core.DeltaRecord{}
	for i := 0; i < testLayout.Scheme.M; i++ {
		full.Body = append(full.Body, core.Pair{Off: uint16(HeaderSize + i), Val: byte(i)})
	}
	for i := 0; i < testLayout.Scheme.V; i++ {
		full.Meta = append(full.Meta, core.Pair{Off: uint16(8 + i), Val: byte(i)})
	}
	recs := make([]core.DeltaRecord, testLayout.Scheme.N)
	for i := range recs {
		recs[i] = full
	}
	physical, _ := physicalWith(t, recs...)
	area := append([]byte(nil), physical[testLayout.DeltaAreaStart():]...)
	allocs := testing.AllocsPerRun(200, func() {
		copy(physical[testLayout.DeltaAreaStart():], area) // Reconstruct wipes it
		if n, err := Reconstruct(physical, testLayout); err != nil || n != len(recs) {
			t.Fatalf("Reconstruct = (%d, %v)", n, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Reconstruct: %.1f allocs/op, want 0", allocs)
	}
}

// wipeErased sets exactly the bytes it is given to the erased state, for
// lengths around and past the chunk it copies from.
func TestWipeErased(t *testing.T) {
	for _, n := range []int{0, 1, 7, len(erasedChunk) - 1, len(erasedChunk), len(erasedChunk) + 1, 3*len(erasedChunk) + 5} {
		buf := make([]byte, n+2)
		for i := range buf {
			buf[i] = byte(i)
		}
		wipeErased(buf[1 : n+1])
		if buf[0] != 0 || buf[n+1] != byte(n+1) {
			t.Errorf("n=%d: a byte outside the slice changed", n)
		}
		for i, c := range buf[1 : n+1] {
			if c != core.Erased {
				t.Fatalf("n=%d: byte %d is %#x, want %#x", n, i, c, core.Erased)
			}
		}
	}
}
