package core

import (
	"bytes"
	"fmt"
	"testing"
)

// Decode parses one encoded delta-record slot into its pairs. An erased
// slot decodes to an empty record and present=false. Decode and
// DeltaRecord.Apply are the pair-by-pair reference the fetch path's
// decoder, Scheme.ApplyArea, is checked against (applyAreaRef).
func (s Scheme) Decode(slot []byte) (d DeltaRecord, present bool, err error) {
	if len(slot) != s.RecordSize() {
		return DeltaRecord{}, false, fmt.Errorf("%w: slot %d bytes, want %d", ErrCorruptDelta, len(slot), s.RecordSize())
	}
	if !SlotPresent(slot) {
		return DeltaRecord{}, false, nil
	}
	n := int(slot[0])
	if n > s.M {
		return DeltaRecord{}, false, fmt.Errorf("%w: body count %d exceeds M=%d", ErrCorruptDelta, n, s.M)
	}
	d.Body = make([]Pair, 0, n)
	pos := 1
	for i := 0; i < n; i++ {
		d.Body = append(d.Body, Pair{
			Val: slot[pos],
			Off: uint16(slot[pos+1])<<8 | uint16(slot[pos+2]),
		})
		pos += 3
	}
	pos = 1 + 3*s.M
	for i := 0; i < s.V; i++ {
		off := uint16(slot[pos+1])<<8 | uint16(slot[pos+2])
		// An unused metadata pair is fully erased: the value byte is
		// part of the test, since 0xFFFF is the last byte of a 64 KiB page.
		if off == 0xFFFF && slot[pos] == Erased {
			pos += 3
			continue
		}
		d.Meta = append(d.Meta, Pair{Val: slot[pos], Off: off})
		pos += 3
	}
	return d, true, nil
}

// Apply replays the record onto a page image, replacing changed bytes.
// Offsets beyond the image are reported as corruption.
func (d DeltaRecord) Apply(page []byte) error {
	for _, p := range d.Body {
		if int(p.Off) >= len(page) {
			return fmt.Errorf("%w: body offset %d beyond page size %d", ErrCorruptDelta, p.Off, len(page))
		}
		page[p.Off] = p.Val
	}
	for _, p := range d.Meta {
		if int(p.Off) >= len(page) {
			return fmt.Errorf("%w: meta offset %d beyond page size %d", ErrCorruptDelta, p.Off, len(page))
		}
		page[p.Off] = p.Val
	}
	return nil
}

// applyAreaRef is ApplyArea by the reference: decode the slots in order
// up to the first erased one, then apply each record to a copy of page.
// It returns the copy, the number of records applied and the first
// error.
func applyAreaRef(s Scheme, page []byte, area int) (want []byte, n int, err error) {
	want = append([]byte(nil), page...)
	rs := s.RecordSize()
	var recs []DeltaRecord
	for i := 0; i < s.N; i++ {
		d, present, err := s.Decode(page[area+i*rs:][:rs])
		if err != nil {
			return want, 0, err
		}
		if !present {
			break
		}
		recs = append(recs, d)
	}
	for _, d := range recs {
		if err := d.Apply(want); err != nil {
			return want, n, err
		}
		n++
	}
	return want, n, nil
}

// checkApplyArea runs ApplyArea on a copy of page and holds it to
// applyAreaRef: it fails exactly when the reference does, then leaving
// the image untouched; otherwise it applies as many records, yields the
// same logical bytes below the area and leaves the slots as they were.
// It returns what ApplyArea returned.
func checkApplyArea(t *testing.T, s Scheme, page []byte, area int) (int, error) {
	t.Helper()
	want, wantN, wantErr := applyAreaRef(s, page, area)
	got := append([]byte(nil), page...)
	n, err := s.ApplyArea(got, area)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%v: ApplyArea error %v, reference %v", s, err, wantErr)
	}
	if err != nil {
		if n != 0 || !bytes.Equal(got, page) {
			t.Fatalf("%v: a failed ApplyArea (%v) reported %d records or changed the image", s, err, n)
		}
		return n, err
	}
	if n != wantN || !bytes.Equal(got[:area], want[:area]) || !bytes.Equal(got[area:], page[area:]) {
		t.Fatalf("%v: ApplyArea applied %d records, reference %d; logical bytes equal: %v, slots untouched: %v",
			s, n, wantN, bytes.Equal(got[:area], want[:area]), bytes.Equal(got[area:], page[area:]))
	}
	return n, nil
}

// FuzzDeltaRecordCodec encodes fuzzed records under a fuzzed valid
// [N×M] scheme into a page's delta area and holds ApplyArea to the
// reference (checkApplyArea). recs is read three bytes a pair: a
// header byte gives a record's body and metadata pair counts, each pair
// is a value and a little-endian offset reduced to at most 8 bytes past
// the page. raw, when it has more than one byte, then overwrites slot
// raw[0] mod N with raw[1:], so malformed slots — a body count beyond M,
// a half-erased pair — must be rejected by both decoders or by neither.
func FuzzDeltaRecordCodec(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(2), uint16(200), []byte{0x21, 7, 10, 0, 9, 3, 0, 5, 4, 0}, []byte(nil))
	f.Add(uint8(0), uint8(0), uint8(0), uint16(0), []byte(nil), []byte(nil))
	f.Add(uint8(3), uint8(7), uint8(12), uint16(900), []byte{0x03, 1, 0xFF, 0xFF, 2, 0x10, 0, 3, 0x20, 0, 0xF0, 4, 5, 0}, []byte(nil))
	f.Add(uint8(1), uint8(1), uint8(0), uint16(64), []byte{0x01, 1, 2, 0}, []byte{0, 9, 1, 2, 3})
	f.Add(uint8(1), uint8(2), uint8(1), uint16(300), []byte{0x11, 1, 2, 0, 5, 0xFF, 0xFF}, []byte{1, 0, 0xFF, 0xFF, 0xFF, 1, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, n, m, v uint8, size uint16, recs, raw []byte) {
		s := Scheme{N: 1 + int(n%8), M: 1 + int(m%MaxM), V: int(v % (MaxM + 1))}
		if err := s.Validate(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		pageSize := s.AreaSize() + 16 + int(size%4096)
		page := make([]byte, pageSize)
		for i := range page {
			page[i] = byte(i*31 + int(size))
		}
		area := pageSize - s.AreaSize()
		for i := area; i < pageSize; i++ {
			page[i] = Erased
		}
		rs := s.RecordSize()
		pair := func() (Pair, bool) {
			if len(recs) < 3 {
				return Pair{}, false
			}
			off := (int(recs[1]) | int(recs[2])<<8) % (pageSize + 8)
			p := Pair{Off: uint16(off), Val: recs[0]}
			recs = recs[3:]
			return p, true
		}
		for i := 0; i < s.N && len(recs) > 0; i++ {
			h := recs[0]
			recs = recs[1:]
			var d DeltaRecord
			for j := int(h&0x0F) % (s.M + 1); j > 0; j-- {
				if p, ok := pair(); ok {
					d.Body = append(d.Body, p)
				}
			}
			for j := int(h>>4) % (s.V + 1); j > 0; j-- {
				if p, ok := pair(); ok {
					d.Meta = append(d.Meta, p)
				}
			}
			if err := s.Encode(d, page[area+i*rs:][:rs]); err != nil {
				t.Fatalf("%v: Encode %+v: %v", s, d, err)
			}
		}
		if len(raw) > 1 {
			copy(page[area+int(raw[0])%s.N*rs:][:rs], raw[1:])
		}
		checkApplyArea(t, s, page, area)
	})
}
