package noftl

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ipa/internal/core"
)

// FuzzPDLRecord checks the codec of the differential records a DiffLog
// programs into its log blocks and crash recovery parses back from them.
// On any bytes, parseRecord and applyRecord do not panic, and a record
// parseRecord rejects applyRecord rejects too. On a record parseRecord
// accepts, applyRecord onto a page-sized buffer either fails or consumes
// exactly the size parseRecord reports: its applied bytes and the headers
// add up to that size, and the bytes past it change nothing. And
// encodeRecord of the changeset spelled by diff (see changesetOf)
// round-trips the page id, LSN and size, and applies to exactly that
// changeset.
func FuzzPDLRecord(f *testing.F) {
	// Seeds: the records the TestPDL* tests append, read back from the log
	// page they land on, with the changesets they encode; one more seed
	// reads on from the first record to the page's end.
	_, dl := newPDLRegion(f, 12, PDLConfig{})
	appends := []struct {
		id  core.PageID
		lsn core.LSN
		cs  *core.ChangeSet
	}{
		{7, 100, csOf(core.Pair{Off: 20, Val: 0xAA}, core.Pair{Off: 21, Val: 0xBB})},
		{7, 101, csOf(core.Pair{Off: 21, Val: 0xCC}, core.Pair{Off: 40, Val: 0x01})},
		{3, 10, csOf(core.Pair{Off: 30, Val: 0x00})},
		{4, 40, csOf(core.Pair{Off: 50, Val: 0x04})},
		{1, 11, csOf(core.Pair{Off: 30, Val: 0x01})},
		{1, 12, csOf(core.Pair{Off: 31, Val: 0x02})},
		{2, 13, csOf(core.Pair{Off: 32, Val: 0x03})},
	}
	logPage := make([]byte, dl.r.PageSize())
	for _, a := range appends {
		if err := dl.Append(nil, a.id, a.lsn, a.cs); err != nil {
			f.Fatal(err)
		}
		refs := dl.refs[a.id]
		ref := refs[len(refs)-1]
		if _, err := dl.r.dev.arr.ReadInto(nil, ref.ppn, logPage, nil); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(logPage[ref.off:ref.off+ref.size]), uint64(a.id), uint64(a.lsn), diffOf(a.cs))
	}
	f.Add(bytes.Clone(logPage[pdlHeaderSize:]), uint64(0), uint64(0), []byte(nil))
	f.Add([]byte{pdlRecMarker}, uint64(core.MaxPageID), ^uint64(0), []byte{0xFF, 1, 0, 2})

	const pageSize = 512
	f.Fuzz(func(t *testing.T, rec []byte, id, lsn uint64, diff []byte) {
		_, _, size, perr := parseRecord(rec)
		page := make([]byte, pageSize)
		applied, aerr := applyRecord(rec, page)
		switch {
		case perr != nil:
			if aerr == nil {
				t.Fatalf("parseRecord rejects the record (%v), applyRecord applies %d bytes", perr, applied)
			}
		case size < pdlRecHeader || size > len(rec):
			t.Fatalf("parseRecord reports size %d of %d bytes", size, len(rec))
		case aerr == nil:
			nruns := int(binary.BigEndian.Uint16(rec[17:]))
			if consumed := pdlRecHeader + nruns*pdlRunHeader + applied; consumed != size {
				t.Fatalf("applyRecord consumed %d bytes, parseRecord reports %d", consumed, size)
			}
			own := make([]byte, pageSize)
			if n, err := applyRecord(rec[:size], own); err != nil || n != applied || !bytes.Equal(own, page) {
				t.Fatalf("the record's own %d bytes apply differently (%d, %v) from all %d", size, n, err, len(rec))
			}
		}

		cs := changesetOf(diff, pageSize)
		enc := (&DiffLog{}).encodeRecord(core.PageID(id), core.LSN(lsn), cs)
		gotID, gotLSN, gotSize, err := parseRecord(enc)
		if err != nil || gotID != core.PageID(id) || gotLSN != core.LSN(lsn) || gotSize != len(enc) {
			t.Fatalf("round trip of page %d LSN %d (%d bytes) = page %d LSN %d, %d bytes, %v",
				id, lsn, len(enc), gotID, gotLSN, gotSize, err)
		}
		want, got := make([]byte, pageSize), make([]byte, pageSize)
		for _, p := range append(cs.Body, cs.Meta...) {
			want[p.Off] = p.Val
		}
		if n, err := applyRecord(enc, got); err != nil || n != len(cs.Body)+len(cs.Meta) || !bytes.Equal(got, want) {
			t.Fatalf("the encoded changeset of %d pairs applies %d bytes (%v), or other ones",
				len(cs.Body)+len(cs.Meta), n, err)
		}
	})
}

// changesetOf spells a changeset in fuzz bytes: each (gap, value) pair
// changes the byte gap+1 past the previous change (the first at gap),
// offsets stop at the page size, and every second change is metadata —
// both lists ascend and never overlap, as core.DiffInto leaves them.
func changesetOf(diff []byte, pageSize int) *core.ChangeSet {
	cs := &core.ChangeSet{}
	off := -1
	for i := 0; i+1 < len(diff); i += 2 {
		if off += 1 + int(diff[i]); off >= pageSize {
			break
		}
		p := core.Pair{Off: uint16(off), Val: diff[i+1]}
		if i/2%2 == 1 {
			cs.Meta = append(cs.Meta, p)
		} else {
			cs.Body = append(cs.Body, p)
		}
	}
	return cs
}

// diffOf is changesetOf's inverse for a body-only changeset with gaps
// under 256 bytes.
func diffOf(cs *core.ChangeSet) []byte {
	var diff []byte
	off := -1
	for _, p := range cs.Body {
		diff = append(diff, byte(int(p.Off)-off-1), p.Val)
		off = int(p.Off)
	}
	return diff
}
