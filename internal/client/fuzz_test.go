package client

import (
	"bytes"
	"testing"

	"ipa/internal/wire"
)

// encodePage lays out a scan page as the server does: the rows, each
// holding its own page number as data, then the more flag and, if the
// table goes on, the RID to resume after.
func encodePage(more bool, next wire.RID, rows ...wire.RID) []byte {
	b := wire.NewBuilder(64).Uint32(uint32(len(rows)))
	for _, rid := range rows {
		b.RID(rid).Blob([]byte{byte(rid.Page)})
	}
	if !more {
		return b.Byte(0).Bytes()
	}
	return b.Byte(1).RID(next).Bytes()
}

// FuzzScanPage: an arbitrary SCAN or SNAPSCAN reply page goes through
// the client's page decoder, as the reply to a request that resumed
// after a fuzzed RID and wanted a fuzzed number of rows. The decoder
// must not panic, and a page it accepts must be well formed: encoded
// again from the rows decoded it gives back the page byte for byte, its
// rows ascend strictly from after, it holds no more rows than wanted,
// and a page that goes on resumes past after and past its last row — so
// a scan that follows pages cannot repeat a row or loop. And each row's
// capacity ends with its bytes, so an append to one row cannot write
// into the rows after it.
func FuzzScanPage(f *testing.F) {
	r := func(page uint64, slot uint16) wire.RID { return wire.RID{Page: page, Slot: slot} }
	valid := encodePage(true, r(3, 1), r(2, 0), r(2, 5), r(3, 1))
	f.Add(valid, uint64(0), uint16(0), uint32(0))                                           // a page that goes on
	f.Add(encodePage(false, wire.RID{}, r(2, 0), r(2, 5)), uint64(1), uint16(9), uint32(2)) // the last page
	f.Add(encodePage(false, wire.RID{}), uint64(0), uint16(0), uint32(0))                   // an empty table
	f.Add(valid[:len(valid)-3], uint64(0), uint16(0), uint32(0))                            // truncated
	f.Add(append(bytes.Clone(valid), 0), uint64(0), uint16(0), uint32(0))                   // a byte past the layout
	f.Add(valid, uint64(0), uint16(0), uint32(2))                                           // more rows than wanted
	f.Add(valid, uint64(2), uint16(0), uint32(0))                                           // a row not after after
	f.Add(encodePage(true, r(2, 0), r(2, 5)), uint64(0), uint16(0), uint32(0))              // resumes behind its last row
	f.Add(encodePage(true, r(4, 0)), uint64(4), uint16(0), uint32(0))                       // no row and no progress
	f.Add(encodePage(false, wire.RID{}, r(2, 5), r(2, 5)), uint64(0), uint16(0), uint32(0)) // a row twice
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0}, uint64(0), uint16(0), uint32(0))               // a count no page can hold
	bad := encodePage(false, wire.RID{})
	bad[len(bad)-1] = 2
	f.Add(bad, uint64(0), uint16(0), uint32(0)) // an unknown more flag

	f.Fuzz(func(t *testing.T, p []byte, afterPage uint64, afterSlot uint16, want uint32) {
		after := r(afterPage, afterSlot)
		count, next, more, err := checkPage(p, after, want)
		if err != nil {
			return
		}
		kept := ScanEntry{RID: r(1, 1), Data: []byte("kept")}
		got := appendRows([]ScanEntry{kept}, p)
		if got[0].RID != kept.RID || !bytes.Equal(got[0].Data, kept.Data) || uint32(len(got)-1) != count {
			t.Fatalf("a page of %d rows appended %v", count, got)
		}
		rows := got[1:]
		b := wire.NewBuilder(len(p)).Uint32(uint32(len(rows)))
		for _, e := range rows {
			if cap(e.Data) != len(e.Data) {
				t.Fatalf("row %v holds %d bytes with capacity %d: an append to it would write over the page", e.RID, len(e.Data), cap(e.Data))
			}
			b.RID(e.RID).Blob(e.Data)
		}
		if more {
			b.Byte(1).RID(next)
		} else {
			b.Byte(0)
		}
		if !bytes.Equal(b.Bytes(), p) {
			t.Fatalf("accepted page %x encodes back as %x", p, b.Bytes())
		}
		if want > 0 && uint32(len(rows)) > want {
			t.Fatalf("accepted %d rows where %d were wanted", len(rows), want)
		}
		last := after
		for _, e := range rows {
			if !ridLess(last, e.RID) {
				t.Fatalf("accepted row %v after %v", e.RID, last)
			}
			last = e.RID
		}
		if more && (!ridLess(after, next) || ridLess(next, last)) {
			t.Fatalf("accepted resume RID %v after %v with last row %v", next, after, last)
		}
	})
}
