package wal

import (
	"testing"

	"ipa/internal/core"
)

// FuzzWALRecordRoundTrip appends an arbitrary record between two
// neighbours and reads all three back through Get, Scan and ReadFrom,
// from the hot segment and again once it is packed: whatever the fixed
// fields and however long the images, a record comes back
// byte-identical, leaves its neighbours alone, and is charged exactly
// Size() in the space accounting. The three end the segment (the log is
// reset just before), so the packed form also holds records below the
// log's first. The seed corpus is the table
// of TestRecordsRoundTripByteExact, so the arena chunk edges and every
// record kind run as ordinary tests.
func FuzzWALRecordRoundTrip(f *testing.F) {
	for _, r := range roundTripRecords() {
		if r.ActiveTxs != nil || r.DirtyPages != nil {
			continue // checkpoint tables are handed through as Go maps, not decoded
		}
		f.Add(uint8(r.Type), uint8(r.Op), r.Slot, r.Off, r.TxID, uint64(r.PrevLSN),
			uint64(r.Page), uint64(r.UndoNext), r.Before, r.After, r.Meta)
	}
	f.Fuzz(func(t *testing.T, typ, op uint8, slot, off uint16, txID, prev, page, undoNext uint64,
		before, after, meta []byte) {
		rec := Record{
			Type: RecType(typ), Op: PageOp(op), Slot: slot, Off: off, TxID: txID,
			PrevLSN: core.LSN(prev), Page: core.PageID(page), UndoNext: core.LSN(undoNext),
			Before: before, After: after, Meta: meta,
		}
		guard := Record{Type: RecUpdate, Op: OpPatch, Off: 3, Before: pattern(1, 8), After: pattern(2, 8)}
		want := []Record{guard, rec, guard}
		l := NewLog(0)
		l.Reset(segRecords - core.LSN(len(want)))
		var size uint64
		for i := range want {
			want[i].LSN = l.Append(want[i])
			size += uint64(want[i].Size())
		}
		verify := func(form string) {
			if l.UsedBytes() != size || l.AppendedBytes() != size {
				t.Fatalf("%s: UsedBytes %d, AppendedBytes %d, want %d", form, l.UsedBytes(), l.AppendedBytes(), size)
			}
			for _, w := range want {
				got, err := l.Get(w.LSN)
				if err != nil {
					t.Fatalf("%s: Get(%d): %v", form, w.LSN, err)
				}
				if err := sameRecord(got, w); err != nil {
					t.Fatalf("%s: Get: %v", form, err)
				}
			}
			i := 0
			l.Scan(1, func(got Record) bool {
				if err := sameRecord(got, want[i]); err != nil {
					t.Fatalf("%s: Scan: %v", form, err)
				}
				i++
				return true
			})
			if i != len(want) {
				t.Fatalf("%s: Scan visited %d records, want %d", form, i, len(want))
			}
			i = 0
			n, err := l.ReadFrom(want[0].LSN, 0, 0, func(got Record) {
				if err := sameRecord(got, want[i]); err != nil {
					t.Fatalf("%s: ReadFrom: %v", form, err)
				}
				i++
			})
			if err != nil || n != len(want) {
				t.Fatalf("%s: ReadFrom visited %d records (%v), want %d", form, n, err, len(want))
			}
		}
		verify("hot")
		seal(l)
		if packedSegments(l) != 1 {
			t.Fatal("seal did not pack the segment")
		}
		verify("packed")
		l.Flush(l.Head())
		l.Truncate(want[1].LSN)
		size -= uint64(want[0].Size())
		if l.UsedBytes() != size {
			t.Fatalf("packed: UsedBytes %d after truncating the first record, want %d", l.UsedBytes(), size)
		}
	})
}
