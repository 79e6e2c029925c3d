package wal

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"ipa/internal/core"
)

func TestAppendAssignsSequentialLSNs(t *testing.T) {
	l := NewLog(0)
	for i := 1; i <= 5; i++ {
		lsn := l.Append(Record{Type: RecUpdate, TxID: 1})
		if lsn != core.LSN(i) {
			t.Errorf("append %d: lsn = %d", i, lsn)
		}
	}
	if l.Head() != 5 || l.Tail() != 1 {
		t.Errorf("head/tail = %d/%d", l.Head(), l.Tail())
	}
}

func TestGetAndScan(t *testing.T) {
	l := NewLog(0)
	l.Append(Record{Type: RecBegin, TxID: 1})
	l.Append(Record{Type: RecUpdate, TxID: 1, Page: 9, After: []byte{1}})
	l.Append(Record{Type: RecCommit, TxID: 1})
	r, err := l.Get(2)
	if err != nil || r.Type != RecUpdate || r.Page != 9 {
		t.Fatalf("Get(2) = %+v, %v", r, err)
	}
	if _, err := l.Get(99); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(99): %v", err)
	}
	var seen []core.LSN
	l.Scan(2, func(r Record) bool {
		seen = append(seen, r.LSN)
		return true
	})
	if len(seen) != 2 || seen[0] != 2 || seen[1] != 3 {
		t.Errorf("scan = %v", seen)
	}
	// Early stop.
	n := 0
	l.Scan(1, func(Record) bool { n++; return false })
	if n != 1 {
		t.Errorf("scan with stop visited %d", n)
	}
}

func TestFlushHorizon(t *testing.T) {
	l := NewLog(0)
	l.Append(Record{Type: RecUpdate})
	l.Append(Record{Type: RecUpdate})
	l.Flush(1)
	if l.Flushed() != 1 {
		t.Errorf("Flushed = %d", l.Flushed())
	}
	l.Flush(100) // clamped to head
	if l.Flushed() != 2 {
		t.Errorf("Flushed = %d", l.Flushed())
	}
	l.Flush(1) // never regresses
	if l.Flushed() != 2 {
		t.Errorf("Flushed regressed to %d", l.Flushed())
	}
}

func TestSpaceAccountingAndTruncate(t *testing.T) {
	l := NewLog(1000)
	r := Record{Type: RecUpdate, Before: make([]byte, 10), After: make([]byte, 10)}
	sz := uint64(r.Size())
	for i := 0; i < 4; i++ {
		l.Append(r)
	}
	if l.UsedBytes() != 4*sz {
		t.Errorf("UsedBytes = %d, want %d", l.UsedBytes(), 4*sz)
	}
	wantUsage := float64(4*sz) / 1000
	if l.Usage() != wantUsage {
		t.Errorf("Usage = %v, want %v", l.Usage(), wantUsage)
	}
	l.Truncate(3) // keep LSNs ≥ 3
	if l.UsedBytes() != 2*sz {
		t.Errorf("after truncate UsedBytes = %d, want %d", l.UsedBytes(), 2*sz)
	}
	if l.Tail() != 3 {
		t.Errorf("Tail = %d", l.Tail())
	}
	if _, err := l.Get(2); !errors.Is(err, ErrTruncated) {
		t.Errorf("Get truncated: %v", err)
	}
	if r3, err := l.Get(3); err != nil || r3.LSN != 3 {
		t.Errorf("Get(3) after truncate = %+v, %v", r3, err)
	}
	// Truncating backwards or past head is safe.
	l.Truncate(1)
	if l.Tail() != 3 {
		t.Error("backward truncate moved tail")
	}
	l.Truncate(100)
	if l.UsedBytes() != 0 {
		t.Errorf("full truncate left %d bytes", l.UsedBytes())
	}
}

func TestUnboundedLogUsageZero(t *testing.T) {
	l := NewLog(0)
	l.Append(Record{Type: RecUpdate, After: make([]byte, 100)})
	if l.Usage() != 0 {
		t.Errorf("unbounded Usage = %v", l.Usage())
	}
}

func TestRecordSize(t *testing.T) {
	r := Record{Type: RecUpdate, Before: make([]byte, 3), After: make([]byte, 5)}
	if r.Size() != 48+8 {
		t.Errorf("Size = %d", r.Size())
	}
	// Checkpoint: header + two 8-byte table counts + 24 B per entry
	// (16 B key/value payload + 8 B slot directory).
	ck := Record{Type: RecCheckpoint,
		ActiveTxs:  map[uint64]core.LSN{1: 1, 2: 2},
		DirtyPages: map[core.PageID]core.LSN{3: 3},
	}
	if ck.Size() != 48+16+24*3 {
		t.Errorf("checkpoint Size = %d", ck.Size())
	}
}

func TestRecTypeString(t *testing.T) {
	for rt, want := range map[RecType]string{
		RecBegin: "BEGIN", RecUpdate: "UPDATE", RecCommit: "COMMIT",
		RecAbort: "ABORT", RecEnd: "END", RecCLR: "CLR", RecCheckpoint: "CHECKPOINT",
	} {
		if rt.String() != want {
			t.Errorf("%d.String() = %q", rt, rt.String())
		}
	}
}

// Property: for any interleaving of appends and truncates, Get returns
// exactly the records with Tail ≤ LSN ≤ Head, and UsedBytes equals the
// sum of retained record sizes.
func TestPropertySpaceInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		l := NewLog(1 << 20)
		var retained []Record
		for _, op := range ops {
			if op%4 == 0 && len(retained) > 0 {
				cut := core.LSN(int(l.Tail()) + int(op)%len(retained))
				l.Truncate(cut)
				for len(retained) > 0 && retained[0].LSN < cut {
					retained = retained[1:]
				}
			} else {
				r := Record{Type: RecUpdate, After: make([]byte, int(op))}
				lsn := l.Append(r)
				r.LSN = lsn
				retained = append(retained, r)
			}
		}
		var want uint64
		for _, r := range retained {
			want += uint64(r.Size())
			got, err := l.Get(r.LSN)
			if err != nil || got.LSN != r.LSN || len(got.After) != len(r.After) {
				return false
			}
		}
		return l.UsedBytes() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// cutTestRecord is the i-th record of TestCutDropsTheUndurableTail's
// history: updates with images of varying size, allocations with a Meta
// payload and checkpoints with their tables, so every part of a slot and
// its segment takes part.
func cutTestRecord(i int) Record {
	switch {
	case i%97 == 0:
		return Record{Type: RecAlloc, Meta: []byte{byte(i), byte(i >> 8), 7}}
	case i%200 == 0:
		return Record{Type: RecCheckpoint, ActiveTxs: map[uint64]core.LSN{uint64(i): core.LSN(i)}}
	default:
		img := make([]byte, i%40)
		for k := range img {
			img[k] = byte(i + k)
		}
		return Record{Type: RecUpdate, TxID: uint64(i % 7), PrevLSN: core.LSN(i / 2),
			Page: core.PageID(i), Slot: uint16(i), Before: img, After: img[:len(img)/2]}
	}
}

// TestCutDropsTheUndurableTail cuts a log of three segments at horizons
// before, inside and at the edge of a segment, and at the head: what the
// durable log holds stays byte-equal, the next append gets Flushed()+1,
// Get past the cut finds nothing, the space counters equal those of a
// log that only ever received the kept records, and the retain floor
// stays.
func TestCutDropsTheUndurableTail(t *testing.T) {
	const n = 3*segRecords - 100
	for _, flushed := range []core.LSN{0, 100, segRecords, segRecords + 188, n} {
		l, ref := NewLog(0), NewLog(0)
		for i := 1; i <= n; i++ {
			l.Append(cutTestRecord(i))
			if core.LSN(i) <= flushed {
				ref.Append(cutTestRecord(i))
			}
		}
		l.Flush(flushed)
		ref.Flush(flushed)
		if flushed > 0 {
			l.Truncate(min(50, flushed))
			ref.Truncate(min(50, flushed))
		}
		var before []Record
		l.Scan(l.Tail(), func(r Record) bool {
			if r.LSN <= flushed {
				before = append(before, r)
			}
			return true
		})

		l.SetRetainFloor(7)
		l.Cut()
		if floor := l.retainFloor.Load(); floor != 7 {
			t.Errorf("cut at %d: retain floor %d, want it kept at 7", flushed, floor)
		}
		if l.Head() != flushed || l.Flushed() != flushed || l.Tail() != ref.Tail() {
			t.Fatalf("cut at %d: head %d, flushed %d, tail %d (want tail %d)",
				flushed, l.Head(), l.Flushed(), l.Tail(), ref.Tail())
		}
		var after []Record
		l.Scan(l.Tail(), func(r Record) bool {
			after = append(after, r)
			return true
		})
		if !reflect.DeepEqual(after, before) {
			t.Fatalf("cut at %d: the kept %d records differ from the %d before the cut", flushed, len(after), len(before))
		}
		for _, lsn := range []core.LSN{flushed + 1, n} {
			if _, err := l.Get(lsn); lsn > flushed && !errors.Is(err, ErrNotFound) {
				t.Errorf("cut at %d: Get(%d) = %v, want ErrNotFound", flushed, lsn, err)
			}
		}
		if l.AppendedBytes() != ref.AppendedBytes() || l.UsedBytes() != ref.UsedBytes() {
			t.Errorf("cut at %d: appended/used bytes %d/%d, want %d/%d", flushed,
				l.AppendedBytes(), l.UsedBytes(), ref.AppendedBytes(), ref.UsedBytes())
		}
		next := cutTestRecord(n + 1)
		if lsn := l.Append(next); lsn != flushed+1 {
			t.Errorf("cut at %d: next append got LSN %d", flushed, lsn)
		}
		ref.Append(next)
		if got, err := l.Get(flushed + 1); err != nil || got.Page != next.Page {
			t.Errorf("cut at %d: the append after the cut reads back %+v, %v", flushed, got, err)
		}
		if l.AppendedBytes() != ref.AppendedBytes() || l.UsedBytes() != ref.UsedBytes() {
			t.Errorf("cut at %d: after one more append, appended/used bytes %d/%d, want %d/%d", flushed,
				l.AppendedBytes(), l.UsedBytes(), ref.AppendedBytes(), ref.UsedBytes())
		}
	}
}

// An appender stalled mid-copy holds the horizon back; once it publishes,
// the next growth packs every segment the horizon jumped past and keeps
// their slot arrays spare. Moving the log back into one of those
// segments, by a cut or by a reset, must not hand the segment its own
// array back, whose stale publication words would read as published.
func TestMovingBackAfterAPackingBurst(t *testing.T) {
	for _, back := range []struct {
		name string
		to   func(l *Log, lsn core.LSN)
	}{
		{"cut", func(l *Log, lsn core.LSN) { l.Flush(lsn); l.Cut() }},
		{"reset", func(l *Log, lsn core.LSN) { l.Reset(lsn) }},
	} {
		l := NewLog(0)
		hole := core.LSN(l.next.Add(1) - 1)
		holeSeg, _ := l.segment(hole)
		for i := 1; i < 4*segRecords; i++ { // four full segments
			l.Append(Record{Type: RecUpdate, TxID: 1, Page: core.PageID(i)})
		}
		if l.Head() != 0 {
			t.Fatalf("head %d with LSN %d unpublished", l.Head(), hole)
		}
		holeSeg.slots.Load()[0].pub.Store(uint64(hole))
		l.advancePublished()
		l.Append(Record{Type: RecCommit, TxID: 1}) // grows the ring, packing three segments
		if packed := packedSegments(l); packed != 3 {
			t.Fatalf("%d segments packed after the burst, want 3", packed)
		}
		at := core.LSN(segRecords + 10)
		back.to(l, at)
		if l.Head() != at {
			t.Fatalf("%s to %d: head %d", back.name, at, l.Head())
		}
		if lsn := l.Append(Record{Type: RecBegin, TxID: 2}); lsn != at+1 || l.Head() != at+1 {
			t.Fatalf("%s to %d: the next append got LSN %d, head %d; want both %d", back.name, at, lsn, l.Head(), at+1)
		}
	}
}
