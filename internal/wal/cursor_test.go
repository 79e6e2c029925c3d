package wal

import (
	"bytes"
	"errors"
	"testing"

	"ipa/internal/core"
)

// fillSegments appends n small records and returns the log.
func fillSegments(n int) *Log {
	l := NewLog(0)
	for i := 0; i < n; i++ {
		l.Append(Record{Type: RecUpdate, TxID: 1, Page: core.PageID(i + 1), After: []byte{byte(i)}})
	}
	return l
}

// readBatch collects one ReadFrom batch.
func readBatch(l *Log, from core.LSN, maxRecords, maxBytes int) ([]Record, error) {
	var recs []Record
	_, err := l.ReadFrom(from, maxRecords, maxBytes, func(r Record) { recs = append(recs, r) })
	return recs, err
}

func TestReadFromReturnsContiguousBatch(t *testing.T) {
	l := fillSegments(10)
	recs, err := readBatch(l, 3, 4, 0)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("batch = %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.LSN != core.LSN(3+i) {
			t.Errorf("recs[%d].LSN = %d, want %d", i, r.LSN, 3+i)
		}
	}
	// Caught up: empty batch, nil error.
	recs, err = readBatch(l, 11, 0, 0)
	if err != nil || len(recs) != 0 {
		t.Errorf("caught-up cursor = %d records, %v", len(recs), err)
	}
}

func TestReadFromByteBound(t *testing.T) {
	l := fillSegments(10)
	one, err := readBatch(l, 1, 1, 0)
	if err != nil || len(one) != 1 {
		t.Fatalf("ReadFrom(1,1,0) = %d, %v", len(one), err)
	}
	// A byte budget that fits exactly two records.
	recs, err := readBatch(l, 1, 0, 2*one[0].Size())
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if len(recs) != 2 {
		t.Errorf("byte-bounded batch = %d records, want 2", len(recs))
	}
	// A budget below one record still makes progress: one record minimum.
	recs, err = readBatch(l, 1, 0, 1)
	if err != nil || len(recs) != 1 {
		t.Errorf("tiny budget batch = %d records, %v", len(recs), err)
	}
}

// TestReadFromBehindTail is the satellite-2 regression: a cursor resumed
// below the tail after a Truncate must fail with ErrTruncated ("horizon
// behind tail"), never return a zero record — unlike Scan, which skips
// ahead by design.
func TestReadFromBehindTail(t *testing.T) {
	l := fillSegments(100)
	l.Truncate(50)
	if _, err := readBatch(l, 10, 0, 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadFrom(10) after Truncate(50): err = %v, want ErrTruncated", err)
	}
	// At the new tail the cursor works again.
	recs, err := readBatch(l, 50, 3, 0)
	if err != nil || len(recs) != 3 || recs[0].LSN != 50 {
		t.Fatalf("ReadFrom(50) = %d recs (first %v), %v", len(recs), recs, err)
	}
}

// TestReadFromRetiredSegmentEdge resumes the cursor exactly at a
// retired-segment boundary: Truncate drops whole ring segments, and a
// cursor positioned at the first LSN of a dropped segment (or one past
// its last) must see a clean error, not a zero record read through a
// recycled slot.
func TestReadFromRetiredSegmentEdge(t *testing.T) {
	l := fillSegments(3 * segRecords)
	// Retire exactly the first two segments; the tail is now the first
	// LSN of segment 2 (absolute numbering from 0).
	edge := core.LSN(2*segRecords + 1)
	l.Truncate(edge)
	if got := l.Tail(); got != edge {
		t.Fatalf("Tail = %d, want %d", got, edge)
	}
	cases := []core.LSN{
		1,                              // first LSN of the first retired segment
		segRecords,                     // last LSN of the first retired segment
		segRecords + 1,                 // first LSN of the second retired segment
		core.LSN(2 * segRecords),       // last retired LSN (exact edge - 1)
		core.LSN(2*segRecords + 1 - 1), // same edge spelled via the boundary
	}
	for _, from := range cases {
		recs, err := readBatch(l, from, 1, 0)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("ReadFrom(%d): recs=%v err=%v, want ErrTruncated", from, recs, err)
		}
	}
	// Exactly at the surviving edge: a real record, the right one.
	recs, err := readBatch(l, edge, 1, 0)
	if err != nil || len(recs) != 1 || recs[0].LSN != edge || recs[0].Type != RecUpdate {
		t.Fatalf("ReadFrom(%d) = %+v, %v; want the surviving record", edge, recs, err)
	}
}

// TestScanSkipsWhereReadFromFails pins the behavioural difference the
// shipping cursor depends on: Scan silently resumes at the new tail
// (recovery semantics), ReadFrom refuses (replication semantics).
func TestScanSkipsWhereReadFromFails(t *testing.T) {
	l := fillSegments(2 * segRecords)
	l.Truncate(core.LSN(segRecords + 1))
	var first core.LSN
	l.Scan(1, func(r Record) bool { first = r.LSN; return false })
	if first != core.LSN(segRecords+1) {
		t.Errorf("Scan resumed at %d, want %d", first, segRecords+1)
	}
	if _, err := readBatch(l, 1, 0, 0); !errors.Is(err, ErrTruncated) {
		t.Errorf("ReadFrom(1): %v, want ErrTruncated", err)
	}
}

func TestRetainFloorClampsTruncate(t *testing.T) {
	l := fillSegments(100)
	l.SetRetainFloor(40)
	l.Truncate(80)
	if got := l.Tail(); got != 40 {
		t.Fatalf("Tail = %d with retain floor 40, want 40", got)
	}
	// The floor keeps the shipping cursor alive.
	if _, err := readBatch(l, 40, 1, 0); err != nil {
		t.Fatalf("ReadFrom(40): %v", err)
	}
	// Clearing the floor releases the clamp.
	l.SetRetainFloor(0)
	l.Truncate(80)
	if got := l.Tail(); got != 80 {
		t.Fatalf("Tail = %d after clearing floor, want 80", got)
	}
}

func TestResetSplicesLogAtHead(t *testing.T) {
	l := fillSegments(10)
	l.Reset(700) // mid-segment on purpose
	if l.Head() != 700 || l.Tail() != 701 || l.Flushed() != 700 {
		t.Fatalf("after Reset(700): head=%d tail=%d flushed=%d", l.Head(), l.Tail(), l.Flushed())
	}
	if l.AppendedBytes() != 0 {
		t.Errorf("AppendedBytes = %d after Reset", l.AppendedBytes())
	}
	lsn := l.Append(Record{Type: RecBegin, TxID: 7})
	if lsn != 701 {
		t.Fatalf("first append after Reset(700) got LSN %d, want 701", lsn)
	}
	if _, err := l.Get(700); !errors.Is(err, ErrTruncated) {
		t.Errorf("Get(700) after Reset: %v, want ErrTruncated", err)
	}
	recs, err := readBatch(l, 701, 0, 0)
	if err != nil || len(recs) != 1 || recs[0].LSN != 701 {
		t.Fatalf("ReadFrom(701) = %v, %v", recs, err)
	}
}

func TestMetaRoundTripsThroughSideTable(t *testing.T) {
	l := NewLog(0)
	meta := []byte("table:tpcb_account@data#3")
	lsn := l.Append(Record{Type: RecTable, Meta: meta})
	r, err := l.Get(lsn)
	if err != nil || !bytes.Equal(r.Meta, meta) {
		t.Fatalf("Get = %+v, %v", r, err)
	}
	// The log owns its copy: mutating the caller's buffer is invisible.
	meta[0] = 'X'
	r, _ = l.Get(lsn)
	if r.Meta[0] != 't' {
		t.Errorf("Meta aliased the caller's buffer")
	}
	if r.Size() != 48+len(meta) {
		t.Errorf("Size = %d, want %d", r.Size(), 48+len(meta))
	}
}
