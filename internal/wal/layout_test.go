package wal

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"ipa/internal/core"
)

// A hot slot is the unit the log retains per record until its segment
// is packed: it must stay at its documented size and free of pointers
// (the slot arrays are not scanned by the garbage collector), and the
// header constants Stats charges must be the allocation sizes of the
// structs.
func TestSlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != slotBytes || got > 64 {
		t.Fatalf("slot is %d bytes, want %d (and at most 64)", got, slotBytes)
	}
	var pointerFree func(name string, st reflect.Type)
	pointerFree = func(name string, st reflect.Type) {
		for i := 0; i < st.NumField(); i++ {
			switch f := st.Field(i); f.Type.Kind() {
			case reflect.Ptr, reflect.Slice, reflect.Map, reflect.String, reflect.Interface,
				reflect.Chan, reflect.Func, reflect.UnsafePointer:
				t.Errorf("%s.%s holds a pointer (%v)", name, f.Name, f.Type.Kind())
			case reflect.Struct:
				pointerFree(name+"."+f.Name, f.Type)
			}
		}
	}
	pointerFree("slot", reflect.TypeOf(slot{}))
	// A byte slice of n bytes is allocated in n's size class, as a
	// struct of n bytes is.
	sizeClass := func(n uintptr) uintptr { return uintptr(cap(append([]byte(nil), make([]byte, n)...))) }
	if got := sizeClass(unsafe.Sizeof(segment{})); got != segmentHeaderBytes {
		t.Errorf("segmentHeaderBytes = %d, a segment is allocated in %d", segmentHeaderBytes, got)
	}
	if got := sizeClass(unsafe.Sizeof(packedSeg{})); got != packedHeaderBytes {
		t.Errorf("packedHeaderBytes = %d, a packed form is allocated in %d", packedHeaderBytes, got)
	}
}

// seal packs every segment whose records are all published, as growth
// does once the horizon is a full segment further on: how a test reads
// records back from the packed form without appending a segment more.
func seal(l *Log) {
	l.ringMu.Lock()
	defer l.ringMu.Unlock()
	r := l.ring.Load()
	for k, seg := range r.segs {
		if uint64(seg.firstLSN)+segRecords-1 > l.published.Load() {
			break
		}
		if seg.slots.Load() != nil {
			l.packBuf, _ = seg.pack(l.packBuf)
		}
		l.packFrom = max(l.packFrom, r.firstSeg+uint64(k)+1)
	}
}

// packedSegments counts the segments of the ring in the packed form.
func packedSegments(l *Log) (n int) {
	for _, seg := range l.ring.Load().segs {
		if seg.packed.Load() != nil {
			n++
		}
	}
	return n
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// The memory guard next to TestAppendZeroAllocs: what the log retains
// per small update record. A million TPC-B-style updates (8-byte before
// and after image) must cost at most 40 B each, all in — packed fields
// and offset, images, arena slack, segment headers and ring — and Stats
// must account for what the heap shows. With a 64-byte slot per record
// for life it was 80.2 B.
func TestRetainedBytesPerRecord(t *testing.T) {
	const n = 1 << 20
	before, after := make([]byte, 8), make([]byte, 8)
	base := heapAlloc()
	l := NewLog(0)
	for i := 0; i < n; i++ {
		l.Append(Record{Type: RecUpdate, TxID: 7, Page: core.PageID(i), Op: OpUpdate, Before: before, After: after})
	}
	grown := heapAlloc() - base
	per := float64(grown) / n
	st := l.Stats()
	t.Logf("heap %.1f B/record, Stats.RetainedBytes %.1f B/record, UsedBytes %.1f B/record",
		per, float64(st.RetainedBytes)/n, float64(st.UsedBytes)/n)
	if per > 40 {
		t.Errorf("log retains %.1f B per 16-byte-image record, want <= 40", per)
	}
	if d := float64(st.RetainedBytes) / float64(grown); d < 0.95 || d > 1.05 {
		t.Errorf("Stats.RetainedBytes = %d but the heap grew by %d", st.RetainedBytes, grown)
	}
	// Truncation gives the memory back, and the stat follows.
	l.Flush(l.Head())
	l.Truncate(l.Head() + 1)
	if st := l.Stats(); st.RetainedBytes > 2*(segmentHeaderBytes+slotArrayBytes) {
		t.Errorf("RetainedBytes = %d after truncating everything", st.RetainedBytes)
	}
	runtime.KeepAlive(l)
}

// pattern fills n bytes that differ per (seed, position), so a
// misplaced or overlapping arena reservation cannot go unnoticed.
func pattern(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*131 + i*7 + i>>8)
	}
	return b
}

func sameRecord(a, b Record) error {
	if a.LSN != b.LSN || a.Type != b.Type || a.TxID != b.TxID || a.PrevLSN != b.PrevLSN ||
		a.Page != b.Page || a.Op != b.Op || a.Slot != b.Slot || a.Off != b.Off || a.UndoNext != b.UndoNext {
		return fmt.Errorf("fixed fields differ: %+v vs %+v", a, b)
	}
	if !bytes.Equal(a.Before, b.Before) || !bytes.Equal(a.After, b.After) || !bytes.Equal(a.Meta, b.Meta) {
		return fmt.Errorf("payload of LSN %d differs (before %d/%d, after %d/%d, meta %d/%d bytes)",
			a.LSN, len(a.Before), len(b.Before), len(a.After), len(b.After), len(a.Meta), len(b.Meta))
	}
	if !reflect.DeepEqual(a.ActiveTxs, b.ActiveTxs) || !reflect.DeepEqual(a.DirtyPages, b.DirtyPages) {
		return fmt.Errorf("checkpoint tables of LSN %d differ", a.LSN)
	}
	return nil
}

// roundTripRecords is the table behind TestRecordsRoundTripByteExact and
// the seed corpus of FuzzWALRecordRoundTrip: every kind of record, with
// image sizes that straddle the arena chunk edges (a reservation that
// just fits, just does not, exceeds a chunk, is empty), Meta and
// checkpoint tables in the side table, and all slot fields at their
// extremes. Five rounds span four segments.
func roundTripRecords() []Record {
	sizes := []int{0, 1, 7, 8, 16, 100, 255, 256, 1000,
		arenaChunkBytes/2 - 1, arenaChunkBytes / 2, arenaChunkBytes/2 + 1,
		arenaChunkBytes - 1, arenaChunkBytes, arenaChunkBytes + 1, 3*arenaChunkBytes + 5}
	var recs []Record
	seed := 0
	for round := 0; round < 5; round++ {
		for _, nb := range sizes {
			for _, na := range sizes {
				seed++
				recs = append(recs, Record{
					Type: RecUpdate, TxID: ^uint64(seed), PrevLSN: core.LSN(seed), Page: core.PageID(^uint64(0) - uint64(seed)),
					Op: OpUpdate, Slot: uint16(65535 - seed), Before: pattern(seed, nb), After: pattern(-seed, na),
				})
			}
			recs = append(recs,
				Record{Type: RecUpdate, TxID: 5, PrevLSN: core.LSN(seed), Page: 9, Op: OpPatch,
					Slot: uint16(seed), Off: uint16(65535 - seed), Before: pattern(seed, nb), After: pattern(-seed, nb)},
				Record{Type: RecCLR, TxID: 5, Page: 9, Op: OpPatch, Slot: uint16(seed), Off: uint16(nb),
					After: pattern(seed, nb), UndoNext: core.LSN(seed)},
				Record{Type: RecCLR, TxID: 3, Op: OpDelete, After: pattern(seed, nb), UndoNext: core.LSN(seed)},
				Record{Type: RecAlloc, Meta: pattern(seed, nb+1)},
				Record{Type: RecCheckpoint,
					ActiveTxs:  map[uint64]core.LSN{uint64(nb): core.LSN(seed), 2: 20},
					DirtyPages: map[core.PageID]core.LSN{core.PageID(nb): 70},
				},
				Record{Type: RecCommit, TxID: uint64(nb)})
		}
	}
	return append(recs,
		Record{Type: RecCheckpoint}, // nil tables stay nil
		Record{Type: RecTable, Meta: []byte("t"), Before: []byte{1}, After: []byte{2, 3}})
}

// Every kind of record must come back from Get, Scan and ReadFrom
// byte-identical to what was appended, from hot and packed segments,
// before and after a truncation.
func TestRecordsRoundTripByteExact(t *testing.T) {
	l := NewLog(0)
	want := roundTripRecords()
	for i := range want {
		want[i].LSN = l.Append(want[i])
	}
	if len(want) < 2*segRecords {
		t.Fatalf("table holds %d records, want it to span segments", len(want))
	}

	verify := func(step string, tail core.LSN) {
		t.Helper()
		live := want[tail-1:]
		for _, w := range live {
			got, err := l.Get(w.LSN)
			if err != nil {
				t.Fatalf("%s: Get(%d): %v", step, w.LSN, err)
			}
			if err := sameRecord(got, w); err != nil {
				t.Fatalf("%s: Get: %v", step, err)
			}
		}
		i := 0
		l.Scan(1, func(got Record) bool {
			if err := sameRecord(got, live[i]); err != nil {
				t.Fatalf("%s: Scan: %v", step, err)
			}
			i++
			return true
		})
		if i != len(live) {
			t.Fatalf("%s: Scan visited %d records, want %d", step, i, len(live))
		}
		i = 0
		for cursor := tail; ; {
			n, err := l.ReadFrom(cursor, 100, 1<<20, func(got Record) {
				if err := sameRecord(got, live[i]); err != nil {
					t.Fatalf("%s: ReadFrom: %v", step, err)
				}
				i++
			})
			if err != nil {
				t.Fatalf("%s: ReadFrom(%d): %v", step, cursor, err)
			}
			if n == 0 {
				break
			}
			cursor += core.LSN(n)
		}
		if i != len(live) {
			t.Fatalf("%s: ReadFrom visited %d records, want %d", step, i, len(live))
		}
		var sum uint64
		for _, w := range live {
			sum += uint64(w.Size())
		}
		if l.UsedBytes() != sum {
			t.Fatalf("%s: UsedBytes = %d, want %d", step, l.UsedBytes(), sum)
		}
	}
	verify("appended", 1)
	if packedSegments(l) == 0 {
		t.Fatal("growth packed no segment")
	}
	seal(l)
	verify("sealed", 1)
	l.Flush(l.Head())
	cut := core.LSN(segRecords + segRecords/3) // mid-segment: one retired by its packed total, one summed record by record
	l.Truncate(cut)
	verify("truncated", cut)
	if got := want[len(want)-2]; got.ActiveTxs != nil {
		t.Fatal("test table: expected the nil-table checkpoint second to last")
	}
	if r, _ := l.Get(want[len(want)-2].LSN); r.ActiveTxs != nil || r.DirtyPages != nil {
		t.Errorf("nil checkpoint tables came back non-nil: %+v", r)
	}
}

// Growing the ring appends into the segment table's spare capacity, so
// what one growth allocates — the new segment, almost all of it — does
// not depend on how many segments the log already holds. When growth
// copied the table, a log never truncated paid 8 B per segment held on
// every growth: 512 KB at 64 000 segments.
func TestGrowthCostIndependentOfLogLength(t *testing.T) {
	perGrowth := func(held int) float64 {
		l := NewLog(0)
		// A table of held segments without their memory: growth reads
		// no segment older than the ones it adds.
		segs := make([]*segment, held)
		for i := range segs {
			segs[i] = &segment{}
		}
		l.ring.Store(&ring{segs: segs})
		const growths = 1024
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for k := 0; k < growths; k++ {
			l.grow(core.LSN(uint64(held+k)*segRecords + 1))
		}
		runtime.ReadMemStats(&ms)
		return float64(ms.TotalAlloc-before) / growths
	}
	short, long := perGrowth(1000), perGrowth(64000)
	t.Logf("bytes allocated per growth: %.0f at 1 000 segments, %.0f at 64 000", short, long)
	if long > 1.1*short {
		t.Errorf("a growth allocates %.0f B at 64 000 segments but %.0f B at 1 000", long, short)
	}
}

// BenchmarkPackedSegment measures the two costs the packed form adds:
// packing a segment of TPC-B-like update records (once per record, by
// the appender that grows the ring) and reading a record back from the
// packed form (a shipper or rollback that reads behind the head), with
// the read from a hot segment beside it. ns/record is per record packed
// or read.
func BenchmarkPackedSegment(b *testing.B) {
	segmentOf := func() (*segment, *[segRecords]slot) {
		l := NewLog(0)
		img := make([]byte, 8)
		for i := 0; i < segRecords; i++ {
			l.Append(Record{Type: RecUpdate, TxID: 123456 + uint64(i/7), PrevLSN: core.LSN(i), Page: core.PageID(1000 + i%300),
				Op: OpPatch, Slot: uint16(i % 40), Off: 8, Before: img, After: img})
		}
		seg := l.ring.Load().segs[0]
		return seg, seg.slots.Load()
	}
	b.Run("pack", func(b *testing.B) {
		seg, sl := segmentOf()
		var scratch []byte
		for i := 0; i < b.N; i++ {
			seg.slots.Store(sl)
			scratch, _ = seg.pack(scratch)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/segRecords, "ns/record")
	})
	read := func(b *testing.B, packed bool) {
		seg, _ := segmentOf()
		if packed {
			seg.pack(nil)
		}
		var n int
		for i := 0; i < b.N; i++ {
			for lsn := seg.firstLSN; lsn < seg.firstLSN+segRecords; lsn++ {
				n += len(seg.published(lsn).After)
			}
		}
		if n != b.N*segRecords*8 {
			b.Fatalf("read %d image bytes", n)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/segRecords, "ns/record")
	}
	b.Run("read-hot", func(b *testing.B) { read(b, false) })
	b.Run("read-packed", func(b *testing.B) { read(b, true) })
}
