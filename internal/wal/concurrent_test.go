package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipa/internal/core"
)

// A flushing leader must never block concurrent Appends. The leader
// here is held in its flush by an LSN below its own that is reserved
// but not yet published (an appender caught mid-copy) while the main
// goroutine pushes hundreds of appends; they must all complete before
// the flush does, and the flush then covers them.
func TestGroupFlushDoesNotBlockAppends(t *testing.T) {
	l := NewLog(0)
	hole := core.LSN(l.next.Add(1) - 1)
	holeSeg, _ := l.segment(hole)
	first := l.Append(Record{Type: RecUpdate, TxID: 1})

	done := make(chan struct{})
	go func() {
		l.GroupFlush(first)
		close(done)
	}()
	for leading := false; !leading; runtime.Gosched() {
		l.flushMu.Lock()
		leading = l.flushing
		l.flushMu.Unlock()
	}

	const extra = 500
	last := first
	for i := 0; i < extra; i++ {
		last = l.Append(Record{Type: RecUpdate, TxID: 2, After: []byte{byte(i)}})
	}
	if last != first+extra {
		t.Fatalf("last LSN appended during the flush = %d, want %d", last, first+extra)
	}
	select {
	case <-done:
		t.Fatal("flush completed over an unpublished record")
	default:
	}
	holeSeg.slots.Load()[(uint64(hole)-1)&segMask].pub.Store(uint64(hole))
	l.advancePublished()
	<-done
	// The leader absorbs everything published when it flushes, so the
	// horizon covers the concurrent appends too.
	if f := l.Flushed(); f != first+extra {
		t.Fatalf("Flushed = %d after leader completed, want %d", f, first+extra)
	}
}

// Followers whose LSN the in-flight flush already covers are absorbed;
// a follower beyond the in-flight target leads the next batch.
func TestGroupFlushPipelinedBatches(t *testing.T) {
	l := NewLog(0)
	var wg sync.WaitGroup
	const n = 32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			lsn := l.Append(Record{Type: RecCommit, TxID: id})
			l.GroupFlush(lsn)
			if l.Flushed() < lsn {
				t.Errorf("GroupFlush(%d) returned with Flushed = %d", lsn, l.Flushed())
			}
		}(uint64(i))
	}
	wg.Wait()
	if l.Flushed() != n {
		t.Fatalf("Flushed = %d, want %d", l.Flushed(), n)
	}
	st := l.Stats()
	if st.Flushes == 0 || st.Flushes != st.LeaderBatches {
		t.Fatalf("Flushes = %d, LeaderBatches = %d", st.Flushes, st.LeaderBatches)
	}
	// Every GroupFlush call is accounted exactly once: it either led a
	// batch that moved the horizon or was absorbed by another's flush.
	if st.Absorbed+st.LeaderBatches != n {
		t.Fatalf("Absorbed (%d) + LeaderBatches (%d) != %d calls", st.Absorbed, st.LeaderBatches, n)
	}
	if st.BatchP50 == 0 || st.BatchP99 < st.BatchP50 {
		t.Fatalf("batch quantiles p50=%d p99=%d", st.BatchP50, st.BatchP99)
	}
}

// Committers on more goroutines than cores, with images large enough that
// a committer often finds an earlier appender still copying below its LSN
// (the leader/follower path) and often finds none (the lock-free path):
// every GroupFlush call is counted exactly once, as a leader batch or an
// absorption, returns with its LSN durable, and the durable horizon never
// passes the published one.
func TestGroupFlushCountsEveryCallOnce(t *testing.T) {
	l := NewLog(0)
	const committers, perCommitter = 8, 1500
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Flushed first: Head only grows, so it must cover what Flushed
			// said a moment earlier.
			if f, h := l.Flushed(), l.Head(); f > h {
				t.Errorf("Flushed = %d beyond Head = %d", f, h)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			img := make([]byte, 4<<10)
			for i := 0; i < perCommitter; i++ {
				lsn := l.Append(Record{Type: RecUpdate, TxID: uint64(c), Op: OpUpdate, After: img[:(i*977)%len(img)]})
				l.GroupFlush(lsn)
				if f := l.Flushed(); f < lsn {
					t.Errorf("GroupFlush(%d) returned with Flushed = %d", lsn, f)
					return
				}
				if i%256 == 255 {
					l.Truncate(l.Flushed())
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-watched
	st := l.Stats()
	if calls := uint64(committers * perCommitter); st.Absorbed+st.LeaderBatches != calls {
		t.Fatalf("Absorbed (%d) + LeaderBatches (%d) != %d calls", st.Absorbed, st.LeaderBatches, calls)
	}
	if st.Flushed != st.Published || st.Flushes != st.LeaderBatches {
		t.Fatalf("Flushed %d, Published %d, Flushes %d, LeaderBatches %d",
			st.Flushed, st.Published, st.Flushes, st.LeaderBatches)
	}
}

// Replays a scripted run — begin/update/commit traffic with image sizes
// swept across the arena granularity, periodic checkpoints with
// populated tables, and interleaved truncations — asserting after every
// step that UsedBytes equals the byte-exact sum of retained record
// sizes. This pins the checkpoint Size() accounting (historically a
// flat 16 B/entry undercount) and the O(segments) truncation math
// against the same invariant.
func TestSpaceAccountingScriptedReplay(t *testing.T) {
	l := NewLog(1 << 20)
	type kept struct {
		lsn  core.LSN
		size uint64
	}
	var retained []kept
	sum := uint64(0)
	add := func(r Record) {
		lsn := l.Append(r)
		r.LSN = lsn
		retained = append(retained, kept{lsn, uint64(r.Size())})
		sum += uint64(r.Size())
	}
	check := func(step string) {
		t.Helper()
		if got := l.UsedBytes(); got != sum {
			t.Fatalf("%s: UsedBytes = %d, want %d", step, got, sum)
		}
	}
	truncate := func(cut core.LSN) {
		l.Truncate(cut)
		for len(retained) > 0 && retained[0].lsn < cut {
			sum -= retained[0].size
			retained = retained[1:]
		}
	}

	for round := 0; round < 6; round++ {
		for tx := uint64(0); tx < 40; tx++ {
			add(Record{Type: RecBegin, TxID: tx})
			for u := 0; u < 5; u++ {
				img := (round*97 + int(tx)*13 + u*31) % 300
				add(Record{
					Type: RecUpdate, TxID: tx, Op: OpUpdate,
					Before: make([]byte, img),
					After:  make([]byte, img/2),
				})
			}
			add(Record{Type: RecCommit, TxID: tx})
			add(Record{Type: RecEnd, TxID: tx})
		}
		// Fuzzy checkpoint with populated tables.
		ck := Record{Type: RecCheckpoint,
			ActiveTxs:  map[uint64]core.LSN{1: 10, 2: 20, 3: 30},
			DirtyPages: map[core.PageID]core.LSN{7: 70, 8: 80},
		}
		add(ck)
		check(fmt.Sprintf("round %d appended", round))

		// Interleave truncations at awkward offsets: mid-segment, exact
		// segment boundaries, and no-op re-truncations.
		switch round {
		case 1:
			truncate(retained[len(retained)/3].lsn)
		case 2:
			truncate(core.LSN(segRecords + 1)) // exact boundary (backward: no-op)
			truncate(retained[len(retained)/2].lsn)
		case 4:
			truncate(retained[len(retained)-1].lsn)
			truncate(1) // backward: must not move anything
		}
		check(fmt.Sprintf("round %d truncated", round))
	}
	truncate(l.Head() + 1) // drop everything
	if len(retained) != 0 || l.UsedBytes() != 0 {
		t.Fatalf("full truncate left %d records, %d bytes", len(retained), l.UsedBytes())
	}
}

// The append hot path must not allocate per record: images land in the
// segment arena, and segment/ring allocations amortise to well under
// one allocation per hundreds of appends.
func TestAppendZeroAllocs(t *testing.T) {
	l := NewLog(0)
	before := make([]byte, 16)
	after := make([]byte, 16)
	allocs := testing.AllocsPerRun(20000, func() {
		lsn := l.Append(Record{Type: RecUpdate, TxID: 7, Op: OpUpdate, Before: before, After: after})
		if lsn%8192 == 0 {
			l.Flush(lsn)
			l.Truncate(l.Flushed())
		}
	})
	if allocs > 0.05 {
		t.Fatalf("Append allocates %.4f/op, want amortised ~0", allocs)
	}
}

// Multi-writer stress under -race: concurrent appenders, group
// flushers, a truncator and scanners, with a contiguity audit — no scan
// may ever observe an LSN gap (other than a forward jump to the tail
// when racing a truncation), and the quiesced log must be byte-exact.
func TestConcurrentAppendFlushTruncateScanStress(t *testing.T) {
	l := NewLog(0)
	const (
		writers   = 8
		perWriter = 4000
		totalLSN  = writers * perWriter
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var audits atomic.Uint64

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			img := make([]byte, 64)
			for i := 0; i < perWriter; i++ {
				lsn := l.Append(Record{Type: RecUpdate, TxID: id, Op: OpUpdate, Before: img[:32], After: img})
				if i%64 == 0 {
					l.GroupFlush(lsn)
				}
			}
		}(uint64(w))
	}

	// Truncator: advance the tail behind the durable horizon.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			f := l.Flushed()
			if f > 64 {
				l.Truncate(f - 64)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Scanners: audit contiguity. Within one scan, consecutive LSNs must
	// be a+1, or — when a truncation raced us — a forward jump to an LSN
	// that the (monotonic) tail has reached.
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				prev := core.LSN(0)
				l.Scan(l.Tail(), func(r Record) bool {
					if prev != 0 && r.LSN != prev+1 {
						if r.LSN <= prev {
							t.Errorf("scan went backwards: %d after %d", r.LSN, prev)
							return false
						}
						if tail := l.Tail(); r.LSN > tail {
							t.Errorf("scan gap: %d after %d with tail %d", r.LSN, prev, tail)
							return false
						}
					}
					prev = r.LSN
					audits.Add(1)
					return true
				})
			}
		}()
	}

	// Wait for the writers, then stop the background churn.
	allWriters := make(chan struct{})
	go func() {
		for l.Head() < core.LSN(totalLSN) {
			time.Sleep(time.Millisecond)
		}
		close(allWriters)
	}()
	<-allWriters
	close(stop)
	wg.Wait()

	// Quiesced audit: the retained window is contiguous, Get succeeds on
	// every LSN in it, and the space accounting is byte-exact.
	head, tail := l.Head(), l.Tail()
	if head != core.LSN(totalLSN) {
		t.Fatalf("Head = %d, want %d", head, totalLSN)
	}
	var sum uint64
	count := 0
	for lsn := tail; lsn <= head; lsn++ {
		r, err := l.Get(lsn)
		if err != nil || r.LSN != lsn {
			t.Fatalf("Get(%d) = %+v, %v", lsn, r, err)
		}
		sum += uint64(r.Size())
		count++
	}
	if _, err := l.Get(tail - 1); tail > 1 && !errors.Is(err, ErrTruncated) {
		t.Errorf("Get below tail: %v", err)
	}
	if got := l.UsedBytes(); got != sum {
		t.Fatalf("UsedBytes = %d, want %d over %d records", got, sum, count)
	}
	seen := 0
	prev := tail - 1
	l.Scan(tail, func(r Record) bool {
		if r.LSN != prev+1 {
			t.Fatalf("quiesced scan gap: %d after %d", r.LSN, prev)
		}
		prev = r.LSN
		seen++
		return true
	})
	if seen != count {
		t.Fatalf("quiesced scan saw %d records, want %d", seen, count)
	}
	if audits.Load() == 0 {
		t.Error("concurrent scanners audited nothing")
	}
}

// Packing races everything that reads the log: appenders on more
// goroutines than cores, Get, Scan and ReadFrom readers, a group flusher
// and a truncator, over some two hundred segments that growth packs as
// the published horizon leaves them behind. Every record a reader meets
// is compared byte for byte with what its appender wrote (TxID and Page
// say which appender and which of its appends it is), and so is the
// whole retained log once the appenders are done. A segment packed
// before every slot in it is published loses or garbles a record here,
// or stalls the horizon, which the deadline reports; a reader that
// skips its pin reads a slot array the next segment is refilling, which
// -race reports.
func TestConcurrentPackingReadsBackExactly(t *testing.T) {
	const writers, perWriter = 4, 25000
	l := NewLog(0)
	// lsns[w][i] is the LSN of appender w's i-th record, once Append has
	// returned it.
	lsns := make([][]atomic.Uint64, writers)
	for w := range lsns {
		lsns[w] = make([]atomic.Uint64, perWriter)
	}
	rec := func(w, i int, prev core.LSN) Record {
		id, page := uint64(w)+1, core.PageID(i)
		switch i % 50 {
		case 7:
			return Record{Type: RecCLR, TxID: id, PrevLSN: prev, Page: page, Op: OpPatch, Slot: uint16(i),
				Off: uint16(i % 300), After: pattern(i, i%20), UndoNext: prev}
		case 23:
			return Record{Type: RecAlloc, TxID: id, Page: page, Meta: pattern(i, 1+i%40)}
		case 41:
			return Record{Type: RecCommit, TxID: id, PrevLSN: prev, Page: page}
		}
		return Record{Type: RecUpdate, TxID: id, PrevLSN: prev, Page: page, Op: OpPatch,
			Slot: uint16(i * 7), Off: uint16(i % 300),
			Before: pattern(w*perWriter+i, (i*37+w*11)%300), After: pattern(-(w*perWriter + i), (i*13)%64)}
	}
	check := func(got Record) error {
		w, i := int(got.TxID)-1, int(got.Page)
		if w < 0 || w >= writers || i >= perWriter {
			return fmt.Errorf("LSN %d is no record of this test: %+v", got.LSN, got)
		}
		var prev core.LSN
		if i > 0 {
			// Stored before record i was appended, so before it was
			// published.
			prev = core.LSN(lsns[w][i-1].Load())
		}
		want := rec(w, i, prev)
		want.LSN = got.LSN
		if lsn := core.LSN(lsns[w][i].Load()); lsn != 0 && lsn != got.LSN {
			return fmt.Errorf("record %d of appender %d read at LSN %d, appended at %d", i, w, got.LSN, lsn)
		}
		return sameRecord(got, want)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev core.LSN
			for i := 0; i < perWriter; i++ {
				prev = l.Append(rec(w, i, prev))
				lsns[w][i].Store(uint64(prev))
			}
		}()
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	var gets, scans, cursors atomic.Uint64
	background := func(step func() error) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := step(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	background(func() error { // group flusher; never waits on a hole
		l.GroupFlush(l.Head())
		runtime.Gosched()
		return nil
	})
	background(func() error { // truncator: keeps six segments behind the durable horizon
		if f := l.Flushed(); f > 6*segRecords {
			l.Truncate(f - 6*segRecords)
		}
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	rng := uint64(1)
	background(func() error { // Get at random retained LSNs, half of them where growth packs
		tail, head := l.Tail(), l.Head()
		if head < tail {
			return nil
		}
		rng = rng*6364136223846793005 + 1442695040888963407
		if near := head - min(head, 3*segRecords); rng&1 == 0 && near > tail {
			tail = near
		}
		lsn := tail + core.LSN(rng>>33)%(head-tail+1)
		got, err := l.Get(lsn)
		if errors.Is(err, ErrTruncated) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("Get(%d): %v", lsn, err)
		}
		gets.Add(1)
		return check(got)
	})
	background(func() error { // Scan from the tail
		var err error
		l.Scan(l.Tail(), func(got Record) bool {
			scans.Add(1)
			err = check(got)
			return err == nil
		})
		return err
	})
	var cursor core.LSN = 1
	background(func() error { // ReadFrom, the shipping cursor
		var err error
		n, rerr := l.ReadFrom(cursor, 300, 0, func(got Record) {
			if err == nil && got.LSN != cursor {
				err = fmt.Errorf("ReadFrom handed LSN %d at cursor %d", got.LSN, cursor)
			}
			if err == nil {
				err = check(got)
			}
			cursor++
			cursors.Add(1)
		})
		if errors.Is(rerr, ErrTruncated) {
			cursor = l.Tail()
			return nil
		}
		if rerr != nil {
			return rerr
		}
		if n == 0 {
			runtime.Gosched()
		}
		return err
	})

	wg.Wait()
	const total = writers * perWriter
	for deadline := time.Now().Add(20 * time.Second); l.Head() < total; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(stop)
			t.Fatalf("published horizon stuck at %d of %d appended", l.Head(), total)
		}
	}
	close(stop)
	readers.Wait()
	if gets.Load() == 0 || scans.Load() == 0 || cursors.Load() == 0 {
		t.Fatalf("readers checked %d Gets, %d scanned and %d shipped records", gets.Load(), scans.Load(), cursors.Load())
	}

	tail, head := l.Tail(), l.Head()
	if packedSegments(l) == 0 {
		t.Fatalf("no packed segment among the retained LSNs %d..%d", tail, head)
	}
	var sum uint64
	for lsn := tail; lsn <= head; lsn++ {
		got, err := l.Get(lsn)
		if err != nil {
			t.Fatalf("Get(%d): %v", lsn, err)
		}
		if err := check(got); err != nil {
			t.Fatal(err)
		}
		sum += uint64(got.Size())
	}
	if used := l.UsedBytes(); used != sum {
		t.Fatalf("UsedBytes = %d, retained records sum to %d", used, sum)
	}
	next := tail
	l.Scan(tail, func(got Record) bool {
		if got.LSN != next {
			t.Fatalf("quiesced scan: LSN %d after %d", got.LSN, next-1)
		}
		next++
		return true
	})
	if next != head+1 {
		t.Fatalf("quiesced scan ended at %d, head %d", next-1, head)
	}
}

// BenchmarkWALAppend measures the reservation-based append path across
// goroutine counts and image sizes. Periodic group flushes and
// truncations keep the ring bounded, mirroring steady-state operation.
func BenchmarkWALAppend(b *testing.B) {
	for _, g := range []int{1, 4, 16} {
		for _, img := range []int{16, 256} {
			b.Run(fmt.Sprintf("goroutines=%d/img=%d", g, img), func(b *testing.B) {
				l := NewLog(0)
				before := make([]byte, img)
				after := make([]byte, img)
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						n := b.N / g
						if id < b.N%g {
							n++
						}
						for i := 0; i < n; i++ {
							lsn := l.Append(Record{
								Type: RecUpdate, TxID: uint64(id), Op: OpUpdate,
								Before: before, After: after,
							})
							if i%1024 == 1023 {
								l.GroupFlush(lsn)
							}
							if id == 0 && i%8192 == 8191 {
								l.Truncate(l.Flushed())
							}
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}
