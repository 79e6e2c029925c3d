package buffer

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"ipa/internal/core"
	"ipa/internal/sim"
)

// fakeStore is an in-memory page store recording flush order.
type fakeStore struct {
	pages    map[core.PageID][]byte
	flushes  []core.PageID
	fetchErr error
	flushErr error
	pageSize int
}

func newFakeStore(pageSize int) *fakeStore {
	return &fakeStore{pages: make(map[core.PageID][]byte), pageSize: pageSize}
}

func (s *fakeStore) Fetch(w *sim.Worker, id core.PageID, buf []byte) (int, error) {
	if s.fetchErr != nil {
		return 0, s.fetchErr
	}
	img, ok := s.pages[id]
	if !ok {
		return 0, fmt.Errorf("fake: page %d missing", id)
	}
	copy(buf, img)
	return 0, nil
}

func (s *fakeStore) Flush(w *sim.Worker, fr *Frame) error {
	if s.flushErr != nil {
		return s.flushErr
	}
	s.pages[fr.ID] = append([]byte(nil), fr.Data...)
	s.flushes = append(s.flushes, fr.ID)
	fr.Flushed = append(fr.Flushed[:0], fr.Data...)
	fr.New = false
	return nil
}

func newPool(t *testing.T, frames int, store Store) *Pool {
	t.Helper()
	p, err := New(Config{Frames: frames, PageSize: 64, DirtyThreshold: 2.0}, store)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Frames: 0, PageSize: 64}, nil); err == nil {
		t.Error("zero frames accepted")
	}
	if _, err := New(Config{Frames: 1, PageSize: 8}, nil); err == nil {
		t.Error("tiny pages accepted")
	}
}

func TestGetNewAndGetRoundTrip(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 4, st)
	fr, err := p.GetNew(nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.New {
		t.Error("GetNew frame not marked New")
	}
	fr.Data[0] = 0xAA
	if err := p.Unpin(nil, fr, true, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	if fr.dirty.Load() {
		t.Error("frame dirty after FlushAll")
	}
	// Re-get from pool (hit).
	fr2, err := p.Get(nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if fr2 != fr || fr2.Data[0] != 0xAA {
		t.Error("hit returned wrong frame")
	}
	p.Unpin(nil, fr2, false, 0)
	if st.pages[7][0] != 0xAA {
		t.Error("flush did not reach store")
	}
	s := p.Stats()
	if s.Hits != 1 {
		t.Errorf("Hits = %d", s.Hits)
	}
}

// A miss copies the page once, into Data; the flushed image is captured
// by the first exclusive latch, with the bytes that were fetched, and not
// again until a flush.
func TestMissFetchesFromStore(t *testing.T) {
	st := newFakeStore(64)
	img := make([]byte, 64)
	img[3] = 9
	st.pages[42] = img
	p := newPool(t, 2, st)
	fr, err := p.Get(nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data[3] != 9 {
		t.Error("fetched data wrong")
	}
	if fr.Image() != ImageClean || fr.Flushed != nil {
		t.Errorf("after the miss: image state %d, Flushed %v; want ImageClean and no copy", fr.Image(), fr.Flushed)
	}
	fr.RLatch()
	fr.RUnlatch()
	if fr.Image() != ImageClean {
		t.Error("a shared latch captured the flushed image")
	}
	fr.Latch()
	if fr.Image() != ImageCaptured || !bytes.Equal(fr.Flushed, img) {
		t.Errorf("first Latch: image state %d, Flushed %v; want the fetched bytes", fr.Image(), fr.Flushed)
	}
	fr.Data[3] = 10
	fr.Unlatch()
	if !fr.TryLatch() {
		t.Fatal("TryLatch failed on a free latch")
	}
	if fr.Flushed[3] != 9 {
		t.Error("second latch re-captured a changed page")
	}
	fr.Unlatch()
	p.Unpin(nil, fr, true, 1)
	if p.Stats().Misses != 1 {
		t.Errorf("Misses = %d", p.Stats().Misses)
	}
	// A store that wrote the page says so; the next latch captures anew.
	fr.MarkFlushed()
	if !fr.TryLatch() {
		t.Fatal("TryLatch failed on a free latch")
	}
	if fr.Image() != ImageCaptured || fr.Flushed[3] != 10 {
		t.Errorf("latch after a flush: image state %d, Flushed[3] = %d; want a fresh capture", fr.Image(), fr.Flushed[3])
	}
	fr.Unlatch()
}

// GetNew pages and pages whose load failed have no stored image: no
// latch captures one, and rebinding the frame resets the state.
func TestImageStateNoneForNewAndFailedLoads(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 1, st)
	fr, err := p.GetNew(nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	fr.Latch()
	if fr.Image() != ImageNone {
		t.Errorf("GetNew + Latch: image state %d, want ImageNone", fr.Image())
	}
	fr.Data[0] = 1
	fr.Unlatch()
	p.Unpin(nil, fr, false, 0)
	if _, err := p.Get(nil, 5); err == nil {
		t.Fatal("missing page fetch succeeded")
	}
	if fr.Image() != ImageNone {
		t.Errorf("failed load: image state %d, want ImageNone", fr.Image())
	}
	st.pages[6] = make([]byte, 64)
	if fr, err = p.Get(nil, 6); err != nil {
		t.Fatal(err)
	}
	fr.Latch()
	fr.Unlatch()
	p.Unpin(nil, fr, false, 0)
	if err := p.Drop(6); err != nil {
		t.Fatal(err)
	}
	if fr.Image() != ImageNone {
		t.Errorf("Drop: image state %d, want ImageNone", fr.Image())
	}
}

func TestFetchErrorReleasesFrame(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 1, st)
	if _, err := p.Get(nil, 5); err == nil {
		t.Fatal("missing page fetch succeeded")
	}
	if p.Peek(5) != nil {
		t.Error("failed fetch left page in table")
	}
	// The single frame must be reusable.
	if _, err := p.GetNew(nil, 6); err != nil {
		t.Errorf("frame not reusable after failed fetch: %v", err)
	}
}

func TestEvictionFlushesDirtyVictim(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 2, st)
	for id := core.PageID(1); id <= 2; id++ {
		fr, err := p.GetNew(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data[0] = byte(id)
		p.Unpin(nil, fr, true, core.LSN(id))
	}
	// Third page forces eviction of a dirty victim.
	fr, err := p.GetNew(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(nil, fr, true, 3)
	if len(st.flushes) == 0 {
		t.Fatal("no eviction flush")
	}
	if p.Stats().EvictionFlush == 0 || p.Stats().Evictions == 0 {
		t.Errorf("stats = %+v", p.Stats())
	}
	// Evicted page is re-fetchable with its data intact.
	evicted := st.flushes[0]
	fr2, err := p.Get(nil, evicted)
	if err != nil {
		t.Fatal(err)
	}
	if fr2.Data[0] != byte(evicted) {
		t.Errorf("refetched page %d data = %d", evicted, fr2.Data[0])
	}
	p.Unpin(nil, fr2, false, 0)
}

func TestAllPinnedErrors(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 2, st)
	f1, _ := p.GetNew(nil, 1)
	f2, _ := p.GetNew(nil, 2)
	_ = f1
	_ = f2
	if _, err := p.GetNew(nil, 3); !errors.Is(err, ErrNoFrames) {
		t.Errorf("all pinned: %v", err)
	}
}

func TestUnpinUnderflow(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 2, st)
	fr, _ := p.GetNew(nil, 1)
	if err := p.Unpin(nil, fr, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(nil, fr, false, 0); err == nil {
		t.Error("double unpin accepted")
	}
}

func TestRecLSNOnlyFirstDirty(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 2, st)
	fr, _ := p.GetNew(nil, 1)
	p.Unpin(nil, fr, true, 10)
	fr, _ = p.Get(nil, 1)
	p.Unpin(nil, fr, true, 20)
	if got := fr.earliest(); got != 10 {
		t.Errorf("RecLSN = %d, want first-dirty 10", got)
	}
	dpt := p.DirtyPages()
	if dpt[1] != 10 {
		t.Errorf("DPT = %v", dpt)
	}
}

// Two holders change a page in one order and unpin it in the other: A
// changes it at LSN 10, B at LSN 20, and B's Unpin makes the frame dirty
// first. The dirty-page table must name A's change, the earliest the page
// holds that storage does not; a checkpoint that trusted 20 would cut the
// log past A's record while flash still lacks A's change. A dirty Unpin
// with LSN 0 names no change and leaves the recLSN alone.
func TestRecLSNIsEarliestUnflushedChange(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 2, st)
	fr, _ := p.GetNew(nil, 7)
	if err := p.Unpin(nil, fr, false, 0); err != nil {
		t.Fatal(err)
	}
	a, _ := p.Get(nil, 7)
	b, _ := p.Get(nil, 7)
	for _, u := range []struct {
		fr  *Frame
		lsn core.LSN
	}{{b, 20}, {a, 10}} {
		if err := p.Unpin(nil, u.fr, true, u.lsn); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.DirtyPages()[7]; got != 10 {
		t.Errorf("DirtyPages()[7] = %d, want 10", got)
	}
	c, _ := p.Get(nil, 7)
	if err := p.Unpin(nil, c, true, 0); err != nil {
		t.Fatal(err)
	}
	if got := p.DirtyPages()[7]; got != 10 {
		t.Errorf("after an Unpin with LSN 0: DirtyPages()[7] = %d, want 10", got)
	}
	// A flush claim forgets it: the next change starts a new recLSN.
	if err := p.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	d, _ := p.Get(nil, 7)
	if err := p.Unpin(nil, d, true, 30); err != nil {
		t.Fatal(err)
	}
	if got := p.DirtyPages()[7]; got != 30 {
		t.Errorf("after a flush: DirtyPages()[7] = %d, want 30", got)
	}
}

func TestCleanerTriggersOnThreshold(t *testing.T) {
	st := newFakeStore(64)
	p, err := New(Config{Frames: 8, PageSize: 64, DirtyThreshold: 0.25}, st)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty 3 of 8 frames (37.5% > 25%) — cleaner should run on the
	// third unpin.
	for id := core.PageID(1); id <= 3; id++ {
		fr, err := p.GetNew(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data[0] = byte(id)
		if err := p.Unpin(nil, fr, true, core.LSN(id)); err != nil {
			t.Fatal(err)
		}
	}
	if p.Stats().CleanerFlushes == 0 {
		t.Error("cleaner never ran")
	}
	if p.dirtyFraction() > 0.25 {
		t.Errorf("dirty fraction %v above threshold after cleaning", p.dirtyFraction())
	}
}

func TestFlushOldest(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 4, st)
	for id := core.PageID(1); id <= 3; id++ {
		fr, _ := p.GetNew(nil, id)
		p.Unpin(nil, fr, true, core.LSN(100-id)) // page 3 has oldest recLSN
	}
	n, err := p.FlushOldest(nil, 1)
	if err != nil || n != 1 {
		t.Fatalf("FlushOldest = (%d, %v)", n, err)
	}
	if len(st.flushes) != 1 || st.flushes[0] != 3 {
		t.Errorf("flushed %v, want [3]", st.flushes)
	}
	// Flushing more than available stops early.
	n, _ = p.FlushOldest(nil, 10)
	if n != 2 {
		t.Errorf("second FlushOldest = %d, want 2", n)
	}
}

func TestDrop(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 2, st)
	fr, _ := p.GetNew(nil, 1)
	if err := p.Drop(1); !errors.Is(err, ErrPinned) {
		t.Errorf("drop pinned: %v", err)
	}
	p.Unpin(nil, fr, true, 1)
	if err := p.Drop(1); err != nil {
		t.Fatal(err)
	}
	if p.Peek(1) != nil {
		t.Error("dropped page still resident")
	}
	if p.dirtyFraction() != 0 {
		t.Error("drop did not clear dirty count")
	}
	if err := p.Drop(99); err != nil {
		t.Errorf("drop absent: %v", err)
	}
	if len(st.flushes) != 0 {
		t.Error("drop flushed the page")
	}
}

func TestFlushAllWithPinnedDirty(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 2, st)
	fr, _ := p.GetNew(nil, 1)
	s := fr.home.Load()
	s.mu.Lock()
	fr.dirty.Store(true) // simulate dirty while pinned
	s.dirty.Add(1)
	s.mu.Unlock()
	if err := p.FlushAll(nil); !errors.Is(err, ErrPinned) {
		t.Errorf("FlushAll with pinned dirty: %v", err)
	}
}

func TestChurnManyPages(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 8, st)
	// 64 pages through 8 frames, writing a recognisable byte each.
	for round := 0; round < 3; round++ {
		for id := core.PageID(1); id <= 64; id++ {
			var fr *Frame
			var err error
			if round == 0 {
				fr, err = p.GetNew(nil, id)
			} else {
				fr, err = p.Get(nil, id)
			}
			if err != nil {
				t.Fatalf("round %d page %d: %v", round, id, err)
			}
			if round > 0 && fr.Data[1] != byte(round-1) {
				t.Fatalf("page %d stale: %d", id, fr.Data[1])
			}
			fr.Data[0] = byte(id)
			fr.Data[1] = byte(round)
			if err := p.Unpin(nil, fr, true, core.LSN(round*64+int(id))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	for id := core.PageID(1); id <= 64; id++ {
		if st.pages[id][0] != byte(id) || st.pages[id][1] != 2 {
			t.Fatalf("page %d final state wrong", id)
		}
	}
}

// A page id beyond core.MaxPageID is an error from Get and GetNew, and
// costs no frame: the single frame still serves the next page.
func TestPageIDBeyondTheBound(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 1, st)
	for _, id := range []core.PageID{core.MaxPageID + 1, 1 << 40, ^core.PageID(0)} {
		if _, err := p.Get(nil, id); !errors.Is(err, core.ErrPageIDRange) {
			t.Errorf("Get(%d): %v, want ErrPageIDRange", id, err)
		}
		if _, err := p.GetNew(nil, id); !errors.Is(err, core.ErrPageIDRange) {
			t.Errorf("GetNew(%d): %v, want ErrPageIDRange", id, err)
		}
		if p.Peek(id) != nil {
			t.Errorf("page %d is resident", id)
		}
		if err := p.Drop(id); err != nil {
			t.Errorf("Drop(%d): %v", id, err)
		}
	}
	if s := p.Stats(); s.Misses != 0 || s.Evictions != 0 {
		t.Errorf("refused ids counted as pool traffic: %+v", s)
	}
	fr, err := p.GetNew(nil, core.MaxPageID)
	if err != nil {
		t.Fatalf("GetNew(MaxPageID): %v", err)
	}
	p.Unpin(nil, fr, false, 0)
}

// An Unpin without a pin to give back fails and leaves the count alone
// on every path: the lock-free one (clean, or dirty on a frame already
// dirty), the one that takes the shard mutex (dirty on a clean frame),
// and on a fenced frame, whose -1 must survive a stray Unpin.
func TestUnpinOfUnpinnedFrameChangesNothing(t *testing.T) {
	p := newPool(t, 2, newFakeStore(64))
	fr, err := p.GetNew(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(nil, fr, true, 1); err != nil {
		t.Fatal(err)
	}
	check := func(what string, want int32) {
		t.Helper()
		for _, dirty := range []bool{false, true} {
			if err := p.Unpin(nil, fr, dirty, 2); err == nil {
				t.Errorf("%s: Unpin(dirty=%v) of an unpinned frame accepted", what, dirty)
			}
			if n := fr.pin.Load(); n != want {
				t.Errorf("%s: Unpin(dirty=%v) left the pin count at %d, want %d", what, dirty, n, want)
			}
		}
	}
	check("dirty frame", 0)
	if err := p.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	check("clean frame", 0)
	s := fr.home.Load()
	s.mu.Lock()
	fenced := fr.fenceIdle()
	s.mu.Unlock()
	if !fenced {
		t.Fatal("could not fence an unpinned frame")
	}
	check("fenced frame", fence)
	fr.pin.Store(0)
	if fr.earliest() != 0 || fr.dirty.Load() {
		t.Errorf("a refused Unpin dirtied the frame: dirty %v, recLSN %d", fr.dirty.Load(), fr.earliest())
	}
}

// A frame is a whole number of cache lines and the allocator puts each
// on a line boundary, so the hot first line (pin, latch, version, route)
// is one frame's alone, and a descent that routes through a node's copy
// reads one line of its frame.
func TestFrameOwnsItsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(Frame{}); size%64 != 0 {
		t.Fatalf("Frame is %d bytes, not a multiple of a 64-byte line", size)
	}
	if off := unsafe.Offsetof(Frame{}.ver); off+8 > 64 {
		t.Errorf("the version word ends at byte %d, off the first line", off+8)
	}
	if off := unsafe.Offsetof(Frame{}.route); off+8 > 64 {
		t.Errorf("the route pointer ends at byte %d, off the first line with the version word", off+8)
	}
	p := newPool(t, 8, newFakeStore(64))
	for id := core.PageID(1); id <= 8; id++ {
		fr, err := p.GetNew(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		if addr := uintptr(unsafe.Pointer(fr)); addr%64 != 0 {
			t.Errorf("frame of page %d at %#x, not on a line boundary", id, addr)
		}
	}
}

// A frame unbound outside eviction — by a failed load or by Drop — is
// the next one bound, before the CLOCK hands out a slot nobody has used:
// replaying a page that never reached storage (a failed Get, then GetNew
// of the same id) costs one frame, not two. A getter parked on the failed
// load still gets the load's error, and the rebound frame keeps none.
func TestPoolReusesUnboundFrames(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 16, st) // page 5 is on no store: its Fetch fails
	allocated := func(step string, want uint64) {
		t.Helper()
		if got := p.Stats().FramesAllocated; got != want {
			t.Errorf("%s: %d frames allocated, want %d", step, got, want)
		}
	}
	if _, err := p.Get(nil, 5); err == nil {
		t.Fatal("fetch of a missing page succeeded")
	}
	fr, err := p.GetNew(nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	allocated("failed Get, then GetNew", 1)
	if fr.loadErr != nil {
		t.Errorf("rebound frame keeps the failed load's error %v", fr.loadErr)
	}
	unpinClean(t, p, fr)
	if err := p.Drop(5); err != nil {
		t.Fatal(err)
	}
	if fr, err = p.GetNew(nil, 6); err != nil {
		t.Fatal(err)
	}
	allocated("Drop, then GetNew", 1)
	unpinClean(t, p, fr)

	fetchErr := errors.New("gated: fetch failed")
	gs := &gatedStore{entered: make(chan struct{}, 1), gate: make(chan struct{}), err: fetchErr}
	if p, err = New(Config{Frames: 16, PageSize: 64, DirtyThreshold: 2.0}, gs); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	get := func() { _, err := p.Get(nil, 7); errs <- err }
	go get()
	<-gs.entered // the loader is inside Fetch
	go get()
	for p.Stats().Hits < 1 { // the waiter has found the load in flight
		runtime.Gosched()
	}
	close(gs.gate)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, fetchErr) {
			t.Errorf("getter of the failed load: error %v, want %v", err, fetchErr)
		}
	}
	if fr, err = p.GetNew(nil, 7); err != nil {
		t.Fatal(err)
	}
	allocated("failed load with a waiter, then GetNew", 1)
	if fr.loadErr != nil {
		t.Errorf("rebound frame keeps the failed load's error %v", fr.loadErr)
	}
}

// GetResident pins a resident page and counts a hit; for a page that is
// not resident it returns nil and fetches nothing, so it counts no miss.
func TestGetResidentFetchesNothing(t *testing.T) {
	st := newFakeStore(64)
	st.pages[3] = make([]byte, 64)
	p := newPool(t, 4, st)
	if fr := p.GetResident(nil, 3); fr != nil {
		t.Fatal("a page in storage only is resident")
	}
	fr, err := p.Get(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	unpinClean(t, p, fr)
	if got := p.GetResident(nil, 3); got != fr {
		t.Fatalf("GetResident of a resident page: %p, want %p", got, fr)
	}
	unpinClean(t, p, fr)
	if s := p.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("%d misses and %d hits, want the Get's miss and the GetResident's hit", s.Misses, s.Hits)
	}
}
