package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ipa/internal/core"
	"ipa/internal/sim"
)

// concurrentStore is a goroutine-safe in-memory page store for the
// concurrency stress tests (fakeStore is deliberately unsynchronised so
// the deterministic single-threaded tests stay simple).
type concurrentStore struct {
	mu    sync.Mutex
	pages map[core.PageID][]byte
}

func newConcurrentStore(pageSize int) *concurrentStore {
	return &concurrentStore{pages: make(map[core.PageID][]byte)}
}

func (s *concurrentStore) Fetch(w *sim.Worker, id core.PageID, buf []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	img, ok := s.pages[id]
	if !ok {
		return 0, fmt.Errorf("concurrentStore: page %d missing", id)
	}
	copy(buf, img)
	return 0, nil
}

func (s *concurrentStore) Flush(w *sim.Worker, fr *Frame) error {
	s.mu.Lock()
	s.pages[fr.ID] = append([]byte(nil), fr.Data...)
	s.mu.Unlock()
	fr.Flushed = append(fr.Flushed[:0], fr.Data...)
	fr.New = false
	return nil
}

// TestConcurrentShardStress hammers one pool from every public entry
// point at once — writer Gets with dirty Unpins, hot same-page reader
// Gets, Drops racing miss-loads, CleanerPass and FlushOldest — across
// shards under the race detector, then proves no update was lost: after
// a final FlushAll every writer-owned page must carry exactly the number
// of increments its owner applied.
func TestConcurrentShardStress(t *testing.T) {
	const (
		writerCount  = 8
		pagesPer     = 32
		writerPages  = writerCount * pagesPer // pages 1..256, one owner each
		hotLo, hotHi = 257, 264               // shared read-mostly contention set
		dropLo       = 265
		dropHi       = 288 // read/drop set: miss-load vs Drop races
		iters        = 400
	)
	st := newConcurrentStore(64)
	for id := core.PageID(1); id <= dropHi; id++ {
		img := make([]byte, 64)
		img[0] = byte(id)
		st.pages[id] = img
	}
	p, err := New(Config{
		Frames: 96, PageSize: 64, Shards: 8,
		DirtyThreshold: 0.5,
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 8 {
		t.Fatalf("Shards() = %d, want 8", p.Shards())
	}

	var recLSN atomic.Uint64
	writes := make([]int, dropHi+1) // per-page increment counts (owner-only writes)
	var wg sync.WaitGroup
	fail := make(chan error, writerCount+8)

	// Writers: disjoint page ranges, so content assertions are exact.
	for g := 0; g < writerCount; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*2654435761 + 1))
			local := make([]int, pagesPer)
			for i := 0; i < iters; i++ {
				id := core.PageID(g*pagesPer + 1 + rng.Intn(pagesPer))
				fr, err := p.Get(nil, id)
				if err != nil {
					fail <- fmt.Errorf("writer %d get %d: %w", g, id, err)
					return
				}
				fr.Latch()
				fr.Data[1]++
				fr.Unlatch()
				local[int(id)-g*pagesPer-1]++
				if err := p.Unpin(nil, fr, true, core.LSN(recLSN.Add(1))); err != nil {
					fail <- err
					return
				}
				// Occasional cross-shard read of the hot set.
				if i%7 == 0 {
					hid := core.PageID(hotLo + rng.Intn(hotHi-hotLo+1))
					hfr, err := p.Get(nil, hid)
					if err != nil {
						fail <- fmt.Errorf("writer %d hot get %d: %w", g, hid, err)
						return
					}
					hfr.RLatch()
					_ = hfr.Data[0]
					hfr.RUnlatch()
					if err := p.Unpin(nil, hfr, false, 0); err != nil {
						fail <- err
						return
					}
				}
			}
			for i, n := range local {
				writes[g*pagesPer+1+i] = n // disjoint slots, no lock needed
			}
		}(g)
	}

	// Readers of the droppable set: every Get may race a Drop (miss-load
	// protocol) — both outcomes are legal, errors are not.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)*7919 + 5))
			for i := 0; i < iters; i++ {
				id := core.PageID(dropLo + rng.Intn(dropHi-dropLo+1))
				fr, err := p.Get(nil, id)
				if err != nil {
					fail <- fmt.Errorf("reader %d get %d: %w", r, id, err)
					return
				}
				fr.RLatch()
				_ = fr.Data[0]
				fr.RUnlatch()
				if err := p.Unpin(nil, fr, false, 0); err != nil {
					fail <- err
					return
				}
			}
		}(r)
	}

	// Dropper: racing Drop against the readers' loads. ErrPinned is the
	// expected contention outcome, anything else is a bug.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < iters; i++ {
			id := core.PageID(dropLo + rng.Intn(dropHi-dropLo+1))
			if err := p.Drop(id); err != nil && !errors.Is(err, ErrPinned) {
				fail <- fmt.Errorf("drop %d: %w", id, err)
				return
			}
			if i%16 == 0 {
				runtime.Gosched()
			}
		}
	}()

	// Maintenance: cleaner passes and oldest-first flushes, concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			if err := p.CleanerPass(nil); err != nil {
				fail <- fmt.Errorf("cleaner: %w", err)
				return
			}
			runtime.Gosched()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			if _, err := p.FlushOldest(nil, 4); err != nil {
				fail <- fmt.Errorf("flush oldest: %w", err)
				return
			}
			runtime.Gosched()
		}
	}()

	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}

	// Quiesced: flush everything and audit durability. Writer pages were
	// never dropped, and every dirty eviction flushed first, so the store
	// must hold exactly the owner's increment count.
	if err := p.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	if df := p.dirtyFraction(); df != 0 {
		t.Errorf("dirty fraction %v after FlushAll", df)
	}
	for id := core.PageID(1); id <= writerPages; id++ {
		img := st.pages[id]
		if img == nil {
			// Never flushed: only possible if never written, i.e. zero
			// increments — then the preloaded image is still authoritative.
			if writes[id] != 0 {
				t.Errorf("page %d: %d writes but never flushed", id, writes[id])
			}
			continue
		}
		if got, want := img[1], byte(writes[id]); got != want {
			t.Errorf("page %d: store has %d increments, owner made %d", id, got, want)
		}
	}
	s := p.Stats()
	if s.Hits == 0 || s.Misses == 0 {
		t.Errorf("implausible stats after stress: %+v", s)
	}
}

// TestStealDirtyEvictionStress targets the cross-shard steal path
// racing dirty-victim eviction. A thief goroutine over-pins one shard —
// more distinct pages than the shard has frames — so its victim search
// exhausts locally and falls through to stealFrame against the other
// shard, exactly while a writer churns that shard with dirty evictions.
// This is the window where the eviction path used to drop its claim pin
// (in flushClaimed) before re-locking the shard, letting the thief
// re-home the frame so two shards served it at once. The pin is now
// held across the re-lock, closing the window; this test keeps both
// paths colliding under -race and audits for the symptoms (lost
// updates, a frame homed in two shards, shard/frame-count drift).
func TestStealDirtyEvictionStress(t *testing.T) {
	const iters = 2000
	st := newConcurrentStore(64)
	p, err := New(Config{
		Frames: 4, PageSize: 64, Shards: 2, DirtyThreshold: 1.0,
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	// White-box routing: split page ids by shard so the writer and the
	// thief each target one shard deliberately.
	var byShard [2][]core.PageID
	for id := core.PageID(1); id <= 512; id++ {
		sh := p.shardOf(id)
		i := 0
		if sh == &p.shards[1] {
			i = 1
		}
		if len(byShard[i]) < 8 {
			byShard[i] = append(byShard[i], id)
			img := make([]byte, 64)
			st.mu.Lock()
			st.pages[id] = img
			st.mu.Unlock()
		}
	}
	victims, thiefs := byShard[0], byShard[1]
	writes := make(map[core.PageID]int, len(victims))
	var wg sync.WaitGroup
	fail := make(chan error, 2)
	var stop atomic.Bool

	// Writer: dirty churn over shard 0 — more pages than the whole pool,
	// so every Get evicts, and with the inline cleaner disabled every
	// eviction is a dirty-victim flush (the vulnerable window). Runs
	// until the thief has exhausted its steal-attempt budget.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		for i := 0; !stop.Load(); i++ {
			id := victims[rng.Intn(len(victims))]
			fr, err := p.Get(nil, id)
			if err != nil {
				if errors.Is(err, ErrNoFrames) {
					continue // thief holds everything; legal
				}
				fail <- fmt.Errorf("writer get %d: %w", id, err)
				return
			}
			fr.Latch()
			fr.Data[1]++
			fr.Unlatch()
			writes[id]++
			if err := p.Unpin(nil, fr, true, core.LSN(i+1)); err != nil {
				fail <- err
				return
			}
		}
	}()

	// Thief: pin more distinct shard-1 pages than shard 1 owns frames.
	// The over-capacity Gets exhaust the local CLOCK and spin in
	// stealFrame against shard 0, grabbing clean unpinned frames there —
	// including, pre-fix, frames mid dirty-eviction.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < iters; i++ {
			held := make([]*Frame, 0, len(thiefs))
			for _, id := range thiefs[:5] {
				fr, err := p.Get(nil, id)
				if err != nil {
					if errors.Is(err, ErrNoFrames) {
						break // pool exhausted; release and retry
					}
					fail <- fmt.Errorf("thief get %d: %w", id, err)
					return
				}
				held = append(held, fr)
			}
			for _, fr := range held {
				if err := p.Unpin(nil, fr, false, 0); err != nil {
					fail <- err
					return
				}
			}
		}
	}()

	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	if err := p.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	for id, want := range writes {
		st.mu.Lock()
		got := st.pages[id][1]
		st.mu.Unlock()
		if got != byte(want) {
			t.Errorf("page %d: store has %d increments, writer made %d", id, got, want)
		}
	}
	// Every frame must be owned by exactly one shard, and agree on home.
	seen := make(map[*Frame]int)
	total := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for _, fr := range s.frames {
			if fr == nil {
				continue // a slot never handed out
			}
			seen[fr]++
			if fr.home.Load() != s {
				t.Errorf("shard %d holds frame whose home is another shard", i)
			}
		}
		total += len(s.frames)
		s.mu.Unlock()
	}
	if total != p.Size() {
		t.Errorf("frames across shards = %d, want %d", total, p.Size())
	}
	for fr, n := range seen {
		if n != 1 {
			t.Errorf("frame %p appears in %d shards", fr, n)
		}
	}
}

// gatedStore holds every Fetch at a gate until the test opens it, and
// can make the fetch fail.
type gatedStore struct {
	concurrentStore
	entered chan struct{} // one token per Fetch that reached the gate
	gate    chan struct{}
	err     error
}

func (s *gatedStore) Fetch(w *sim.Worker, id core.PageID, buf []byte) (int, error) {
	s.entered <- struct{}{}
	<-s.gate
	if s.err != nil {
		return 0, s.err
	}
	return s.concurrentStore.Fetch(w, id, buf)
}

// TestConcurrentMissWaitsForLoader: getters that find a page's load in
// flight wait for it — on a channel the first of them creates, since
// the loader makes none — and then share the loaded frame, or all see
// the load's error and leave the frame free. One Fetch serves them all.
func TestConcurrentMissWaitsForLoader(t *testing.T) {
	for _, fetchErr := range []error{nil, errors.New("gated: fetch failed")} {
		st := &gatedStore{
			concurrentStore: concurrentStore{pages: map[core.PageID][]byte{7: {7, 7, 7}}},
			entered:         make(chan struct{}, 1),
			gate:            make(chan struct{}),
			err:             fetchErr,
		}
		p, err := New(Config{Frames: 4, PageSize: 64, DirtyThreshold: 2.0}, st)
		if err != nil {
			t.Fatal(err)
		}
		const getters = 6
		var wg sync.WaitGroup
		frames := make([]*Frame, getters)
		errs := make([]error, getters)
		get := func(i int) {
			defer wg.Done()
			frames[i], errs[i] = p.Get(nil, 7)
		}
		wg.Add(1)
		go get(0)
		<-st.entered // the loader is inside Fetch, the frame is marked loading
		for i := 1; i < getters; i++ {
			wg.Add(1)
			go get(i)
		}
		// The waiters count as hits the moment they find the frame; only
		// then is the gate opened, so they really wait on the load.
		for p.Stats().Hits < getters-1 {
			runtime.Gosched()
		}
		close(st.gate)
		wg.Wait()
		if m := p.Stats().Misses; m != 1 {
			t.Errorf("%d misses for one page, want 1 (a second Fetch would have blocked at the gate)", m)
		}
		for i := range frames {
			if !errors.Is(errs[i], fetchErr) {
				t.Errorf("getter %d: error %v, want %v", i, errs[i], fetchErr)
			}
			if fetchErr != nil {
				continue
			}
			if frames[i] != frames[0] || frames[i].Data[0] != 7 {
				t.Errorf("getter %d got frame %p (first byte %d), the loader %p", i, frames[i], frames[i].Data[0], frames[0])
			}
			if err := p.Unpin(nil, frames[i], false, 0); err != nil {
				t.Error(err)
			}
		}
		if fetchErr != nil && p.Peek(7) != nil {
			t.Error("failed load left the page in the table")
		}
		// Every pin was dropped: all four frames can be claimed again.
		for id := core.PageID(100); id < 104; id++ {
			if _, err := p.GetNew(nil, id); err != nil {
				t.Errorf("frame still pinned after the load: %v", err)
			}
		}
	}
}

// TestConcurrentLockFreePins races the pin protocol: hits that take no
// shard mutex and clean and dirty Unpins, against everything that fences
// a frame to unbind or rebind it — eviction (clean and dirty victims),
// the cross-shard steal (eight shards of three frames, and a thief
// pinning more pages of one shard than it has frames), Drop, failed
// loads, whose frames go on the free list — and the sweeps that claim
// frames: CleanerPass, FlushOldest and FlushAll. One getter pins with
// GetResident, which fetches nothing. Every
// page carries its id in byte 0, so a getter that was handed a frame
// bound to another page, or whose frame was rebound while it held the
// pin, sees it; a pinned frame's ID is checked again after the holder
// yields. Writers own disjoint pages and count their increments; after
// a final FlushAll the store must hold exactly those counts.
func TestConcurrentLockFreePins(t *testing.T) {
	const (
		writerCount = 4
		pagesPer    = 8
		writerPages = writerCount * pagesPer // 1..32, one owner each
		hotLo       = writerPages + 1        // read by everyone
		hotHi       = hotLo + 3
		dropLo      = hotHi + 1 // read and dropped
		dropHi      = dropLo + 7
		iters       = 1500
	)
	st := newConcurrentStore(64)
	for id := core.PageID(1); id <= dropHi; id++ {
		img := make([]byte, 64)
		img[0] = byte(id)
		st.pages[id] = img
	}
	p, err := New(Config{Frames: 24, PageSize: 64, Shards: 8, DirtyThreshold: 0.6}, st)
	if err != nil {
		t.Fatal(err)
	}
	var shard0 []core.PageID // pages beyond the rest that route to shard 0
	for id := core.PageID(dropHi + 1); len(shard0) < 5; id++ {
		if p.shardOf(id) == &p.shards[0] {
			shard0 = append(shard0, id)
			img := make([]byte, 64)
			img[0] = byte(id)
			st.pages[id] = img
		}
	}

	var (
		wg     sync.WaitGroup
		stop   atomic.Bool
		recLSN atomic.Uint64
		writes = make([]int, writerPages+1) // owner-only slots
		fail   = make(chan error, 16)
	)
	// get pins id, retrying while every frame is pinned (a legal outcome
	// with this many holders), and checks the frame holds the page.
	get := func(id core.PageID) (*Frame, error) {
		for {
			fr, err := p.Get(nil, id)
			if errors.Is(err, ErrNoFrames) {
				runtime.Gosched()
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("get %d: %w", id, err)
			}
			if fr.ID != id {
				return nil, fmt.Errorf("get %d returned a frame bound to %d", id, fr.ID)
			}
			fr.RLatch()
			b := fr.Data[0]
			fr.RUnlatch()
			if b != byte(id) {
				return nil, fmt.Errorf("get %d returned a frame holding page %d", id, b)
			}
			return fr, nil
		}
	}
	// release checks the pinned frame still holds id after a yield, then
	// unpins it.
	release := func(fr *Frame, id core.PageID, dirty bool) error {
		runtime.Gosched()
		if fr.ID != id {
			return fmt.Errorf("page %d: pinned frame rebound to %d", id, fr.ID)
		}
		var lsn core.LSN
		if dirty {
			lsn = core.LSN(recLSN.Add(1))
		}
		return p.Unpin(nil, fr, dirty, lsn)
	}
	run := func(name string, body func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters && !stop.Load(); i++ {
				if err := body(i); err != nil {
					fail <- fmt.Errorf("%s: %w", name, err)
					stop.Store(true)
					return
				}
			}
		}()
	}

	for g := 0; g < writerCount; g++ {
		rng := rand.New(rand.NewSource(int64(g) + 11))
		local := writes[g*pagesPer+1 : (g+1)*pagesPer+1]
		run("writer", func(i int) error {
			id := core.PageID(g*pagesPer + 1 + rng.Intn(pagesPer))
			fr, err := get(id)
			if err != nil {
				return err
			}
			fr.Latch()
			fr.Data[1]++
			fr.Unlatch()
			local[int(id)-g*pagesPer-1]++
			if err := release(fr, id, true); err != nil {
				return err
			}
			// A hot page: mostly lock-free hits, released clean.
			hid := core.PageID(hotLo + rng.Intn(hotHi-hotLo+1))
			if fr, err = get(hid); err != nil {
				return err
			}
			return release(fr, hid, false)
		})
	}
	for r := 0; r < 2; r++ {
		rng := rand.New(rand.NewSource(int64(r) + 101))
		run("reader", func(i int) error {
			id := core.PageID(dropLo + rng.Intn(dropHi-dropLo+1))
			if i%2 == 0 {
				id = core.PageID(hotLo + rng.Intn(hotHi-hotLo+1))
			}
			fr, err := get(id)
			if err != nil {
				return err
			}
			return release(fr, id, false)
		})
	}
	// The thief holds more shard-0 pages than shard 0 has frames, so its
	// misses exhaust the local CLOCK and steal from the other shards.
	run("thief", func(i int) error {
		held := make([]*Frame, 0, len(shard0))
		for _, id := range shard0 {
			fr, err := p.Get(nil, id)
			if errors.Is(err, ErrNoFrames) {
				break
			}
			if err != nil {
				return fmt.Errorf("get %d: %w", id, err)
			}
			held = append(held, fr)
		}
		for k, fr := range held {
			if err := release(fr, shard0[k], false); err != nil {
				return err
			}
		}
		return nil
	})
	rng := rand.New(rand.NewSource(7))
	run("dropper", func(i int) error {
		id := core.PageID(dropLo + rng.Intn(dropHi-dropLo+1))
		if err := p.Drop(id); err != nil && !errors.Is(err, ErrPinned) {
			return fmt.Errorf("drop %d: %w", id, err)
		}
		runtime.Gosched()
		return nil
	})
	// The misser's loads fail — no store holds its pages — which puts
	// their frames on the shard's free list for the next miss to take,
	// while every other path evicts, steals and drops around it; it also
	// pins hot pages with GetResident, which fetches nothing.
	run("misser", func(i int) error {
		id := core.PageID(1000 + i%16)
		if _, err := p.Get(nil, id); err == nil {
			return fmt.Errorf("get %d: a page no store holds was loaded", id)
		}
		hid := core.PageID(hotLo + i%(hotHi-hotLo+1))
		if fr := p.GetResident(nil, hid); fr != nil {
			return release(fr, hid, false)
		}
		return nil
	})
	run("maintenance", func(i int) error {
		var err error
		switch i % 3 {
		case 0:
			err = p.CleanerPass(nil)
		case 1:
			_, err = p.FlushOldest(nil, 4)
		default:
			if err = p.FlushAll(nil); errors.Is(err, ErrPinned) {
				err = nil // a writer holds a dirty page: legal mid-run
			}
		}
		runtime.Gosched()
		return err
	})
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}

	if err := p.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	for id := core.PageID(1); id <= writerPages; id++ {
		if got, want := st.pages[id][1], byte(writes[id]); got != want {
			t.Errorf("page %d: store has %d increments, owner made %d", id, got, want)
		}
	}
	total := 0
	for i := range p.shards {
		s := &p.shards[i]
		for _, fr := range s.frames {
			if fr == nil {
				continue
			}
			if n := fr.pin.Load(); n != 0 {
				t.Errorf("frame of page %d: pin count %d after every holder left", fr.ID, n)
			}
			if fr.home.Load() != s {
				t.Errorf("shard %d holds a frame homed elsewhere", i)
			}
		}
		total += len(s.frames)
	}
	if total != p.Size() {
		t.Errorf("frames across shards = %d, want %d", total, p.Size())
	}
	s := p.Stats()
	if s.Hits == 0 || s.Evictions == 0 {
		t.Errorf("the run did not exercise hits and evictions: %+v", s)
	}
	t.Logf("%+v", s)
}
