package buffer

import (
	"testing"

	"ipa/internal/core"
)

// storeOf returns a store holding pages 1..n.
func storeOf(n int) *fakeStore {
	st := newFakeStore(64)
	for id := core.PageID(1); id <= core.PageID(n); id++ {
		st.pages[id] = make([]byte, 64)
	}
	return st
}

// getPinned returns page id pinned.
func getPinned(t *testing.T, p *Pool, id core.PageID) *Frame {
	t.Helper()
	fr, err := p.Get(nil, id)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

func unpinClean(t *testing.T, p *Pool, fr *Frame) {
	t.Helper()
	if err := p.Unpin(nil, fr, false, 0); err != nil {
		t.Fatal(err)
	}
}

// publish decodes the pinned frame's page as an index does, under the
// shared latch at the version read there, and publishes the copy.
func publish(fr *Frame) *Route {
	fr.RLatch()
	rt := &Route{ID: fr.ID, Ver: fr.Version(), Node: []uint64{uint64(fr.ID)}}
	fr.SetRoute(rt)
	fr.RUnlatch()
	return rt
}

// A copy validates only at the version it was decoded at: one published
// after a change to the page — by a descent that lost a race, were one
// to publish without the latch — is never used.
func TestRouteValidOnlyAtItsVersion(t *testing.T) {
	p := newPool(t, 2, storeOf(1))
	fr := getPinned(t, p, 1)
	rt := publish(fr)
	if got := fr.RouteFor(1); got != rt {
		t.Fatalf("RouteFor = %p right after publishing %p", got, rt)
	}
	fr.Latch()
	fr.BumpVersion()
	fr.Unlatch()
	fr.SetRoute(rt)
	if fr.RouteFor(1) != nil {
		t.Error("a copy decoded before a change validates after it")
	}
	unpinClean(t, p, fr)
}

// A shared latch leaves the copy alone; an exclusive one drops it even
// when its holder changes nothing and bumps nothing, so a writer that
// forgets BumpVersion cannot leave a copy of the old bytes that
// validates.
func TestExclusiveLatchDropsRoute(t *testing.T) {
	p := newPool(t, 2, storeOf(1))
	fr := getPinned(t, p, 1)
	rt := publish(fr)
	fr.RLatch()
	fr.RUnlatch()
	if fr.RouteFor(1) != rt {
		t.Fatal("a shared latch dropped the copy")
	}
	fr.Latch()
	fr.Unlatch()
	if fr.route.Load() != nil || fr.RouteFor(1) != nil {
		t.Error("Latch + Unlatch with no change left the copy on the frame")
	}
	publish(fr)
	if !fr.TryLatch() {
		t.Fatal("TryLatch of an unlatched frame failed")
	}
	fr.Unlatch()
	if fr.route.Load() != nil {
		t.Error("TryLatch + Unlatch with no change left the copy on the frame")
	}
	unpinClean(t, p, fr)
}

// A copy never outlives the frame's binding to its page: evicted and
// rebound to another page, the frame carries no copy, and a copy of the
// new page does not validate for the old one (a descent that found the
// frame through Peek before the eviction asks for the old id); the same
// page reloaded — into the same frame or another — starts without one,
// and the first binding's copy does not validate in the second.
func TestRouteDoesNotOutliveBinding(t *testing.T) {
	t.Run("rebound to another page", func(t *testing.T) {
		p := newPool(t, 1, storeOf(2))
		fr := getPinned(t, p, 1)
		v1 := fr.Version()
		publish(fr)
		unpinClean(t, p, fr)
		if got := getPinned(t, p, 2); got != fr {
			t.Fatal("a one-frame pool put page 2 in a second frame")
		}
		if fr.route.Load() != nil {
			t.Error("the copy of page 1 is still on the frame rebound to page 2")
		}
		if fr.Version() == v1 {
			t.Error("rebinding the frame left its version as it was")
		}
		publish(fr)
		if fr.RouteFor(1) != nil {
			t.Error("the copy of page 2 validates for page 1")
		}
		if fr.RouteFor(2) == nil {
			t.Error("the copy of page 2 does not validate for page 2")
		}
		unpinClean(t, p, fr)
	})
	t.Run("reloaded into the same frame", func(t *testing.T) {
		p := newPool(t, 1, storeOf(2))
		fr := getPinned(t, p, 1)
		rt1 := publish(fr)
		unpinClean(t, p, fr)
		unpinClean(t, p, getPinned(t, p, 2))
		if got := getPinned(t, p, 1); got != fr {
			t.Fatal("a one-frame pool reloaded page 1 into a second frame")
		}
		if fr.route.Load() != nil {
			t.Error("page 1 reloaded into its old frame found a copy there")
		}
		fr.SetRoute(rt1)
		if fr.RouteFor(1) != nil {
			t.Error("the copy from page 1's first binding validates in its second")
		}
		unpinClean(t, p, fr)
	})
	t.Run("reloaded into another frame", func(t *testing.T) {
		// One shard, two frames: 1 → F, 2 → G, 3 evicts 1 from F, and the
		// reload of 1 evicts 2 from G.
		p := newPool(t, 2, storeOf(3))
		f := getPinned(t, p, 1)
		rt1 := publish(f)
		unpinClean(t, p, f)
		unpinClean(t, p, getPinned(t, p, 2))
		if got := getPinned(t, p, 3); got != f {
			t.Fatal("page 3 did not evict page 1")
		} else {
			unpinClean(t, p, got)
		}
		g := getPinned(t, p, 1)
		if g == f {
			t.Fatal("page 1 was reloaded into its old frame")
		}
		if f.route.Load() != nil || f.RouteFor(1) != nil {
			t.Error("page 1's old frame, now holding page 3, still has its copy")
		}
		if g.RouteFor(1) != nil {
			t.Error("page 1 reloaded into another frame found a copy there")
		}
		if g.Version() == rt1.Ver {
			t.Error("page 1's new frame is at the version of its copy in the old one")
		}
		unpinClean(t, p, g)
	})
}

// A frame that gives up its page raises its version even when nothing
// rebinds it: a descent that read the version while the frame held its
// parent node and checks it later must fail.
func TestUnbindRaisesVersion(t *testing.T) {
	p := newPool(t, 2, storeOf(1))
	fr := getPinned(t, p, 1)
	v := fr.Version()
	publish(fr)
	unpinClean(t, p, fr)
	if err := p.Drop(1); err != nil {
		t.Fatal(err)
	}
	if fr.Version() == v {
		t.Error("Drop left the frame at the version it had while holding page 1")
	}
	if fr.route.Load() != nil {
		t.Error("Drop left the copy of page 1 on the free frame")
	}
}

// A visit through a copy counts as a hit and sets the reference bit, so
// a node read that way stays resident and buffer.hit_rate keeps its
// meaning.
func TestTouchCountsAHit(t *testing.T) {
	p := newPool(t, 2, storeOf(1))
	fr := getPinned(t, p, 1)
	unpinClean(t, p, fr)
	if p.Peek(1) != fr || p.Peek(2) != nil {
		t.Fatal("Peek does not report what is resident")
	}
	fr.ref.Store(false)
	before := p.Stats().Hits
	p.Touch(nil, fr)
	if !fr.ref.Load() {
		t.Error("Touch left the reference bit clear")
	}
	if got := p.Stats().Hits - before; got != 1 {
		t.Errorf("Touch counted %d hits, want 1", got)
	}
}
