package sim

import (
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestAcquireIdleResource(t *testing.T) {
	tl := NewTimeline(2)
	start, end := tl.Acquire(0, 100, 50)
	if start != 100 || end != 150 {
		t.Errorf("Acquire = (%d,%d), want (100,150)", start, end)
	}
	if tl.BusyUntil(0) != 150 {
		t.Errorf("BusyUntil = %d", tl.BusyUntil(0))
	}
	if tl.BusyUntil(1) != 0 {
		t.Errorf("untouched resource busy until %d", tl.BusyUntil(1))
	}
}

func TestAcquireQueuesBehindBusyResource(t *testing.T) {
	tl := NewTimeline(1)
	tl.Acquire(0, 0, 100)
	start, end := tl.Acquire(0, 10, 20) // issued at 10, resource busy until 100
	if start != 100 || end != 120 {
		t.Errorf("queued Acquire = (%d,%d), want (100,120)", start, end)
	}
}

func TestHorizonTracksLatestCompletion(t *testing.T) {
	tl := NewTimeline(2)
	tl.Acquire(0, 0, 100)
	tl.Acquire(1, 0, 300)
	if tl.Horizon() != 300 {
		t.Errorf("Horizon = %d, want 300", tl.Horizon())
	}
}

func TestWorkerUseAccountsWaiting(t *testing.T) {
	tl := NewTimeline(1)
	w1 := tl.NewWorker()
	w2 := tl.NewWorker()
	if lat := w1.Use(0, 100); lat != 100 {
		t.Errorf("w1 latency = %v, want 100", lat)
	}
	// w2 issues at time 0 but must wait for w1's operation.
	if lat := w2.Use(0, 50); lat != 150 {
		t.Errorf("w2 latency = %v, want 150 (100 wait + 50 service)", lat)
	}
	if w2.Now() != 150 {
		t.Errorf("w2 now = %v", w2.Now())
	}
}

func TestWorkerCompute(t *testing.T) {
	tl := NewTimeline(1)
	w := tl.NewWorker()
	w.Compute(42)
	if w.Now() != 42 {
		t.Errorf("Now = %v", w.Now())
	}
	if tl.Horizon() != 42 {
		t.Errorf("Horizon = %v", tl.Horizon())
	}
}

func TestSetNowOnlyMovesForward(t *testing.T) {
	tl := NewTimeline(1)
	w := tl.NewWorker()
	w.SetNow(100)
	w.SetNow(50)
	if w.Now() != 100 {
		t.Errorf("Now = %v, want 100", w.Now())
	}
}

func TestTimeSeconds(t *testing.T) {
	if s := Time(2_500_000_000).Seconds(); s != 2.5 {
		t.Errorf("Seconds = %v", s)
	}
}

func TestAcquireOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for out-of-range resource")
		}
	}()
	NewTimeline(1).Acquire(1, 0, 1)
}

// Property: a resource never runs two operations concurrently — each
// acquisition starts no earlier than the previous one ended.
func TestPropertyNoOverlap(t *testing.T) {
	f := func(durs []uint16, nows []uint16) bool {
		tl := NewTimeline(1)
		var prevEnd Time
		for i, d := range durs {
			var now Time
			if i < len(nows) {
				now = Time(nows[i])
			}
			start, end := tl.Acquire(0, now, time.Duration(d))
			if start < prevEnd {
				return false
			}
			if end != start+Time(d) {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Horizon is the latest instant anything reached — a resource's busy
// horizon or a clock a worker moved by itself — whichever stripes the
// workers landed on.
func TestHorizonIsTheLatestInstantOfAnyWorker(t *testing.T) {
	tl := NewTimeline(2)
	ws := make([]*Worker, Stripes+3) // more workers than stripes
	for i := range ws {
		ws[i] = tl.NewWorker()
	}
	want := Time(0)
	for i, w := range ws {
		d := time.Duration(1000 + 37*i)
		if i%2 == 0 {
			w.Compute(d)
		} else {
			w.SetNow(Time(d))
		}
		want = max(want, w.Now())
		if got := tl.Horizon(); got != want {
			t.Fatalf("after worker %d: Horizon = %d, want %d", i, got, want)
		}
	}
	ws[0].Use(1, 1_000_000)
	if got, want := tl.Horizon(), tl.BusyUntil(1); got != want {
		t.Errorf("Horizon = %d, want the busy resource's %d", got, want)
	}
}

var escaped []*Worker

// Workers live on cache lines of their own, and consecutive workers on
// different stripes.
func TestWorkersOwnTheirLines(t *testing.T) {
	if size := unsafe.Sizeof(Worker{}); size != 128 {
		t.Fatalf("Worker is %d bytes, want 128", size)
	}
	tl := NewTimeline(1)
	a, b := tl.NewWorker(), tl.NewWorker()
	escaped = append(escaped, a, b) // on the heap, as every real worker is
	for _, w := range []*Worker{a, b} {
		if addr := uintptr(unsafe.Pointer(w)); addr%64 != 0 {
			t.Errorf("worker at %#x, not on a line boundary", addr)
		}
	}
	if a.stripe == b.stripe {
		t.Errorf("two consecutive workers share stripe %d", a.stripe)
	}
	var s Striped[int64]
	if s.Of(a) == s.Of(b) || s.Of(nil) != s.At(0) {
		t.Error("Striped.Of: wrong cells")
	}
	if d := uintptr(unsafe.Pointer(s.At(1))) - uintptr(unsafe.Pointer(s.At(0))); d < 64 {
		t.Errorf("adjacent cells %d bytes apart, want a line at least", d)
	}
}
