package sim

import (
	"testing"
	"testing/quick"
	"time"
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
