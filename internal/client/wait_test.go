package client

import (
	"errors"
	"testing"
	"time"

	"ipa/internal/wire"
)

// Wait recycles its deadline timers. A timer that fired (a timed-out
// request) and one that was stopped early (an answered request) must
// both come back from the pool clean: the next waits neither time out
// at once on a stale tick nor miss their own deadline. And a response
// that is already there is taken without arming a timer at all.
func TestWaitTimersAreRecycledClean(t *testing.T) {
	slow := make(chan struct{})
	srv := startFakeServer(t, func(f wire.Frame) (byte, []byte) {
		if f.Kind == wire.OpStats {
			<-slow // answered only after the client gave up
		}
		return wire.StatusOK, nil
	})
	c, err := Dial(srv.addr(), Options{RequestTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for round := 0; round < 3; round++ {
		// A request that times out: its timer fires and is pooled drained.
		start := time.Now()
		if _, err := c.DoAsync(wire.OpStats, nil).Wait(); !errors.Is(err, ErrTimeout) {
			t.Fatalf("round %d: slow request = %v, want ErrTimeout", round, err)
		}
		if d := time.Since(start); d < 30*time.Millisecond {
			t.Fatalf("round %d: timed out after %v, before the 30ms deadline", round, d)
		}
		slow <- struct{}{} // the late response is discarded by the reader
		// Answered requests reuse that timer and stop it early; none may
		// see a stale expiry.
		for i := 0; i < 20; i++ {
			if err := c.Ping(); err != nil {
				t.Fatalf("round %d: ping %d after a timeout: %v", round, i, err)
			}
		}
	}

	// All but the first Wait of a pipelined burst find their response
	// waiting: no timer, no allocation.
	const burst = 8
	var ps []*Pending
	for i := 0; i <= burst+1; i++ {
		ps = append(ps, c.DoAsync(wire.OpPing, nil))
	}
	if _, err := ps[len(ps)-1].Wait(); err != nil { // the server answers in order
		t.Fatal(err)
	}
	next := 0
	if allocs := testing.AllocsPerRun(burst, func() {
		if _, err := ps[next].Wait(); err != nil {
			t.Fatal(err)
		}
		next++
	}); allocs != 0 {
		t.Errorf("Wait on an answered request allocates %.1f times", allocs)
	}
}
