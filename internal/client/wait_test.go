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

// A request costs the client no allocation of its own: the payload is
// encoded in the connection's scratch builder, the Pending and its
// channel are recycled, the empty response is read without a buffer.
// (One is allowed for a Pending the pool lost to a GC cycle.)
func TestRequestAllocs(t *testing.T) {
	srv := startFakeServer(t, func(wire.Frame) (byte, []byte) { return wire.StatusOK, nil })
	c, err := Dial(srv.addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rid := wire.RID{Page: 7, Slot: 3}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.AddFieldAsync(1, "tpcb_account", rid, 8, 42).Wait(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("AddFieldAsync+Wait allocates %.0f times, want at most 1", allocs)
	}
}

// A read's reply is decoded where it landed: a pipelined burst of three
// READs, each resolved with Wait and its row decoded with Blob, costs
// the client one allocation per read, the payload readLoop reads the
// reply into. A Blob that copied the row made it two.
func TestReadReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Pendings under the race detector")
	}
	row := make([]byte, 100)
	reply := wire.NewBuilder(4 + len(row)).Blob(row).Bytes()
	srv := startFakeServer(t, func(wire.Frame) (byte, []byte) { return wire.StatusOK, reply })
	c, err := Dial(srv.addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const reads = 3
	rids := [reads]wire.RID{{Page: 7, Slot: 3}, {Page: 9, Slot: 1}, {Page: 2, Slot: 0}}
	if allocs := testing.AllocsPerRun(200, func() {
		var ps [reads]*Pending
		for i, rid := range rids {
			ps[i] = c.ReadAsync("tpcb_account", rid)
		}
		for _, p := range ps {
			f, err := p.Wait()
			if err != nil {
				t.Fatal(err)
			}
			r := wire.NewReader(f.Payload)
			if data := r.Blob(); len(data) != len(row) || r.End() != nil {
				t.Fatalf("read %d bytes, %v", len(data), r.Err())
			}
		}
	}); allocs > reads {
		t.Errorf("a burst of %d READs allocates %.0f times, want at most %d", reads, allocs, reads)
	}
}

// The pending table is a ring indexed by request id. It must grow past
// its initial size without losing or crossing a request, from many
// goroutines at once, and a lost connection must wake everything in it.
func TestPendingRing(t *testing.T) {
	hang := make(chan struct{})
	srv := startFakeServer(t, func(f wire.Frame) (byte, []byte) {
		if f.Kind == wire.OpStats {
			<-hang
		}
		return wire.StatusOK, append([]byte(nil), f.Payload...) // echo
	})
	c, err := Dial(srv.addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const senders, each = 8, 300 // 8 × 50 in flight: several doublings of the 16-slot ring
	errs := make(chan error, senders)
	for g := 0; g < senders; g++ {
		go func(g int) {
			for i := 0; i < each; i += 50 {
				var ps [50]*Pending
				for j := range ps {
					ps[j] = c.DoAsync(wire.OpPing, wire.NewBuilder(8).Uint64(uint64(g<<32|(i+j))).Bytes())
				}
				for j, p := range ps {
					f, err := p.Wait()
					if err == nil && wire.NewReader(f.Payload).Uint64() != uint64(g<<32|(i+j)) {
						err = errors.New("a Pending was woken with another request's response")
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < senders; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// Requests parked behind one the server sits on; the connection dies.
	var parked []*Pending
	parked = append(parked, c.DoAsync(wire.OpStats, nil))
	for i := 0; i < 40; i++ {
		parked = append(parked, c.DoAsync(wire.OpPing, nil))
	}
	c.flush()
	c.conn.Close()
	for i, p := range parked {
		if _, err := p.Wait(); err == nil || errors.Is(err, ErrTimeout) {
			t.Fatalf("parked request %d after connection loss: %v, want the connection's error", i, err)
		}
	}
	close(hang)
	if _, err := c.DoAsync(wire.OpPing, nil).Wait(); err == nil {
		t.Fatal("request on a dead connection succeeded")
	}
	if c.Healthy() {
		t.Error("dead connection reports healthy")
	}
}
