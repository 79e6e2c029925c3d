package client

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"ipa/internal/wire"
)

// TestPoolGetAfterClose: Get on a closed pool must fail instead of
// dialing a connection the pool would never track or close.
func TestPoolGetAfterClose(t *testing.T) {
	p := NewClusterPool([]string{"127.0.0.1:1"}, Options{DialTimeout: 10 * time.Millisecond})
	p.Close()
	if _, err := p.Get(); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Get after Close = %v, want ErrPoolClosed", err)
	}
}

// fakeServer answers HELLO itself and delegates every other request to
// handle, giving redirect tests a deterministic peer. It serves the way
// the real session does — requests decoded in place (handle's frame is
// valid only during the call), replies flushed once per burst — and
// allocates nothing of its own, so allocation guards on the client can
// run against it.
type fakeServer struct {
	ln     net.Listener
	handle func(f wire.Frame) (status byte, payload []byte)
}

func startFakeServer(t *testing.T, handle func(f wire.Frame) (byte, []byte)) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &fakeServer{ln: ln, handle: handle}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(nc)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return s
}

func (s *fakeServer) serve(nc net.Conn) {
	defer nc.Close()
	br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
	for {
		if br.Buffered() < wire.HeaderLen {
			if bw.Flush() != nil {
				return
			}
		}
		size, err := wire.PeekFrameSize(br, br.Size()-4)
		if err != nil {
			return
		}
		p, err := br.Peek(size)
		if err != nil {
			return
		}
		f := wire.ParseFrame(p)
		status, payload := byte(wire.StatusOK), []byte(nil)
		if f.Kind != wire.OpHello {
			status, payload = s.handle(f)
		}
		if wire.WriteFrame(bw, f.ID, status, payload) != nil {
			return
		}
		br.Discard(size)
	}
}

func (s *fakeServer) addr() string { return s.ln.Addr().String() }

// TestPoolFollowsRedirect is the satellite client-retry test: the first
// member answers REDIRECT naming the leader, and Pool.Do must
// re-resolve and succeed without surfacing any error to the caller.
func TestPoolFollowsRedirect(t *testing.T) {
	leader := startFakeServer(t, func(f wire.Frame) (byte, []byte) {
		return wire.StatusOK, nil
	})
	var redirects int
	follower := startFakeServer(t, func(f wire.Frame) (byte, []byte) {
		redirects++
		return wire.StatusRedirect, wire.NewBuilder(32).String(leader.addr()).Bytes()
	})

	p := NewClusterPool([]string{follower.addr()}, Options{
		RequestTimeout: 2 * time.Second,
		RetryBackoff:   time.Millisecond,
	})
	defer p.Close()

	err := p.Do(func(c *Conn) error {
		_, err := c.Begin()
		return err
	})
	if err != nil {
		t.Fatalf("Do across redirect = %v, want nil", err)
	}
	if redirects == 0 {
		t.Fatal("follower never saw the request; redirect path untested")
	}
	if got := p.Target(); got != leader.addr() {
		t.Fatalf("pool target = %s after redirect, want %s", got, leader.addr())
	}
	// The pool now goes straight to the leader: no new redirects.
	before := redirects
	if err := p.Do(func(c *Conn) error { return c.Ping() }); err != nil {
		t.Fatalf("Do after re-resolve = %v", err)
	}
	if redirects != before {
		t.Fatalf("pool still consulting the follower after learning the leader")
	}
}

// TestPoolRedirectWithoutLeader: a mid-election follower redirects with
// an empty leader; the pool must rotate through members until one
// accepts, not loop on the same follower.
func TestPoolRedirectWithoutLeader(t *testing.T) {
	leader := startFakeServer(t, func(f wire.Frame) (byte, []byte) {
		return wire.StatusOK, nil
	})
	follower := startFakeServer(t, func(f wire.Frame) (byte, []byte) {
		return wire.StatusRedirect, wire.NewBuilder(8).String("").Bytes()
	})

	p := NewClusterPool([]string{follower.addr(), leader.addr()}, Options{
		RequestTimeout: 2 * time.Second,
		RetryBackoff:   time.Millisecond,
	})
	defer p.Close()

	err := p.Do(func(c *Conn) error { return c.Ping() })
	if err != nil {
		t.Fatalf("Do across leaderless redirect = %v, want nil", err)
	}
	if got := p.Target(); got != leader.addr() {
		t.Fatalf("pool target = %s, want %s", got, leader.addr())
	}
}

// TestPoolSurfacesApplicationErrors: non-routing failures must come
// back to the caller on the first attempt, not burn the retry budget.
func TestPoolSurfacesApplicationErrors(t *testing.T) {
	var calls int
	srv := startFakeServer(t, func(f wire.Frame) (byte, []byte) {
		calls++
		return wire.StatusNoTable, wire.NewBuilder(16).Blob([]byte("no such table")).Bytes()
	})
	p := NewClusterPool([]string{srv.addr()}, Options{
		RequestTimeout: 2 * time.Second,
		RetryBackoff:   time.Millisecond,
	})
	defer p.Close()

	err := p.Do(func(c *Conn) error {
		_, err := c.Read("nope", wire.RID{})
		return err
	})
	if !errors.Is(err, wire.ErrNoTable) {
		t.Fatalf("Do = %v, want ErrNoTable", err)
	}
	if calls != 1 {
		t.Fatalf("server saw %d attempts for a terminal error, want 1", calls)
	}
}

// TestDialRejectsVersionMismatch: a server on an older protocol
// revision answers HELLO with BAD_REQUEST, and Dial must fail fast
// instead of retrying a mismatch that cannot heal.
func TestDialRejectsVersionMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				f, err := wire.ReadFrame(nc, 0)
				if err != nil {
					return
				}
				msg := wire.NewBuilder(32).Blob([]byte("protocol version mismatch")).Bytes()
				wire.WriteFrame(nc, f.ID, wire.StatusBadRequest, msg)
			}()
		}
	}()
	start := time.Now()
	_, err = Dial(ln.Addr().String(), Options{RetryBackoff: 100 * time.Millisecond})
	if !errors.Is(err, wire.ErrBadRequest) {
		t.Fatalf("Dial = %v, want ErrBadRequest", err)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Fatalf("Dial retried a version mismatch (took %v)", time.Since(start))
	}
}
