// Package client is the Go client for the IPA network service: a
// multiplexed connection that pipelines requests (many in flight on one
// connection, correlated by request id), typed wrappers for every
// protocol op, per-request timeouts, bounded retry on transient
// backpressure, and a small connection pool.
//
// The synchronous methods (Begin, Update, ...) each cost a round trip.
// The Async variants return a Pending the caller resolves later, so a
// whole transaction can be written in one burst:
//
//	tx := c.NewTxID()
//	ps := []*client.Pending{
//		c.BeginAsync(tx),
//		c.UpdateFieldAsync(tx, "acct", rid, 8, delta),
//		c.CommitAsync(tx),
//	}
//	for _, p := range ps { _, err := p.Wait(); ... }
//
// The server executes a connection's requests serially in order, and a
// failed op poisons its transaction so the pipelined COMMIT aborts —
// the burst is safe even when a middle op fails.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ipa/internal/wire"
)

// Options parameterises Dial. Zero values select the noted defaults.
type Options struct {
	DialTimeout    time.Duration // default 5s
	RequestTimeout time.Duration // per-request Wait deadline (default 30s)
	MaxFrame       int           // response size limit (default wire.MaxFrame)
	MaxRetries     int           // bounded retry on transient errors (default 3)
	RetryBackoff   time.Duration // first backoff, doubled per attempt (default 5ms)
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = wire.MaxFrame
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	return o
}

// ErrTimeout is returned by Wait when the response does not arrive
// within the request timeout. The connection stays usable; the late
// response is discarded when it eventually arrives.
var ErrTimeout = errors.New("client: request timed out")

// Conn is a multiplexed connection to an IPA server. All methods are
// safe for concurrent use.
type Conn struct {
	opts Options
	addr string
	conn net.Conn

	wmu   sync.Mutex // serialises writes and flushes
	bw    *bufio.Writer
	dirty bool // unflushed frames in bw

	nextID atomic.Uint64 // request ids
	nextTx atomic.Uint64 // transaction handles

	pmu     sync.Mutex
	pending map[uint64]chan wire.Frame
	readErr error // terminal receive-path error; connection is dead
	done    chan struct{}
}

// Dial connects to an IPA server, retrying transient dial failures up
// to MaxRetries times. The first frame on every connection is a HELLO
// carrying wire.ProtoVersion; a server speaking a different protocol
// revision rejects it with BAD_REQUEST, which Dial surfaces immediately
// (a version mismatch will not heal on retry).
func Dial(addr string, opts Options) (*Conn, error) {
	opts = opts.withDefaults()
	var lastErr error
	backoff := opts.RetryBackoff
	for attempt := 0; attempt < opts.MaxRetries; attempt++ {
		nc, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
		if err == nil {
			c := &Conn{
				opts:    opts,
				addr:    addr,
				conn:    nc,
				bw:      bufio.NewWriterSize(nc, 32<<10),
				pending: make(map[uint64]chan wire.Frame),
				done:    make(chan struct{}),
			}
			go c.readLoop()
			if _, err := c.send(wire.OpHello, []byte{wire.ProtoVersion}).Wait(); err != nil {
				c.Close()
				if errors.Is(err, wire.ErrBadRequest) {
					return nil, fmt.Errorf("client: dial %s: protocol version mismatch: %w", addr, err)
				}
				lastErr = err
			} else {
				return c, nil
			}
		} else {
			lastErr = err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	return nil, fmt.Errorf("client: dial %s: %w", addr, lastErr)
}

// Addr returns the address the connection was dialed to.
func (c *Conn) Addr() string { return c.addr }

// Close tears the connection down. In-flight Waits fail.
func (c *Conn) Close() error {
	err := c.conn.Close()
	<-c.done // readLoop observed the close and failed all pending
	return err
}

// Healthy reports whether the connection can still carry requests.
func (c *Conn) Healthy() bool {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.readErr == nil
}

// NewTxID allocates a connection-unique transaction handle.
func (c *Conn) NewTxID() uint64 { return c.nextTx.Add(1) }

// readLoop dispatches responses to their waiting Pending by request id.
func (c *Conn) readLoop() {
	defer close(c.done)
	br := bufio.NewReaderSize(c.conn, 32<<10)
	for {
		f, err := wire.ReadFrame(br, c.opts.MaxFrame)
		if err != nil {
			c.pmu.Lock()
			c.readErr = fmt.Errorf("client: connection lost: %w", err)
			for id, ch := range c.pending {
				delete(c.pending, id)
				close(ch)
			}
			c.pmu.Unlock()
			return
		}
		c.pmu.Lock()
		ch, ok := c.pending[f.ID]
		if ok {
			delete(c.pending, f.ID)
		}
		c.pmu.Unlock()
		if ok {
			ch <- f // buffered; never blocks
		}
	}
}

// Pending is an in-flight request. Wait resolves it.
type Pending struct {
	c  *Conn
	id uint64
	ch chan wire.Frame
}

// send enqueues one request frame without flushing. The flush happens
// in Wait (or the next synchronous call), so bursts of Async sends
// coalesce into few syscalls.
func (c *Conn) send(kind byte, payload []byte) *Pending {
	id := c.nextID.Add(1)
	ch := make(chan wire.Frame, 1)
	c.pmu.Lock()
	if err := c.readErr; err != nil {
		c.pmu.Unlock()
		close(ch)
		return &Pending{c: c, id: id, ch: ch}
	}
	c.pending[id] = ch
	c.pmu.Unlock()

	c.wmu.Lock()
	if err := wire.WriteFrame(c.bw, id, kind, payload); err != nil {
		// A send-path failure is terminal: closing the conn makes
		// readLoop fail this and every other pending request.
		c.conn.Close()
	} else {
		c.dirty = true
	}
	c.wmu.Unlock()
	return &Pending{c: c, id: id, ch: ch}
}

func (c *Conn) flush() {
	c.wmu.Lock()
	if c.dirty {
		c.dirty = false
		if err := c.bw.Flush(); err != nil {
			c.conn.Close()
		}
	}
	c.wmu.Unlock()
}

// waitTimers recycles the deadline timers of Wait: a caller that waits
// all day (a closed-loop terminal, the replication shipper) arms the
// same few timers over and over instead of allocating one per request.
// Pooled timers are stopped and drained.
var waitTimers sync.Pool

func armTimer(d time.Duration) *time.Timer {
	if t, _ := waitTimers.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func releaseTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	waitTimers.Put(t)
}

// Wait blocks for the response, the request timeout, or connection
// loss. On an error status it returns a *wire.StatusError that unwraps
// to the matching sentinel. A response that has already arrived — the
// usual case for all but the first Wait of a pipelined burst — is taken
// without arming a timer.
func (p *Pending) Wait() (wire.Frame, error) {
	p.c.flush()
	select {
	case f, ok := <-p.ch:
		return p.resolve(f, ok)
	default:
	}
	timer := armTimer(p.c.opts.RequestTimeout)
	defer releaseTimer(timer)
	select {
	case f, ok := <-p.ch:
		return p.resolve(f, ok)
	case <-timer.C:
		p.c.pmu.Lock()
		delete(p.c.pending, p.id)
		p.c.pmu.Unlock()
		return wire.Frame{}, ErrTimeout
	}
}

// resolve maps a received response (or the closed channel of a lost
// connection) to Wait's result.
func (p *Pending) resolve(f wire.Frame, ok bool) (wire.Frame, error) {
	if !ok {
		p.c.pmu.Lock()
		err := p.c.readErr
		p.c.pmu.Unlock()
		if err == nil {
			err = errors.New("client: connection closed")
		}
		return wire.Frame{}, err
	}
	if f.Kind == wire.StatusRedirect {
		// A follower declining a leader-only op; the payload names
		// the leader ("" mid-election). The cluster Pool consumes
		// this to re-resolve before callers ever see it.
		return f, &wire.RedirectError{Leader: wire.NewReader(f.Payload).String()}
	}
	if f.Kind != wire.StatusOK {
		msg := wire.NewReader(f.Payload).Blob()
		return f, &wire.StatusError{Code: f.Kind, Message: string(msg)}
	}
	return f, nil
}

// do sends one request synchronously, retrying transient (StatusBusy)
// rejections with exponential backoff up to MaxRetries attempts. Busy
// rejections happen before the op executes, so the retry is always
// safe.
// Do sends one raw request synchronously with the transient-retry
// policy. The replication layer uses it to carry opcodes the typed
// wrappers don't cover.
func (c *Conn) Do(kind byte, payload []byte) (wire.Frame, error) {
	return c.do(kind, payload)
}

// DoAsync enqueues one raw request and returns its Pending without
// flushing, so repl batches coalesce like pipelined transactions.
func (c *Conn) DoAsync(kind byte, payload []byte) *Pending {
	return c.send(kind, payload)
}

func (c *Conn) do(kind byte, payload []byte) (wire.Frame, error) {
	backoff := c.opts.RetryBackoff
	var f wire.Frame
	var err error
	for attempt := 0; attempt < c.opts.MaxRetries; attempt++ {
		f, err = c.send(kind, payload).Wait()
		if err == nil || !wire.IsTransient(err) {
			return f, err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	return f, err
}
