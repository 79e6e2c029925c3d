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
//	for _, p := range ps { _, err := p.Wait(); ... } // each Pending is waited once
//
// The server executes a connection's requests serially in order, and a
// failed op poisons its transaction so the pipelined COMMIT aborts —
// the burst is safe even when a middle op fails.
//
// A reply payload (Wait's Frame.Payload) is a fresh buffer the caller
// owns, and the decoders alias it (Read's tuple, ScanEntry.Data,
// wire.Reader.Blob): what must be kept without the rest of its reply is
// copied explicitly (bytes.Clone).
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
	RetryBackoff   time.Duration // first backoff, doubled per attempt (default 5ms)
}

// maxAttempts bounds Dial's attempts and a request's tries on transient
// (StatusBusy) rejections. Responses are read up to wire.MaxFrame.
const maxAttempts = 3

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
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
	enc   wire.Builder // scratch: the request payload being encoded
	dirty atomic.Bool  // unflushed frames in bw; set and cleared under wmu

	nextTx atomic.Uint64 // transaction handles

	pmu     sync.Mutex
	nextID  uint64     // request ids: sequential, so in-flight ids are a window
	pending []*Pending // the in-flight requests, a ring indexed by id; len is a power of two
	readErr error      // terminal receive-path error; connection is dead
	done    chan struct{}
}

// Dial connects to an IPA server, making up to maxAttempts attempts.
// The first frame on every connection is a HELLO carrying
// wire.ProtoVersion; a server speaking a different protocol revision
// rejects it with BAD_REQUEST, which Dial surfaces immediately (a
// version mismatch will not heal on retry).
func Dial(addr string, opts Options) (*Conn, error) {
	opts = opts.withDefaults()
	var lastErr error
	backoff := opts.RetryBackoff
	for attempt := 0; attempt < maxAttempts; attempt++ {
		nc, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
		if err == nil {
			c := &Conn{
				opts:    opts,
				addr:    addr,
				conn:    nc,
				bw:      bufio.NewWriterSize(nc, 32<<10),
				pending: make([]*Pending, 16),
				done:    make(chan struct{}),
			}
			go c.readLoop()
			if _, err := c.send(wire.OpHello, []byte{wire.ProtoVersion}, nil).Wait(); err != nil {
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

// slot is where the pending ring keeps request id. Caller holds pmu.
func (c *Conn) slot(id uint64) **Pending {
	return &c.pending[id&uint64(len(c.pending)-1)]
}

// register gives p the next request id and enters it in the pending
// ring, doubling the ring until p's slot is free: ids in flight are
// distinct and span a window no wider than their count, so a ring at
// least that wide holds them without collision. On a dead connection it
// reports false and p fails at once instead.
func (c *Conn) register(p *Pending) bool {
	c.pmu.Lock()
	c.nextID++
	p.c, p.id, p.lost = c, c.nextID, c.readErr != nil
	if p.lost {
		c.pmu.Unlock()
		p.ch <- wire.Frame{}
		return false
	}
	for *c.slot(p.id) != nil {
		old := c.pending
		c.pending = make([]*Pending, 2*len(old))
		for _, q := range old {
			if q != nil {
				*c.slot(q.id) = q
			}
		}
	}
	*c.slot(p.id) = p
	c.pmu.Unlock()
	return true
}

// readLoop hands each response to the Pending waiting for its request
// id. It is the connection's only receive path.
func (c *Conn) readLoop() {
	defer close(c.done)
	br := bufio.NewReaderSize(c.conn, 32<<10)
	for {
		f, err := wire.ReadFrame(br, wire.MaxFrame)
		c.pmu.Lock()
		if err != nil {
			c.readErr = fmt.Errorf("client: connection lost: %w", err)
			for i, p := range c.pending {
				if p != nil {
					c.pending[i] = nil
					p.lost = true
					p.ch <- wire.Frame{}
				}
			}
			c.pmu.Unlock()
			return
		}
		// The wake happens under pmu, so a Wait that times out finds
		// its request either still in the ring or already answered. A
		// response nobody waits for any more (it timed out) is dropped.
		if s := c.slot(f.ID); *s != nil && (*s).id == f.ID {
			p := *s
			*s = nil
			p.ch <- f // one slot, one wake per registration: never blocks
		}
		c.pmu.Unlock()
	}
}

// Pending is an in-flight request. Wait resolves it — once: when Wait
// returns, the Pending goes back to a pool and is reused by a later
// request, so a second Wait (or any other use of the pointer) is a bug
// that can steal another request's response.
type Pending struct {
	c    *Conn
	id   uint64
	ch   chan wire.Frame // the wake: one slot, reused across requests
	lost bool            // woken by connection loss, not a response; set before the wake
}

// pendings recycles Pendings, each with its channel.
var pendings = sync.Pool{New: func() any { return &Pending{ch: make(chan wire.Frame, 1)} }}

// send enqueues one request frame without flushing. The payload is
// given (the raw requests of the replication layer) or, with enc, is
// encoded by it into the connection's scratch builder under the write
// lock, so a typed request costs no allocation. The flush happens in
// Wait (or the next synchronous call), so bursts of Async sends
// coalesce into few syscalls.
func (c *Conn) send(kind byte, payload []byte, enc func(*wire.Builder)) *Pending {
	p := pendings.Get().(*Pending)
	if !c.register(p) {
		return p
	}
	c.wmu.Lock()
	if enc != nil {
		enc(c.enc.Reset())
		payload = c.enc.Bytes()
	}
	if err := wire.WriteFrame(c.bw, p.id, kind, payload); err != nil {
		// A send-path failure is terminal: closing the conn makes
		// readLoop fail this and every other pending request.
		c.conn.Close()
	} else {
		c.dirty.Store(true)
	}
	c.wmu.Unlock()
	return p
}

// flush puts the frames sent so far on the wire. A clear dirty flag
// means some flush that began after the caller's send has the lock (or
// is done), so the caller's frames are covered without taking it.
func (c *Conn) flush() {
	if !c.dirty.Load() {
		return
	}
	c.wmu.Lock()
	if c.dirty.Load() {
		c.dirty.Store(false)
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
// loss, and may be called once (see Pending). On an error status it
// returns a *wire.StatusError that unwraps to the matching sentinel. A
// response that has already arrived — the usual case for all but the
// first Wait of a pipelined burst — is taken without arming a timer.
func (p *Pending) Wait() (wire.Frame, error) {
	c := p.c
	c.flush()
	var f wire.Frame
	select {
	case f = <-p.ch:
	default:
		timer := armTimer(c.opts.RequestTimeout)
		select {
		case f = <-p.ch:
			releaseTimer(timer)
		case <-timer.C:
			releaseTimer(timer)
			c.pmu.Lock()
			s := c.slot(p.id)
			timedOut := *s == p
			if timedOut {
				*s = nil // readLoop will drop the late response
			}
			c.pmu.Unlock()
			if timedOut {
				pendings.Put(p)
				return wire.Frame{}, ErrTimeout
			}
			f = <-p.ch // the wake beat the timeout to pmu: it is in the channel
		}
	}
	f, err := p.resolve(f)
	pendings.Put(p)
	return f, err
}

// resolve maps a received response (or the wake of a lost connection)
// to Wait's result.
func (p *Pending) resolve(f wire.Frame) (wire.Frame, error) {
	if p.lost {
		p.c.pmu.Lock()
		err := p.c.readErr
		p.c.pmu.Unlock()
		return wire.Frame{}, err
	}
	if f.Kind == wire.StatusRedirect {
		// A follower declining a leader-only op; the payload names
		// the leader ("" mid-election). The cluster Pool consumes
		// this to re-resolve before callers ever see it.
		return f, &wire.RedirectError{Leader: wire.NewReader(f.Payload).String()}
	}
	if f.Kind != wire.StatusOK {
		return f, &wire.StatusError{Code: f.Kind, Message: string(wire.NewReader(f.Payload).Blob())}
	}
	return f, nil
}

// Do sends one raw request synchronously with the transient-retry
// policy. The replication layer uses it to carry opcodes the typed
// wrappers don't cover.
func (c *Conn) Do(kind byte, payload []byte) (wire.Frame, error) {
	return c.do(kind, payload, nil)
}

// DoAsync enqueues one raw request and returns its Pending without
// flushing, so repl batches coalesce like pipelined transactions.
func (c *Conn) DoAsync(kind byte, payload []byte) *Pending {
	return c.send(kind, payload, nil)
}

// do sends one request (see send) synchronously, retrying transient
// (StatusBusy) rejections with exponential backoff up to maxAttempts
// tries. Busy rejections happen before the op executes, so the retry
// is always safe.
func (c *Conn) do(kind byte, payload []byte, enc func(*wire.Builder)) (wire.Frame, error) {
	backoff := c.opts.RetryBackoff
	var f wire.Frame
	var err error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		f, err = c.send(kind, payload, enc).Wait()
		if err == nil || !wire.IsTransient(err) {
			return f, err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	return f, err
}
