package client

import (
	"errors"
	"sync"
	"time"

	"ipa/internal/wire"
)

// ErrPoolClosed is returned by Get after Close.
var ErrPoolClosed = errors.New("client: pool is closed")

// Pool hands out connections to a server — or, with NewClusterPool, to
// whichever member of a replicated cluster currently leads. It reuses
// healthy idle connections to the current target, dials (with the
// Options' bounded retry) when none are available, and re-resolves the
// leader when a member answers REDIRECT or stops answering at all.
// Callers Get a connection, use it — possibly for many pipelined
// requests — and Put it back; cluster callers use Do, which hides the
// redirect/retry dance entirely.
type Pool struct {
	addrs []string
	opts  Options

	mu     sync.Mutex
	target int // index into addrs of the presumed leader
	idle   []*Conn
	closed bool
}

// NewClusterPool creates a pool over every member of a cluster, or over
// one server's address. The first address is the initial leader guess;
// REDIRECT responses and dial failures steer the pool to the real one.
// No connections are dialed until Get.
func NewClusterPool(addrs []string, opts Options) *Pool {
	if len(addrs) == 0 {
		panic("client: NewClusterPool with no addresses")
	}
	return &Pool{addrs: append([]string(nil), addrs...), opts: opts.withDefaults()}
}

// Target returns the address the pool currently believes is the leader.
func (p *Pool) Target() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addrs[p.target]
}

// Redirect points the pool at addr (learned from a REDIRECT response).
// Unknown addresses join the member list, so a cluster can grow beyond
// the seeds the pool was created with.
func (p *Pool) Redirect(addr string) {
	if addr == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, a := range p.addrs {
		if a == addr {
			p.target = i
			return
		}
	}
	p.addrs = append(p.addrs, addr)
	p.target = len(p.addrs) - 1
}

// advance rotates to the next member, for when the current target is
// unreachable and no REDIRECT named a replacement.
func (p *Pool) advance() {
	p.mu.Lock()
	p.target = (p.target + 1) % len(p.addrs)
	p.mu.Unlock()
}

// Get returns an idle connection to the current target or dials a new
// one. It fails with ErrPoolClosed after Close (a dialed connection the
// pool never saw again would leak).
func (p *Pool) Get() (*Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	addr := p.addrs[p.target]
	for len(p.idle) > 0 {
		c := p.idle[len(p.idle)-1]
		p.idle = p.idle[:len(p.idle)-1]
		if c.Healthy() && c.Addr() == addr {
			p.mu.Unlock()
			return c, nil
		}
		// Broken, or dialed to a deposed leader: either way, retire it.
		c.Close()
	}
	p.mu.Unlock()
	return Dial(addr, p.opts)
}

// Put returns a connection to the pool; broken connections are closed
// instead of being recycled.
func (p *Pool) Put(c *Conn) {
	if c == nil {
		return
	}
	if !c.Healthy() {
		c.Close()
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// Do runs fn with a pooled connection, absorbing leader changes: a
// *wire.RedirectError re-points the pool at the named leader (or the
// next member, mid-election) and reruns fn there; a dead or draining
// member rotates to the next. Attempts back off exponentially and span
// a full election timeout, so a failover in progress resolves inside
// one Do call instead of surfacing a transient error. fn must be safe
// to rerun from scratch — redirects are issued before any op executes,
// and a connection lost mid-transaction aborts it server-side.
func (p *Pool) Do(fn func(*Conn) error) error {
	backoff := p.opts.RetryBackoff
	var lastErr error
	// Enough doubling attempts to ride out an election (~2^10 × base).
	const attempts = 10
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff < 500*time.Millisecond {
				backoff *= 2
			}
		}
		c, err := p.Get()
		if err != nil {
			if errors.Is(err, ErrPoolClosed) {
				return err
			}
			lastErr = err
			p.advance()
			continue
		}
		err = fn(c)
		if err == nil {
			p.Put(c)
			return nil
		}
		var re *wire.RedirectError
		switch {
		case errors.As(err, &re):
			p.Put(c) // the follower's connection is healthy, just wrong
			if re.Leader != "" {
				p.Redirect(re.Leader)
			} else {
				p.advance()
			}
		case !c.Healthy(), errors.Is(err, ErrTimeout), errors.Is(err, wire.ErrClosed):
			c.Close()
			p.advance()
		default:
			// Application-level failure (lock conflict, bad request, ...):
			// the caller's to handle, not a routing problem.
			p.Put(c)
			return err
		}
		lastErr = err
	}
	return lastErr
}

// Close closes every idle connection; connections currently checked
// out are the caller's to close.
func (p *Pool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}
