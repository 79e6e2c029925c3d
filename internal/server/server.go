// Package server exposes an engine.DB over TCP using the wire protocol.
//
// Each accepted connection becomes a session that owns one sim.Worker
// and executes its requests serially, in arrival order, so a client can
// pipeline an entire transaction (BEGIN, a batch of updates, COMMIT) in
// one write and rely on the ops landing in sequence. Responses carry
// the request id of the frame they answer, so the client correlates
// them without waiting between requests.
//
// Backpressure is a global in-flight semaphore: a request that cannot
// get a slot within the admission timeout is answered StatusBusy (the
// only transient, client-retryable status). Ops addressing a
// transaction already open on their session are exempt — the
// transaction was admitted at BEGIN, and rejecting one op of a
// pipelined BEGIN..COMMIT burst would half-apply it. Graceful shutdown stops
// accepting, lets every session finish the requests it has already read
// off the wire, aborts transactions left open by disconnected or
// drained clients, and then closes the database so the WAL ends with a
// clean checkpoint.
package server

import (
	"errors"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/metrics"
	"ipa/internal/sim"
	"ipa/internal/wire"
)

// Replicator is the server's view of the replication layer
// (internal/repl implements it). When configured, sessions route the
// repl opcode family to HandleFrame, refuse read-write transactions on
// non-leaders with StatusRedirect, and hold COMMIT responses until the
// commit record is quorum-replicated.
type Replicator interface {
	IsLeader() bool
	LeaderAddr() string // "" when no leader is known
	WaitCommitted(lsn core.LSN) error
	// HandleFrame may build resp in out, the session's reply buffer,
	// which stays the session's: it is valid until the next request.
	HandleFrame(kind byte, payload []byte, out *wire.Builder) (status byte, resp []byte)
	StatsDoc() any
}

// Config parameterises a Server. Zero values select the defaults noted
// on each field.
type Config struct {
	DB       *engine.DB    // required
	Timeline *sim.Timeline // optional; sessions run with nil workers without it
	Repl     Replicator    // optional; nil runs a standalone server

	MaxInflight    int           // global in-flight request cap (default 256)
	AcquireTimeout time.Duration // admission wait before StatusBusy (default 2s)
	ReadTimeout    time.Duration // limit on a frame's arrival and on idling between bursts (default 2m)

	Logf func(format string, args ...any) // optional diagnostics sink
}

// writeTimeout is the deadline of one response flush.
const writeTimeout = 30 * time.Second

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.AcquireTimeout <= 0 {
		c.AcquireTimeout = 2 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 2 * time.Minute
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Counters is the server-side half of the stats document.
type Counters struct {
	ConnsAccepted  uint64 `json:"conns_accepted"`
	ConnsActive    int64  `json:"conns_active"`
	Requests       uint64 `json:"requests"`
	BusyRejected   uint64 `json:"busy_rejected"`
	OrphansAborted uint64 `json:"orphans_aborted"`
	// PoisonedAborts counts transactions the server aborted because an
	// earlier pipelined op failed (the engine tallies these as explicit
	// aborts; this counter attributes them to poisoning specifically).
	PoisonedAborts uint64 `json:"poisoned_aborts"`
	Draining       bool   `json:"draining"`
}

// StatsDocument is what the admin endpoint and the STATS op serve:
// engine counters plus per-op wall-clock latency histograms.
type StatsDocument struct {
	Engine engine.Stats                       `json:"engine"`
	Ops    map[string]metrics.LatencySnapshot `json:"ops"`
	Server Counters                           `json:"server"`
	Repl   any                                `json:"repl,omitempty"`
}

// Server accepts wire-protocol connections and maps them onto a DB.
type Server struct {
	cfg      Config
	db       *engine.DB
	inflight chan struct{}
	draining atomic.Bool
	maxFrame int // request and response size limit: wire.MaxFrame

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	sessWG   sync.WaitGroup

	// opLat holds per-op service times, indexed by opcode; slot 0 takes
	// every opcode the protocol does not define.
	opLat [wire.NumOps]metrics.Latency

	adminMu  sync.Mutex
	adminSrv *http.Server

	connsAccepted  atomic.Uint64
	connsActive    atomic.Int64
	requests       atomic.Uint64
	busyRejected   atomic.Uint64
	orphansAborted atomic.Uint64
	poisonedAborts atomic.Uint64
}

// New builds a server around an open database.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		db:       cfg.DB,
		inflight: make(chan struct{}, cfg.MaxInflight),
		maxFrame: wire.MaxFrame,
		sessions: make(map[*session]struct{}),
	}, nil
}

// Serve accepts connections on ln until Shutdown closes it. It returns
// nil when the listener closes because of a shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		s.connsAccepted.Add(1)
		s.startSession(conn)
	}
}

// Addr returns the serving listener's address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) startSession(conn net.Conn) {
	sess := newSession(s, conn)
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.sessions[sess] = struct{}{}
	s.sessWG.Add(1)
	s.mu.Unlock()
	s.connsActive.Add(1)
	go sess.run()
}

func (s *Server) removeSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
	s.connsActive.Add(-1)
	s.sessWG.Done()
}

// Shutdown drains the server: it stops accepting, lets every session
// finish the requests it has already read (forcing connections closed
// if they exceed timeout), aborts orphaned transactions, stops the
// admin listener, and finally closes the database. Safe to call more
// than once; later calls just close the database again (idempotent).
func (s *Server) Shutdown(timeout time.Duration) error {
	s.draining.Store(true)

	s.mu.Lock()
	ln := s.ln
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, sess := range sessions {
		sess.startDrain()
	}

	done := make(chan struct{})
	go func() {
		s.sessWG.Wait()
		close(done)
	}()
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		select {
		case <-done:
			timer.Stop()
		case <-timer.C:
			s.cfg.Logf("server: drain timed out after %v, forcing connections closed", timeout)
			s.mu.Lock()
			for sess := range s.sessions {
				sess.conn.Close()
			}
			s.mu.Unlock()
			<-done
		}
	} else {
		<-done
	}

	s.closeAdmin()
	return s.db.Close()
}

// observe records one request's wall-clock service time under its
// opcode.
func (s *Server) observe(op byte, d time.Duration) {
	if op >= wire.NumOps {
		op = 0
	}
	s.opLat[op].Add(d)
}

// StatsDocument snapshots engine stats, per-op latency histograms and
// server counters. It fails with engine.ErrClosed once the database is
// closed.
func (s *Server) StatsDocument() (StatsDocument, error) {
	es, err := s.db.Stats()
	if err != nil {
		return StatsDocument{}, err
	}
	ops := make(map[string]metrics.LatencySnapshot)
	for op := range s.opLat {
		if snap := s.opLat[op].Snapshot(); snap.Count > 0 {
			ops[wire.OpName(byte(op))] = snap
		}
	}
	doc := StatsDocument{
		Engine: es,
		Ops:    ops,
		Server: Counters{
			ConnsAccepted:  s.connsAccepted.Load(),
			ConnsActive:    s.connsActive.Load(),
			Requests:       s.requests.Load(),
			BusyRejected:   s.busyRejected.Load(),
			OrphansAborted: s.orphansAborted.Load(),
			PoisonedAborts: s.poisonedAborts.Load(),
			Draining:       s.draining.Load(),
		},
	}
	if s.cfg.Repl != nil {
		doc.Repl = s.cfg.Repl.StatsDoc()
	}
	return doc, nil
}

// Kill force-stops the server: it closes the listener and every live
// connection without draining queued requests, aborting orphans, or
// closing the database. This is the failover tests' stand-in for a
// crashed process — the engine is simply abandoned mid-flight, exactly
// as a power cut would leave it.
func (s *Server) Kill() {
	s.draining.Store(true)
	s.mu.Lock()
	ln := s.ln
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, sess := range sessions {
		sess.conn.Close()
	}
	s.closeAdmin()
	done := make(chan struct{})
	go func() {
		s.sessWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		s.cfg.Logf("server: kill: sessions still draining after 5s")
	}
}
