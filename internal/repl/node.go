package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ipa/internal/client"
	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/metrics"
	"ipa/internal/sim"
	"ipa/internal/wal"
	"ipa/internal/wire"
)

// Role is a node's place in the cluster.
type Role int32

const (
	// RoleFollower replays the leader's stream and serves snapshot
	// reads at its applied horizon.
	RoleFollower Role = iota
	// RoleCandidate is mid-election.
	RoleCandidate
	// RoleLeader owns the log: it alone runs read-write transactions,
	// and acks COMMIT only after a quorum holds the commit record.
	RoleLeader
)

func (r Role) String() string {
	switch r {
	case RoleLeader:
		return "leader"
	case RoleCandidate:
		return "candidate"
	default:
		return "follower"
	}
}

// epoch marks the first LSN created under a leadership term. A node's
// epoch table describes its own log: termAt(lsn) is the term of the
// leadership that created the record at lsn. Followers adopt the
// leader's table along with its records; a new leader appends one
// entry at promotion. Two logs that agree on (head, termAt(head))
// agree on everything up to head — the Raft log-matching argument,
// with the table standing in for per-record term stamps.
type epoch struct {
	Term uint64   `json:"term"`
	From core.LSN `json:"from"`
}

// ErrNotLeader is returned by WaitCommitted when leadership was lost
// while waiting; the client must retry against the new leader, which
// either has the commit (it survives) or never saw it (clean retry).
var ErrNotLeader = errors.New("repl: not leader")

// Config parameterises a cluster node.
type Config struct {
	NodeID uint64            // this node's id (must be a key in Peers)
	Peers  map[uint64]string // node id → advertised address, all nodes
	DB     *engine.DB        // engine opened with Options.Replicated
	TL     *sim.Timeline

	// Bootstrap starts this node as leader of term 1 instead of as an
	// idle follower. Exactly one node per fresh cluster.
	Bootstrap bool

	HeartbeatInterval time.Duration // leader liveness cadence (default 50ms)
	ElectionTimeout   time.Duration // base; randomized to [1x, 2x) (default 300ms)

	Logf func(string, ...any) // optional
}

// Shipping limits and the commit deadline.
const (
	batchRecords = 256             // max records per REPL_APPEND
	batchBytes   = 256 << 10       // max record payload bytes per batch
	maxInflight  = 4               // shipping window, batches
	commitWait   = 5 * time.Second // quorum-ack deadline for COMMIT
)

func (c *Config) defaults() error {
	if c.DB == nil || c.TL == nil {
		return errors.New("repl: Config needs DB and TL")
	}
	if _, ok := c.Peers[c.NodeID]; !ok {
		return fmt.Errorf("repl: node %d missing from peer map", c.NodeID)
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 50 * time.Millisecond
	}
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = 300 * time.Millisecond
	}
	return nil
}

type peerAck struct {
	lsn       core.LSN
	bytes     uint64
	connected bool
}

// Node is one member of a replicated cluster. It implements the
// server.Replicator surface: leadership queries, quorum commit waits,
// and handling of the repl opcode family arriving on ordinary client
// sessions.
type Node struct {
	cfg Config
	db  *engine.DB

	// applyMu serialises everything that replays into the engine:
	// stream apply, snapshot install, and promotion. Sessions handling
	// REPL_APPEND from a reconnecting leader contend here, never in
	// the engine.
	applyMu sync.Mutex
	applier *engine.Applier
	w       *sim.Worker  // snapshot-install worker, guarded by applyMu
	recBuf  []wal.Record // handleAppend's decoded batch, guarded by applyMu

	mu          sync.Mutex
	term        uint64
	votedFor    map[uint64]uint64 // term → candidate granted our vote
	seenLeader  bool              // gates elections until first contact
	lastContact time.Time
	epochs      []epoch
	knownCommit core.LSN           // highest commit horizon seen from any leader
	voteBar     core.LSN           // while head < voteBar: abstain from elections
	acks        map[uint64]peerAck // leader: per-follower progress
	quorumBuf   []core.LSN         // recomputeCommitLocked scratch
	shippers    []*shipper         // this leadership's shippers (doorbells)
	shipStop    chan struct{}      // per-leadership shipper kill switch
	waiters     []*commitWaiter    // WaitCommitted calls parked on the slow path
	stopped     bool

	// role (a Role) and leaderID (0 = unknown) are written under mu and
	// read lock-free by IsLeader and LeaderAddr: every request of every
	// session asks, and must not queue behind shippers, acks and
	// elections to hear the answer.
	role     atomic.Int32
	leaderID atomic.Uint64

	// commit is the quorum-replicated horizon (leader). Written under
	// mu; shippers and stats read it lock-free.
	commit atomic.Uint64

	waiterPool sync.Pool // *commitWaiter

	shipWG sync.WaitGroup
	stop   chan struct{}
	wg     sync.WaitGroup

	elections      atomic.Uint64
	batchesShipped atomic.Uint64
	recordsShipped atomic.Uint64
	bytesShipped   atomic.Uint64 // REPL_APPEND payload bytes, all followers
	snapsSent      atomic.Uint64
	snapsRecv      atomic.Uint64
	shipWakeups    atomic.Uint64 // a parked shipper woke (doorbell or heartbeat timer)
	heartbeatsSent atomic.Uint64
	quorumWait     metrics.Latency // successful WaitCommitted calls
}

// NewNode wires a node over an already-open replicated engine and
// starts its election timer. A Bootstrap node assumes leadership of
// term 1 immediately; everyone else idles as a follower until a leader
// makes contact (so a cold standby never elects itself into an empty
// cluster of one).
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:      cfg,
		db:       cfg.DB,
		votedFor: make(map[uint64]uint64),
		acks:     make(map[uint64]peerAck),
		stop:     make(chan struct{}),
		w:        cfg.TL.NewWorker(),
	}
	applier, err := cfg.DB.NewApplier(cfg.TL.NewWorker())
	if err != nil {
		return nil, err
	}
	n.applier = applier
	if cfg.Bootstrap {
		n.mu.Lock()
		n.term = 1
		n.votedFor[1] = cfg.NodeID
		// Epoch from LSN 1: every record in the seed log (schema,
		// preload) belongs to the bootstrap leadership.
		n.noteEpochLocked(1, 1)
		n.becomeLeaderLocked(1)
		n.mu.Unlock()
	}
	n.wg.Add(1)
	go n.electionLoop()
	return n, nil
}

// Stop halts elections, shipping and commit waits. The engine is left
// open (the server owns its lifecycle).
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.stopShippersLocked()
	n.failWaitersLocked()
	close(n.stop)
	n.mu.Unlock()
	n.wg.Wait()
	n.shipWG.Wait()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// is reports whether the node currently has role r.
func (n *Node) is(r Role) bool { return Role(n.role.Load()) == r }

// setRoleLocked is the one place role and leaderID change.
func (n *Node) setRoleLocked(r Role, leaderID uint64) {
	n.role.Store(int32(r))
	n.leaderID.Store(leaderID)
}

// IsLeader reports whether this node currently owns the log. It takes
// no lock.
func (n *Node) IsLeader() bool { return n.is(RoleLeader) }

// LeaderAddr returns the advertised address of the last known leader,
// or "" when no leader is known (mid-election). It takes no lock: the
// peer map is fixed at construction and has no entry for id 0.
func (n *Node) LeaderAddr() string { return n.cfg.Peers[n.leaderID.Load()] }

// commitWaiter is one WaitCommitted call parked until the commit
// horizon reaches its LSN. Waiters are pooled with their channel and
// timer, so a commit allocates neither.
type commitWaiter struct {
	lsn   core.LSN
	done  chan error // buffered: the waker never blocks
	timer *time.Timer
}

// WaitCommitted blocks until the given LSN is replicated on a quorum,
// then returns nil: the commit record survives any single failure,
// because the next leader's electing majority intersects the acking
// quorum and the up-to-date vote rule picks a member that has it.
// Returns ErrNotLeader if leadership is lost first — the commit may or
// may not survive, and the client-visible error says so.
//
// The caller's records are published in the log by now, so this is
// where the shippers' doorbells are rung: a caught-up shipper is parked
// and ships the moment it is woken, and the commit costs one follower
// round trip. The ack that moves the horizon past lsn wakes exactly
// this waiter.
func (n *Node) WaitCommitted(lsn core.LSN) error {
	if len(n.cfg.Peers) <= 1 {
		return nil // single-node cluster: local durability is quorum
	}
	start := time.Now()
	n.mu.Lock()
	if !n.is(RoleLeader) || n.stopped {
		n.mu.Unlock()
		return ErrNotLeader
	}
	for _, s := range n.shippers {
		s.ring()
	}
	if core.LSN(n.commit.Load()) >= lsn {
		n.mu.Unlock()
		n.quorumWait.Add(time.Since(start))
		return nil
	}
	w, _ := n.waiterPool.Get().(*commitWaiter)
	if w == nil {
		w = &commitWaiter{done: make(chan error, 1), timer: time.NewTimer(commitWait)}
	} else {
		w.timer.Reset(commitWait)
	}
	w.lsn = lsn
	n.waiters = append(n.waiters, w)
	n.mu.Unlock()

	var err error
	select {
	case err = <-w.done:
	case <-w.timer.C:
		n.mu.Lock()
		for i, x := range n.waiters {
			if x == w {
				n.waiters = append(n.waiters[:i], n.waiters[i+1:]...)
				break
			}
		}
		n.mu.Unlock()
		// Off the list, nobody else holds w; a wake that raced the
		// timer has already left its verdict.
		select {
		case err = <-w.done:
		default:
			err = fmt.Errorf("repl: no quorum ack for lsn %d within %v", lsn, commitWait)
		}
	}
	stopTimer(w.timer)
	n.waiterPool.Put(w)
	if err == nil {
		n.quorumWait.Add(time.Since(start))
	}
	return err
}

// wakeWaitersLocked releases the waiters the commit horizon has passed.
func (n *Node) wakeWaitersLocked(commit core.LSN) {
	kept := n.waiters[:0]
	for _, w := range n.waiters {
		if w.lsn <= commit {
			w.done <- nil
		} else {
			kept = append(kept, w)
		}
	}
	clear(n.waiters[len(kept):])
	n.waiters = kept
}

// failWaitersLocked releases every waiter with ErrNotLeader: leadership
// is gone (step-down or Stop), so no ack will ever arrive for them.
func (n *Node) failWaitersLocked() {
	for _, w := range n.waiters {
		w.done <- ErrNotLeader
	}
	clear(n.waiters)
	n.waiters = n.waiters[:0]
}

// CommitLSN returns the quorum-replicated horizon (leader view).
func (n *Node) CommitLSN() core.LSN { return core.LSN(n.commit.Load()) }

// AppliedLSN returns the follower's replay horizon.
func (n *Node) AppliedLSN() core.LSN { return n.applier.AppliedLSN() }

// --- term & epoch bookkeeping ----------------------------------------

// observeTerm steps down if a higher term is seen anywhere.
func (n *Node) observeTerm(term uint64) {
	n.mu.Lock()
	n.observeTermLocked(term)
	n.mu.Unlock()
}

func (n *Node) observeTermLocked(term uint64) {
	if term <= n.term {
		return
	}
	n.term = term
	if n.is(RoleLeader) {
		n.logf("repl: node %d deposed by term %d", n.cfg.NodeID, term)
		n.stopShippersLocked()
		n.failWaitersLocked()
	}
	n.setRoleLocked(RoleFollower, 0)
}

// observeLeaderLocked processes contact from a node claiming to lead
// `term`. Assumes term >= n.term already ensured by the caller.
func (n *Node) observeLeaderLocked(term, leaderID uint64) {
	n.observeTermLocked(term)
	if term == n.term && !n.is(RoleLeader) {
		n.setRoleLocked(RoleFollower, leaderID)
		n.seenLeader = true
		n.lastContact = time.Now()
	}
}

func (n *Node) noteEpochLocked(term uint64, from core.LSN) {
	if len(n.epochs) > 0 && n.epochs[len(n.epochs)-1].Term >= term {
		return
	}
	n.epochs = append(n.epochs, epoch{Term: term, From: from})
}

// termAtLocked returns the term of the leadership that created the
// record at lsn in this node's log (0 for the empty log).
func (n *Node) termAtLocked(lsn core.LSN) uint64 {
	for i := len(n.epochs) - 1; i >= 0; i-- {
		if lsn >= n.epochs[i].From {
			return n.epochs[i].Term
		}
	}
	return 0
}

func (n *Node) termAt(lsn core.LSN) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.termAtLocked(lsn)
}

// --- leader commit & ack tracking ------------------------------------

// recomputeCommitLocked advances the quorum horizon: the highest LSN
// held by a majority (leader head counts as one member). Monotone. It
// runs on every ack, so the members' positions are insertion-sorted,
// descending, into a reused scratch slice.
func (n *Node) recomputeCommitLocked() {
	if !n.is(RoleLeader) {
		return
	}
	lsns := append(n.quorumBuf[:0], n.db.WAL().Head())
	for id := range n.cfg.Peers {
		if id == n.cfg.NodeID {
			continue
		}
		v := n.acks[id].lsn
		i := len(lsns)
		lsns = append(lsns, v)
		for ; i > 0 && lsns[i-1] < v; i-- {
			lsns[i] = lsns[i-1]
		}
		lsns[i] = v
	}
	n.quorumBuf = lsns
	if q := lsns[len(lsns)/2]; uint64(q) > n.commit.Load() {
		n.commit.Store(uint64(q))
		n.wakeWaitersLocked(q)
	}
}

// setAck records follower progress and re-derives the commit horizon
// and the log retain floor (records below every connected follower's
// ack can be truncated; a follower that reconnects from further back
// is resynced by snapshot).
func (n *Node) setAck(peerID uint64, lsn core.LSN, bytes uint64, connected bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.is(RoleLeader) {
		return
	}
	// No monotonicity clamp: a snapshot resync legitimately regresses
	// a follower's log position, and overstating it would let commits
	// ack without a real quorum.
	n.acks[peerID] = peerAck{lsn: lsn, bytes: bytes, connected: connected}
	n.recomputeCommitLocked()

	floor := core.LSN(0)
	for _, a := range n.acks {
		if !a.connected {
			continue
		}
		if floor == 0 || a.lsn+1 < floor {
			floor = a.lsn + 1
		}
	}
	n.db.WAL().SetRetainFloor(floor)
}

func (n *Node) setConnected(peerID uint64, connected bool) {
	n.mu.Lock()
	if a, ok := n.acks[peerID]; ok && a.connected != connected {
		a.connected = connected
		n.acks[peerID] = a
	}
	n.mu.Unlock()
}

// --- leadership transitions ------------------------------------------

func (n *Node) becomeLeaderLocked(term uint64) {
	n.setRoleLocked(RoleLeader, n.cfg.NodeID)
	n.seenLeader = true
	n.lastContact = time.Now()
	n.acks = make(map[uint64]peerAck)
	n.commit.Store(0)
	stop := make(chan struct{})
	n.shipStop = stop
	// The epoch table is frozen for the whole leadership (only a
	// follower adopts tables), so the shippers share one copy.
	epochs := append([]epoch(nil), n.epochs...)
	for id, addr := range n.cfg.Peers {
		if id == n.cfg.NodeID {
			continue
		}
		s := &shipper{
			n: n, term: term, peerID: id, addr: addr, epochs: epochs,
			stop: stop, bell: make(chan struct{}, 1),
		}
		n.shippers = append(n.shippers, s)
		n.shipWG.Add(1)
		go s.run()
	}
	n.recomputeCommitLocked()
}

func (n *Node) stopShippersLocked() {
	if n.shipStop != nil {
		close(n.shipStop)
		n.shipStop = nil
	}
	n.shippers = nil
	n.db.WAL().SetRetainFloor(0)
}

// electionLoop watches for leader silence and runs campaigns. A node
// that has never heard from any leader stays quiet: fresh followers
// wait to be adopted rather than electing themselves.
func (n *Node) electionLoop() {
	defer n.wg.Done()
	rng := rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(n.cfg.NodeID*0x9e3779b9)))
	timeout := n.cfg.ElectionTimeout + time.Duration(rng.Int63n(int64(n.cfg.ElectionTimeout)))
	tick := time.NewTicker(n.cfg.HeartbeatInterval / 2)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
		}
		n.mu.Lock()
		if n.is(RoleLeader) || !n.seenLeader || time.Since(n.lastContact) < timeout ||
			n.db.WAL().Head() < n.voteBar {
			n.mu.Unlock()
			continue
		}
		// Leader is silent: campaign.
		n.term++
		term := n.term
		n.setRoleLocked(RoleCandidate, 0)
		n.votedFor[term] = n.cfg.NodeID
		n.lastContact = time.Now()
		lastLSN := n.db.WAL().Head()
		lastTerm := n.termAtLocked(lastLSN)
		n.mu.Unlock()
		n.elections.Add(1)
		n.logf("repl: node %d campaigning for term %d (log %d@%d)",
			n.cfg.NodeID, term, lastLSN, lastTerm)

		votes := n.requestVotes(term, lastLSN, lastTerm)
		if votes*2 <= len(n.cfg.Peers) {
			n.mu.Lock()
			if n.is(RoleCandidate) && n.term == term {
				n.setRoleLocked(RoleFollower, n.leaderID.Load())
			}
			n.mu.Unlock()
			timeout = n.cfg.ElectionTimeout + time.Duration(rng.Int63n(int64(n.cfg.ElectionTimeout)))
			continue
		}
		n.promoteAndLead(term)
		timeout = n.cfg.ElectionTimeout + time.Duration(rng.Int63n(int64(n.cfg.ElectionTimeout)))
	}
}

// promoteAndLead finishes a won election: open a new epoch, roll back
// the dead leader's in-flight transactions (their abort records are
// the first entries of the new epoch — the moral equivalent of Raft's
// term-opening no-op), then start shipping. applyMu is held across
// promotion so no stale stream records interleave with the rollback.
func (n *Node) promoteAndLead(term uint64) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	n.mu.Lock()
	if n.term != term || !n.is(RoleCandidate) {
		n.mu.Unlock()
		return
	}
	n.noteEpochLocked(term, n.db.WAL().Head()+1)
	n.mu.Unlock()

	err := n.applier.Promote()

	n.mu.Lock()
	defer n.mu.Unlock()
	if err != nil {
		n.logf("repl: node %d promote failed: %v", n.cfg.NodeID, err)
		n.setRoleLocked(RoleFollower, n.leaderID.Load())
		return
	}
	if n.term != term || n.stopped {
		n.setRoleLocked(RoleFollower, n.leaderID.Load())
		return
	}
	n.becomeLeaderLocked(term)
	n.logf("repl: node %d elected leader for term %d", n.cfg.NodeID, term)
}

// requestVotes campaigns against every peer in parallel and returns
// the number of grants including our own vote.
func (n *Node) requestVotes(term uint64, lastLSN core.LSN, lastTerm uint64) int {
	req := voteReq{Term: term, Candidate: n.cfg.NodeID, LastLSN: lastLSN, LastTerm: lastTerm}.encode()
	opts := client.Options{DialTimeout: n.cfg.ElectionTimeout / 2, RequestTimeout: n.cfg.ElectionTimeout}
	results := make(chan bool, len(n.cfg.Peers))
	asked := 0
	for id, addr := range n.cfg.Peers {
		if id == n.cfg.NodeID {
			continue
		}
		asked++
		go func(addr string) {
			granted := false
			if c, err := client.Dial(addr, opts); err == nil {
				if f, err := c.Do(wire.OpVoteReq, req); err == nil {
					if vr, err := decodeVoteResp(f.Payload); err == nil {
						if vr.Term > term {
							n.observeTerm(vr.Term)
						}
						granted = vr.Granted && vr.Term == term
					}
				}
				c.Close()
			}
			results <- granted
		}(addr)
	}
	votes := 1
	deadline := time.After(n.cfg.ElectionTimeout)
	for i := 0; i < asked; i++ {
		select {
		case g := <-results:
			if g {
				votes++
			}
		case <-deadline:
			return votes
		case <-n.stop:
			return votes
		}
		if votes*2 > len(n.cfg.Peers) {
			return votes
		}
	}
	return votes
}

// --- inbound frames ---------------------------------------------------

// HandleFrame processes one repl-family request arriving on a server
// session and returns (status, response payload). It implements the
// server.Replicator interface. The payload is the session's read
// buffer and belongs to the node only until HandleFrame returns:
// handlers decode, apply and install before they return, and what the
// engine keeps it copies itself (decoded records alias the payload; see
// decodeRecord). The acks of REPL_APPEND and REPL_SNAPSHOT are encoded
// into out, the session's reply buffer, so a stream of batches
// allocates no reply.
func (n *Node) HandleFrame(kind byte, payload []byte, out *wire.Builder) (byte, []byte) {
	switch kind {
	case wire.OpReplHello:
		return n.handleHello(payload)
	case wire.OpReplAppend:
		return n.handleAppend(payload, out)
	case wire.OpReplSnap:
		return n.handleSnap(payload, out)
	case wire.OpVoteReq:
		return n.handleVote(payload)
	default:
		return failResp(wire.StatusBadRequest, fmt.Errorf("repl: unexpected opcode %d", kind))
	}
}

func (n *Node) handleHello(payload []byte) (byte, []byte) {
	h, err := decodeHelloReq(payload)
	if err != nil {
		return failResp(wire.StatusBadRequest, err)
	}
	n.mu.Lock()
	if h.Term >= n.term {
		n.observeLeaderLocked(h.Term, h.NodeID)
	}
	head := n.db.WAL().Head()
	resp := helloResp{
		Term:          n.term,
		Head:          head,
		LastTerm:      n.termAtLocked(head),
		AppendedBytes: n.db.WAL().AppendedBytes(),
	}
	n.mu.Unlock()
	return wire.StatusOK, resp.encode()
}

func (n *Node) ackNow(term uint64, needSnap bool) ack {
	return ack{
		Term:          term,
		Head:          n.db.WAL().Head(),
		AppendedBytes: n.db.WAL().AppendedBytes(),
		NeedSnap:      needSnap,
	}
}

func (n *Node) handleAppend(payload []byte, out *wire.Builder) (byte, []byte) {
	r := wire.NewReader(payload)
	var ebuf [4]epoch
	term, leaderID, commit, epochs, first, count, err := decodeAppendHeader(r, ebuf[:0])
	if err != nil {
		return failResp(wire.StatusBadRequest, err)
	}
	n.mu.Lock()
	if term < n.term || (term == n.term && n.is(RoleLeader)) {
		// Stale leader: tell it the real term so it steps down.
		cur := n.term
		n.mu.Unlock()
		return wire.StatusOK, n.ackNow(cur, false).encode(out)
	}
	n.observeLeaderLocked(term, leaderID)
	// Adopt the leader's epoch table with its records: our log is (a
	// prefix of) the leader's, so its table describes ours.
	n.epochs = append(n.epochs[:0], epochs...)
	if commit > n.knownCommit {
		n.knownCommit = commit
	}
	n.mu.Unlock()

	needSnap := false
	if count > 0 {
		// The batch is decoded into a buffer that applyMu guards, so a
		// stream allocates it once, not per batch.
		n.applyMu.Lock()
		recs := n.recBuf[:0]
		for lsn := first; count > 0; count, lsn = count-1, lsn+1 {
			rec, derr := decodeRecord(r, lsn)
			if derr != nil {
				n.applyMu.Unlock()
				return failResp(wire.StatusBadRequest, derr)
			}
			recs = append(recs, rec)
		}
		aerr := n.applier.Apply(recs)
		clear(recs) // the records alias the frame; let it go
		n.recBuf = recs
		n.applyMu.Unlock()
		if aerr != nil {
			n.logf("repl: node %d apply failed at head %d: %v",
				n.cfg.NodeID, n.db.WAL().Head(), aerr)
			needSnap = true
		}
	}
	return wire.StatusOK, n.ackNow(term, needSnap).encode(out)
}

func (n *Node) handleSnap(payload []byte, out *wire.Builder) (byte, []byte) {
	term, leaderID, epochs, image, err := decodeSnap(payload)
	if err != nil {
		return failResp(wire.StatusBadRequest, err)
	}
	n.mu.Lock()
	if term < n.term || (term == n.term && n.is(RoleLeader)) {
		cur := n.term
		n.mu.Unlock()
		return wire.StatusOK, n.ackNow(cur, false).encode(out)
	}
	n.observeLeaderLocked(term, leaderID)
	n.mu.Unlock()

	var snap engine.ReplicaSnapshot
	if err := json.Unmarshal(image, &snap); err != nil {
		return failResp(wire.StatusBadRequest, fmt.Errorf("repl: bad snapshot image: %v", err))
	}
	n.applyMu.Lock()
	err = n.db.InstallSnapshot(n.w, &snap)
	if err == nil {
		n.applier.Resync()
		n.mu.Lock()
		n.epochs = append(n.epochs[:0], epochs...)
		// A snapshot that splices our log below an LSN we know was
		// quorum-committed makes our vote temporarily dangerous: until
		// the stream restores the committed prefix, we might help
		// elect a candidate that lacks acked commits. Abstain until
		// our head regrows past the bar (milliseconds, normally: the
		// leader that sent the snapshot streams the suffix next).
		if snap.PrimeLSN < n.knownCommit && n.knownCommit > n.voteBar {
			n.voteBar = n.knownCommit
		}
		n.mu.Unlock()
		n.snapsRecv.Add(1)
		n.logf("repl: node %d installed snapshot at lsn %d (%d pages)",
			n.cfg.NodeID, snap.PrimeLSN, len(snap.Pages))
	}
	n.applyMu.Unlock()
	if err != nil {
		return failResp(wire.StatusInternal, err)
	}
	return wire.StatusOK, n.ackNow(term, false).encode(out)
}

func (n *Node) handleVote(payload []byte) (byte, []byte) {
	v, err := decodeVoteReq(payload)
	if err != nil {
		return failResp(wire.StatusBadRequest, err)
	}
	n.mu.Lock()
	n.observeTermLocked(v.Term)
	granted := false
	myLast := n.db.WAL().Head()
	if v.Term == n.term && !n.is(RoleLeader) && myLast >= n.voteBar {
		prev, voted := n.votedFor[v.Term]
		myLastTerm := n.termAtLocked(myLast)
		upToDate := v.LastTerm > myLastTerm ||
			(v.LastTerm == myLastTerm && v.LastLSN >= myLast)
		if (!voted || prev == v.Candidate) && upToDate {
			n.votedFor[v.Term] = v.Candidate
			granted = true
			// A granted vote counts as cluster contact: restart the
			// election timer and let this node campaign later if the
			// candidate also dies.
			n.lastContact = time.Now()
			n.seenLeader = true
		}
	}
	resp := voteResp{Term: n.term, Granted: granted}
	n.mu.Unlock()
	return wire.StatusOK, resp.encode()
}

// --- stats ------------------------------------------------------------

// PeerStats is one follower's replication progress as the leader sees
// it.
type PeerStats struct {
	Addr       string `json:"addr"`
	Connected  bool   `json:"connected"`
	AckedLSN   uint64 `json:"acked_lsn"`
	LagRecords uint64 `json:"lag_records"`
	// LagBytes is byte-exact for followers that streamed from LSN 1;
	// a snapshot-joined follower's byte counter restarts at 0, so its
	// lag reads high until the next leadership change.
	LagBytes uint64 `json:"lag_bytes"`
}

// Stats is the node's replication snapshot for /stats.
type Stats struct {
	NodeID      uint64 `json:"node_id"`
	Role        string `json:"role"`
	Term        uint64 `json:"term"`
	LeaderID    uint64 `json:"leader_id"`
	LeaderAddr  string `json:"leader_addr"`
	HeadLSN     uint64 `json:"head_lsn"`
	CommitLSN   uint64 `json:"commit_lsn"`
	AppliedLSN  uint64 `json:"applied_lsn"`
	Elections   uint64 `json:"elections"`
	BatchesSent uint64 `json:"batches_sent"`
	RecordsSent uint64 `json:"records_sent"`
	// BytesShipped sums the REPL_APPEND payloads sent to all followers,
	// heartbeats included.
	BytesShipped  uint64 `json:"bytes_shipped"`
	SnapshotsSent uint64 `json:"snapshots_sent"`
	SnapshotsRecv uint64 `json:"snapshots_received"`
	// QuorumWait is the time successful WaitCommitted calls spent (the
	// commit's quorum round trip). ShipWakeups counts parked shippers
	// waking, by doorbell or heartbeat timer; on an idle leader it grows
	// in step with HeartbeatsSent — there is no other timer.
	QuorumWait     metrics.LatencySnapshot `json:"quorum_wait"`
	ShipWakeups    uint64                  `json:"ship_wakeups"`
	HeartbeatsSent uint64                  `json:"heartbeats_sent"`
	Peers          map[string]PeerStats    `json:"peers,omitempty"`
}

// StatsDoc implements server.Replicator.
func (n *Node) StatsDoc() any { return n.Stats() }

// Stats snapshots the node's replication state.
func (n *Node) Stats() Stats {
	head := n.db.WAL().Head()
	headBytes := n.db.WAL().AppendedBytes()
	n.mu.Lock()
	defer n.mu.Unlock()
	s := Stats{
		NodeID:        n.cfg.NodeID,
		Role:          Role(n.role.Load()).String(),
		Term:          n.term,
		LeaderID:      n.leaderID.Load(),
		LeaderAddr:    n.LeaderAddr(),
		HeadLSN:       uint64(head),
		CommitLSN:     n.commit.Load(),
		AppliedLSN:    uint64(n.applier.AppliedLSN()),
		Elections:     n.elections.Load(),
		BatchesSent:   n.batchesShipped.Load(),
		RecordsSent:   n.recordsShipped.Load(),
		BytesShipped:  n.bytesShipped.Load(),
		SnapshotsSent: n.snapsSent.Load(),
		SnapshotsRecv: n.snapsRecv.Load(),

		QuorumWait:     n.quorumWait.Snapshot(),
		ShipWakeups:    n.shipWakeups.Load(),
		HeartbeatsSent: n.heartbeatsSent.Load(),
	}
	if n.is(RoleLeader) && len(n.acks) > 0 {
		s.Peers = make(map[string]PeerStats, len(n.acks))
		for id, a := range n.acks {
			ps := PeerStats{
				Addr:      n.cfg.Peers[id],
				Connected: a.connected,
				AckedLSN:  uint64(a.lsn),
			}
			if head > a.lsn {
				ps.LagRecords = uint64(head - a.lsn)
			}
			if headBytes > a.bytes {
				ps.LagBytes = headBytes - a.bytes
			}
			s.Peers[fmt.Sprintf("node-%d", id)] = ps
		}
	}
	return s
}
