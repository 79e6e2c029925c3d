package repl

import (
	"encoding/json"
	"errors"
	"time"

	"ipa/internal/client"
	"ipa/internal/core"
	"ipa/internal/sim"
	"ipa/internal/wal"
	"ipa/internal/wire"
)

// The shipping side of replication. The LEADER dials each follower and
// pushes batches read from its own log's contiguously-published
// horizon; the follower never pulls. A bounded window of batches is
// kept in flight per follower so shipping overlaps the follower's
// replay without letting a slow follower absorb unbounded leader
// memory.
//
// A shipper that has shipped everything parks on its doorbell — one
// buffered token — and on the heartbeat timer, the only timer it has.
// The protocol has no lost wakeup: a committer publishes its records
// first and rings second (WaitCommitted), the shipper reads the log
// first and parks second. Either the read saw the records, or the ring
// came after the read began and its token is in the channel when the
// shipper parks (or was taken by an earlier park, whose following read
// is later still). A ring that finds the token already there is dropped
// safely for the same reason: that token's consumer has yet to read.

// sleepOr sleeps for d, returning false early if stop closes.
func sleepOr(stop chan struct{}, d time.Duration) bool {
	select {
	case <-stop:
		return false
	case <-time.After(d):
		return true
	}
}

// stopTimer leaves t stopped with an empty channel, ready for Reset.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// shipper owns one follower for one leadership.
type shipper struct {
	n      *Node
	term   uint64
	peerID uint64
	addr   string
	epochs []epoch // the leadership's epoch table, frozen
	stop   chan struct{}
	bell   chan struct{} // doorbell: at most one pending token

	enc    *wire.Builder // REPL_APPEND payload, reused across batches
	window []inflightBatch
}

// ring wakes the shipper if it is parked, or makes its next park return
// at once. Never blocks.
func (s *shipper) ring() {
	select {
	case s.bell <- struct{}{}:
	default:
	}
}

func (n *Node) shipClientOpts() client.Options {
	return client.Options{DialTimeout: n.cfg.HeartbeatInterval * 4, RequestTimeout: commitWait}
}

// run dials, streams and re-dials on error, until deposed or stopped.
func (s *shipper) run() {
	n := s.n
	defer n.shipWG.Done()
	w := n.cfg.TL.NewWorker()
	s.enc = wire.NewBuilder(4 << 10)
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		c, err := client.Dial(s.addr, n.shipClientOpts())
		if err != nil {
			n.setConnected(s.peerID, false)
			if !sleepOr(s.stop, n.cfg.HeartbeatInterval) {
				return
			}
			continue
		}
		s.stream(c, w)
		c.Close()
		n.setConnected(s.peerID, false)
		if !sleepOr(s.stop, n.cfg.HeartbeatInterval/2) {
			return
		}
	}
}

type inflightBatch struct {
	p     *client.Pending
	last  core.LSN
	count int
}

// beginBatch starts a REPL_APPEND payload in s.enc — header and a zero
// record count, which as it stands is a heartbeat — and returns where
// the count sits.
func (s *shipper) beginBatch(first core.LSN) (countAt int) {
	b := s.enc.Reset()
	encodeAppendHeader(b, s.term, s.n.cfg.NodeID, s.n.CommitLSN(), s.epochs, first)
	countAt = b.Len()
	b.Uint32(0)
	return countAt
}

// encodeBatch packs up to maxRecords records (maxBytes of payload) from
// cursor on into s.enc, straight from the log's slots, and returns how
// many it packed.
func (s *shipper) encodeBatch(cursor core.LSN, maxRecords, maxBytes int) (int, error) {
	countAt := s.beginBatch(cursor)
	count, err := s.n.db.WAL().ReadFrom(cursor, maxRecords, maxBytes,
		func(r wal.Record) { encodeRecord(s.enc, r) })
	s.enc.SetUint32(countAt, uint32(count))
	return count, err
}

// send puts the payload in s.enc on the wire as a REPL_APPEND.
func (s *shipper) send(c *client.Conn) *client.Pending {
	s.n.bytesShipped.Add(uint64(s.enc.Len()))
	return c.DoAsync(wire.OpReplAppend, s.enc.Bytes())
}

// drain waits out the batches still in flight; their acks are for a
// cursor the stream has abandoned.
func (s *shipper) drain() {
	for _, b := range s.window {
		b.p.Wait()
	}
	clear(s.window)
	s.window = s.window[:0]
}

// stream runs one connection. It returns on any error (run re-dials),
// on step-down, or on stop — the stop channel closes on both.
func (s *shipper) stream(c *client.Conn, w *sim.Worker) {
	n := s.n
	log := n.db.WAL()

	// Handshake: learn the follower's position and verify its log is a
	// prefix of ours (same term at its head). A longer log or a term
	// mismatch means a divergent suffix from a dead leadership — the
	// whole point of the check — and is repaired by snapshot.
	f, err := c.Do(wire.OpReplHello, helloReq{NodeID: n.cfg.NodeID, Term: s.term}.encode())
	if err != nil {
		return
	}
	h, err := decodeHelloResp(f.Payload)
	if err != nil {
		return
	}
	if h.Term > s.term {
		n.observeTerm(h.Term)
		return
	}
	cursor := h.Head + 1
	if h.Head > log.Head() || (h.Head > 0 && n.termAt(h.Head) != h.LastTerm) {
		n.logf("repl: node %d diverges at %d (term %d vs ours %d), resyncing",
			s.peerID, h.Head, h.LastTerm, n.termAt(h.Head))
		if !s.sendSnapshot(c, w, &cursor) {
			return
		}
	} else {
		n.setAck(s.peerID, h.Head, h.AppendedBytes, true)
	}

	s.window = s.window[:0]
	hb := time.NewTimer(n.cfg.HeartbeatInterval)
	defer hb.Stop()
	stopTimer(hb)
	lastSend := time.Now()
	for {
		select {
		case <-s.stop:
			return
		default:
		}

		// Fill the window from the published horizon.
		for len(s.window) < maxInflight {
			count, rerr := s.encodeBatch(cursor, batchRecords, batchBytes)
			if errors.Is(rerr, wal.ErrTruncated) {
				// The follower fell behind the truncated tail. Drain
				// the window, then resync by snapshot.
				s.drain()
				if !s.sendSnapshot(c, w, &cursor) {
					return
				}
				continue
			}
			if rerr != nil {
				n.logf("repl: read from %d: %v", cursor, rerr)
				return
			}
			if count == 0 {
				break // caught up
			}
			cursor += core.LSN(count)
			s.window = append(s.window, inflightBatch{
				p:     s.send(c),
				last:  cursor - 1,
				count: count,
			})
			lastSend = time.Now()
		}

		if len(s.window) == 0 {
			// Caught up. Heartbeat when the interval has passed, to
			// assert leadership and refresh the follower's election
			// timer; otherwise park until the doorbell or that moment.
			idle := time.Since(lastSend)
			if idle >= n.cfg.HeartbeatInterval {
				s.beginBatch(cursor)
				n.heartbeatsSent.Add(1)
				hf, herr := s.send(c).Wait()
				if herr != nil {
					return
				}
				if !s.handleAck(c, w, &cursor, hf.Payload, 0) {
					return
				}
				lastSend = time.Now()
				continue
			}
			hb.Reset(n.cfg.HeartbeatInterval - idle)
			select {
			case <-s.stop:
				return
			case <-s.bell:
				stopTimer(hb)
			case <-hb.C:
			}
			n.shipWakeups.Add(1)
			continue
		}

		b := s.window[0]
		s.window = append(s.window[:0], s.window[1:]...)
		af, werr := b.p.Wait()
		if werr != nil {
			return
		}
		if !s.handleAck(c, w, &cursor, af.Payload, b.count) {
			return
		}
		// handleAck may have restarted the stream via snapshot; any
		// batches still in flight are for the dead cursor — drain and
		// drop them, the next fill re-reads from the new cursor.
		if len(s.window) > 0 && cursor <= s.window[0].last {
			s.drain()
		}
	}
}

// handleAck processes one REPL_APPEND response. Returns false when the
// connection (or leadership) is done.
func (s *shipper) handleAck(c *client.Conn, w *sim.Worker, cursor *core.LSN, payload []byte, count int) bool {
	n := s.n
	a, err := decodeAck(payload)
	if err != nil {
		return false
	}
	if a.Term > s.term {
		n.observeTerm(a.Term)
		return false
	}
	if a.NeedSnap {
		return s.sendSnapshot(c, w, cursor)
	}
	n.setAck(s.peerID, a.Head, a.AppendedBytes, true)
	if count > 0 {
		n.batchesShipped.Add(1)
		n.recordsShipped.Add(uint64(count))
	}
	return true
}

// sendSnapshot captures a stop-the-world engine image and installs it
// on the follower, restarting the stream at PrimeLSN+1.
func (s *shipper) sendSnapshot(c *client.Conn, w *sim.Worker, cursor *core.LSN) bool {
	n := s.n
	snap, err := n.db.CaptureSnapshot(w)
	if err != nil {
		n.logf("repl: snapshot capture: %v", err)
		return false
	}
	img, err := json.Marshal(snap)
	if err != nil {
		n.logf("repl: snapshot marshal: %v", err)
		return false
	}
	f, err := c.Do(wire.OpReplSnap, encodeSnap(s.term, n.cfg.NodeID, s.epochs, img))
	if err != nil {
		n.logf("repl: snapshot send to node %d: %v", s.peerID, err)
		return false
	}
	a, err := decodeAck(f.Payload)
	if err != nil {
		return false
	}
	if a.Term > s.term {
		n.observeTerm(a.Term)
		return false
	}
	if a.NeedSnap || a.Head != snap.PrimeLSN {
		n.logf("repl: node %d snapshot install landed at %d, want %d", s.peerID, a.Head, snap.PrimeLSN)
		return false
	}
	*cursor = snap.PrimeLSN + 1
	n.setAck(s.peerID, a.Head, a.AppendedBytes, true)
	n.snapsSent.Add(1)
	n.logf("repl: node %d resynced by snapshot at lsn %d (%d pages)",
		s.peerID, snap.PrimeLSN, len(snap.Pages))
	return true
}
