package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/sim"
	"ipa/internal/wire"
)

// session serves one connection, run to completion on one goroutine:
// read a request, admit it, execute it, append the reply to the write
// buffer, and go on to the next request; the replies are flushed when
// the read buffer holds no further complete request, i.e. once per
// pipelined burst. Serial execution is what makes pipelined
// transactions sound: the ops of a BEGIN..COMMIT batch land in exactly
// the order the client wrote them.
//
// Payload lifetime: a request that fits the read buffer is decoded in
// place, so its payload aliases that buffer and is valid only until
// handle returns. Nothing reads the connection while a request is being
// served, which is what makes this sound; anything that must outlive
// the request (a table name entering the session's cache, a poison
// message, an installed snapshot) is copied before handle returns.
//
// Transaction lifetime: every path that ends a transaction — COMMIT
// (a snapshot's too), ABORT, a poisoned COMMIT, the orphans of finish —
// releases its engine.Tx once it has read what it needs of it (the
// commit LSN the quorum wait keys on), so the next BEGIN reuses it.
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	w    *sim.Worker

	out wire.Builder // the reply payload of the request being served; at most a scan page
	now time.Time    // when the request being served began

	// readBuf receives the tuple of a READ before it is copied into out,
	// request after request.
	readBuf []byte
	// scanBuf holds the heap page a SCAN or SNAPSCAN page is copied
	// from, scan page after scan page.
	scanBuf engine.ScanBuf

	txs    map[uint64]*engine.Tx
	poison map[uint64]string // txid → first failed op, set until COMMIT/ABORT
	tables map[string]*engine.Table
}

// readBufSize bounds the requests decoded in place; a larger frame (a
// snapshot install, a big REPL_APPEND) is read into memory of its own.
const readBufSize = 32 << 10

func newSession(s *Server, conn net.Conn) *session {
	var w *sim.Worker
	if s.cfg.Timeline != nil {
		w = s.cfg.Timeline.NewWorker()
	}
	return &session{
		srv:    s,
		conn:   conn,
		br:     bufio.NewReaderSize(conn, readBufSize),
		bw:     bufio.NewWriterSize(conn, 32<<10),
		w:      w,
		txs:    make(map[uint64]*engine.Tx),
		poison: make(map[uint64]string),
		tables: make(map[string]*engine.Table),
	}
}

// errDraining ends a session that would otherwise wait for its next
// request while the server drains.
var errDraining = errors.New("server: draining")

// startDrain unblocks a session waiting for its next request. The
// caller has set srv.draining, which pause checks after arming its own
// deadline, so whichever of the two deadlines lands last, the session
// stops waiting.
func (s *session) startDrain() {
	s.conn.SetReadDeadline(time.Now())
}

func (s *session) run() {
	defer s.finish()
	for {
		f, size, err := s.next()
		if err != nil {
			if err != io.EOF && !s.srv.draining.Load() {
				s.srv.cfg.Logf("server: read %v: %v", s.conn.RemoteAddr(), err)
			}
			return
		}
		s.handle(f)
		s.br.Discard(size) // release the in-place request (0 for a copied one)
	}
}

// next returns the next request. One that fits the read buffer is
// decoded in place: its payload aliases the buffer, and size is what to
// Discard once it is served. A larger one is read into memory of its
// own (size 0).
func (s *session) next() (wire.Frame, int, error) {
	if err := s.await(wire.HeaderLen); err != nil {
		return wire.Frame{}, 0, err
	}
	size, err := wire.PeekFrameSize(s.br, s.srv.maxFrame)
	if err != nil {
		return wire.Frame{}, 0, err
	}
	if size > s.br.Size() {
		if err := s.pause(); err != nil {
			return wire.Frame{}, 0, err
		}
		f, err := wire.ReadFrame(s.br, s.srv.maxFrame)
		s.now = time.Now()
		return f, 0, err
	}
	if err := s.await(size); err != nil {
		return wire.Frame{}, 0, err
	}
	p, _ := s.br.Peek(size)
	return wire.ParseFrame(p), size, nil
}

// await makes the next n bytes (at most the read buffer's size)
// available to Peek. If the buffer already holds them the burst goes
// on; otherwise the session pauses and reads, and the request that
// arrives starts the clock anew.
func (s *session) await(n int) error {
	if s.br.Buffered() >= n {
		return nil
	}
	if err := s.pause(); err != nil {
		return err
	}
	_, err := s.br.Peek(n)
	if err == io.EOF && s.br.Buffered() > 0 {
		err = io.ErrUnexpectedEOF // the peer hung up inside a frame
	}
	s.now = time.Now()
	return err
}

// pause is what precedes every read that can block: the buffered
// requests are all served, so their replies are flushed, and the read
// gets ReadTimeout to complete — the idle limit between bursts and the
// stall limit inside a frame. A draining session ends here instead:
// what it had buffered whole is answered, a partial frame is abandoned.
func (s *session) pause() error {
	s.flush()
	s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.ReadTimeout))
	if s.srv.draining.Load() {
		return errDraining
	}
	return nil
}

// finish aborts transactions the client left open (disconnect or
// drain), flushes and closes the connection, and unregisters.
func (s *session) finish() {
	for id, tx := range s.txs {
		delete(s.txs, id)
		if err := tx.Abort(); err == nil {
			s.srv.orphansAborted.Add(1)
			if _, poisoned := s.poison[id]; poisoned {
				s.srv.poisonedAborts.Add(1)
			}
		}
		_ = tx.Release() // refused only if the Abort failed midway; the collector takes that one
	}
	s.flush()
	s.conn.Close()
	s.srv.removeSession(s)
}

// armWrite gives the socket write that follows writeTimeout.
func (s *session) armWrite() {
	s.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
}

func (s *session) flush() {
	if s.bw.Buffered() == 0 {
		return
	}
	s.armWrite()
	if err := s.bw.Flush(); err != nil && !s.srv.draining.Load() {
		s.srv.cfg.Logf("server: write %v: %v", s.conn.RemoteAddr(), err)
	}
}

func (s *session) reply(id uint64, status byte, payload []byte) {
	if wire.HeaderLen+len(payload) > s.bw.Available() {
		s.armWrite() // this reply spills the write buffer onto the socket
	}
	// Errors surface at the next flush; execution continues so buffered
	// transactions still resolve (commit or abort) server-side.
	_ = wire.WriteFrame(s.bw, id, status, payload)
}

// handle admits one request through the global in-flight semaphore,
// executes it, responds, and records its service time: from the end of
// the request before it in the burst (or the read that brought it in)
// to its own end — one clock reading per request. Ops addressing a
// transaction already open on this session bypass admission: the
// transaction was admitted at BEGIN, and BUSY-rejecting one op of a
// pipelined BEGIN..COMMIT burst would otherwise commit the remainder —
// a half-applied transaction. With the exemption, BUSY can only answer
// ops that touch no open transaction state (BEGIN itself, reads, or
// stragglers after a rejected BEGIN, which fail StatusTxClosed).
func (s *session) handle(f wire.Frame) {
	admitted := false
	if !sysExempt(f.Kind) && !s.txExempt(f) {
		if !s.admit() {
			s.srv.busyRejected.Add(1)
			s.reply(f.ID, wire.StatusBusy, s.errPayload("server at capacity, retry"))
			s.now = time.Now()
			return
		}
		admitted = true
	}
	s.srv.requests.Add(1)
	status, payload := s.exec(f)
	if admitted {
		<-s.srv.inflight
	}
	s.reply(f.ID, status, payload)
	end := time.Now()
	s.srv.observe(f.Kind, end.Sub(s.now))
	s.now = end
}

// admit takes an in-flight slot, waiting up to AcquireTimeout for one
// only when none is free.
func (s *session) admit() bool {
	select {
	case s.srv.inflight <- struct{}{}:
		return true
	default:
	}
	timer := time.NewTimer(s.srv.cfg.AcquireTimeout)
	defer timer.Stop()
	select {
	case s.srv.inflight <- struct{}{}:
		return true
	case <-timer.C:
		return false
	}
}

// txExempt reports whether f is a tx-scoped op whose transaction is
// already open on this session (every such payload leads with the txid).
func (s *session) txExempt(f wire.Frame) bool {
	switch f.Kind {
	case wire.OpCommit, wire.OpAbort, wire.OpInsert,
		wire.OpUpdate, wire.OpUpdateField, wire.OpAddField, wire.OpDelete,
		wire.OpSnapshotRead, wire.OpSnapshotScan:
	default:
		return false
	}
	if len(f.Payload) < 8 {
		return false
	}
	_, open := s.txs[binary.BigEndian.Uint64(f.Payload[:8])]
	return open
}

// sysExempt reports whether an op bypasses admission entirely:
// handshakes and replication traffic. Starving a REPL_APPEND behind
// client load would stall the very stream that lets commits ack.
func sysExempt(kind byte) bool {
	switch kind {
	case wire.OpHello, wire.OpReplHello, wire.OpReplAppend,
		wire.OpReplSnap, wire.OpVoteReq:
		return true
	}
	return false
}

// errPayload encodes an error response body into the session's reply
// builder.
func (s *session) errPayload(msg string) []byte {
	return s.out.Reset().Blob([]byte(msg)).Bytes()
}

// fail maps an engine or decode error onto its wire status.
func (s *session) fail(err error) (byte, []byte) {
	var status byte
	switch {
	case errors.Is(err, engine.ErrClosed):
		status = wire.StatusClosed
	case errors.Is(err, engine.ErrLockConflict):
		status = wire.StatusLockConflict
	case errors.Is(err, engine.ErrTxClosed):
		status = wire.StatusTxClosed
	case errors.Is(err, engine.ErrNoTable):
		status = wire.StatusNoTable
	case errors.Is(err, engine.ErrNoTuple):
		status = wire.StatusNoTuple
	case errors.Is(err, wire.ErrBadRequest),
		errors.Is(err, engine.ErrMVCCDisabled),
		errors.Is(err, engine.ErrReadOnlyTx),
		errors.Is(err, engine.ErrNotSnapshot):
		status = wire.StatusBadRequest
	default:
		status = wire.StatusInternal
	}
	return status, s.errPayload(err.Error())
}

// table resolves a table name decoded in place: the lookup does not
// copy it, a miss copies it once into the session's cache.
func (s *session) table(name []byte) (*engine.Table, error) {
	if t, ok := s.tables[string(name)]; ok {
		return t, nil
	}
	owned := string(name)
	t, err := s.srv.db.Table(owned)
	if err != nil {
		return nil, err
	}
	s.tables[owned] = t
	return t, nil
}

// tx resolves a transaction id, reporting whether it exists and whether
// an earlier pipelined op already poisoned it.
func (s *session) tx(id uint64) (*engine.Tx, bool, bool) {
	tx, ok := s.txs[id]
	if !ok {
		return nil, false, false
	}
	_, poisoned := s.poison[id]
	return tx, true, poisoned
}

// exec runs one decoded request and returns the response status and
// payload; the payload is built in s.out and valid until the next
// request. Mutating ops that fail poison their transaction: every later
// op of that transaction answers StatusTxPoisoned without executing,
// and its COMMIT aborts instead — so a client that pipelines
// BEGIN..COMMIT blindly can never commit a half-applied transaction.
func (s *session) exec(f wire.Frame) (byte, []byte) {
	// In a cluster, only the leader runs read-write transactions and
	// latest-committed reads (a follower's heap holds applied-but-
	// uncommitted stream data that only MVCC snapshot reads may see).
	// Everything else — snapshot ops, stats, handshakes, replication —
	// is served by any node.
	if rep := s.srv.cfg.Repl; rep != nil && !rep.IsLeader() {
		switch f.Kind {
		case wire.OpBegin, wire.OpCommit, wire.OpAbort, wire.OpInsert,
			wire.OpRead, wire.OpUpdate, wire.OpUpdateField, wire.OpAddField,
			wire.OpDelete, wire.OpScan:
			return wire.StatusRedirect, s.out.Reset().String(rep.LeaderAddr()).Bytes()
		}
	}

	r := wire.NewReader(f.Payload)
	switch f.Kind {
	case wire.OpPing:
		return wire.StatusOK, nil

	case wire.OpHello:
		if len(f.Payload) != 1 {
			return wire.StatusBadRequest, s.errPayload("malformed HELLO")
		}
		if f.Payload[0] != wire.ProtoVersion {
			return wire.StatusBadRequest, s.errPayload(fmt.Sprintf(
				"protocol version mismatch: client speaks %d, server speaks %d",
				f.Payload[0], wire.ProtoVersion))
		}
		return wire.StatusOK, nil

	case wire.OpReplHello, wire.OpReplAppend, wire.OpReplSnap, wire.OpVoteReq:
		if s.srv.cfg.Repl == nil {
			return wire.StatusBadRequest, s.errPayload("replication not configured on this server")
		}
		return s.srv.cfg.Repl.HandleFrame(f.Kind, f.Payload, &s.out)

	case wire.OpBegin:
		id := r.Uint64()
		if err := r.Err(); err != nil {
			return s.fail(err)
		}
		if _, open := s.txs[id]; open {
			return wire.StatusBadRequest, s.errPayload("txid already open on this connection")
		}
		tx, err := s.srv.db.Begin(s.w)
		if err != nil {
			return s.fail(err)
		}
		s.txs[id] = tx
		return wire.StatusOK, nil

	case wire.OpCommit, wire.OpAbort:
		id := r.Uint64()
		if err := r.Err(); err != nil {
			return s.fail(err)
		}
		tx, ok, poisoned := s.tx(id)
		if !ok {
			return s.fail(engine.ErrTxClosed)
		}
		delete(s.txs, id)
		if poisoned {
			reason := s.poison[id]
			delete(s.poison, id)
			if tx.Abort() == nil {
				s.srv.poisonedAborts.Add(1)
			}
			_ = tx.Release() // as in finish
			if f.Kind == wire.OpAbort {
				return wire.StatusOK, nil
			}
			return wire.StatusTxPoisoned, s.errPayload("aborted: " + reason)
		}
		var err error
		var lsn core.LSN
		if f.Kind == wire.OpCommit {
			err = tx.Commit()
			lsn = tx.CommitLSN()
		} else {
			err = tx.Abort()
		}
		_ = tx.Release() // as in finish
		if err != nil {
			return s.fail(err)
		}
		if f.Kind == wire.OpCommit && s.srv.cfg.Repl != nil {
			// Semi-synchronous commit: the record is durable locally,
			// but the client's ack waits for a quorum so the commit
			// survives this node's death. On failure the commit MAY
			// still survive (the error says so); the safe direction,
			// since the client retries reads.
			if werr := s.srv.cfg.Repl.WaitCommitted(lsn); werr != nil {
				return wire.StatusInternal, s.errPayload(
					"commit durable locally but not quorum-acknowledged: " + werr.Error())
			}
		}
		return wire.StatusOK, nil

	case wire.OpInsert:
		id, name, data := r.Uint64(), r.StringView(), r.Blob()
		if err := r.Err(); err != nil {
			return s.fail(err)
		}
		tx, ok, poisoned := s.tx(id)
		if !ok {
			return s.fail(engine.ErrTxClosed)
		}
		if poisoned {
			return wire.StatusTxPoisoned, s.errPayload(s.poison[id])
		}
		tbl, err := s.table(name)
		if err != nil {
			return s.poisonTx(id, err)
		}
		rid, err := tbl.Insert(tx, data)
		if err != nil {
			return s.poisonTx(id, err)
		}
		return wire.StatusOK, s.out.Reset().RID(netRID(rid)).Bytes()

	case wire.OpRead:
		name, rid := r.StringView(), r.RID()
		if err := r.Err(); err != nil {
			return s.fail(err)
		}
		tbl, err := s.table(name)
		if err != nil {
			return s.fail(err)
		}
		data, err := tbl.AppendTuple(s.w, coreRID(rid), s.readBuf[:0])
		if err != nil {
			return s.fail(err)
		}
		s.readBuf = data
		return wire.StatusOK, s.out.Reset().Blob(data).Bytes()

	case wire.OpUpdate:
		id, name, rid, data := r.Uint64(), r.StringView(), r.RID(), r.Blob()
		if err := r.Err(); err != nil {
			return s.fail(err)
		}
		return s.mutate(id, name, func(tx *engine.Tx, tbl *engine.Table) error {
			return tbl.Update(tx, coreRID(rid), data)
		})

	case wire.OpUpdateField:
		id, name, rid := r.Uint64(), r.StringView(), r.RID()
		off, val := r.Uint32(), r.Blob()
		if err := r.Err(); err != nil {
			return s.fail(err)
		}
		return s.mutate(id, name, func(tx *engine.Tx, tbl *engine.Table) error {
			return tbl.UpdateField(tx, coreRID(rid), int(off), val)
		})

	case wire.OpAddField:
		id, name, rid := r.Uint64(), r.StringView(), r.RID()
		off, delta := r.Uint32(), r.Uint64()
		if err := r.Err(); err != nil {
			return s.fail(err)
		}
		return s.mutate(id, name, func(tx *engine.Tx, tbl *engine.Table) error {
			return tbl.AddField(tx, coreRID(rid), int(off), delta)
		})

	case wire.OpDelete:
		id, name, rid := r.Uint64(), r.StringView(), r.RID()
		if err := r.Err(); err != nil {
			return s.fail(err)
		}
		return s.mutate(id, name, func(tx *engine.Tx, tbl *engine.Table) error {
			return tbl.Delete(tx, coreRID(rid))
		})

	case wire.OpScan:
		name, after, want := r.StringView(), r.RID(), r.Uint32()
		if err := r.End(); err != nil {
			return s.fail(err)
		}
		tbl, err := s.table(name)
		if err != nil {
			return s.fail(err)
		}
		return s.scan(tbl, nil, after, want)

	case wire.OpBeginSnapshot:
		id := r.Uint64()
		if err := r.Err(); err != nil {
			return s.fail(err)
		}
		if _, open := s.txs[id]; open {
			return wire.StatusBadRequest, s.errPayload("txid already open on this connection")
		}
		tx, err := s.srv.db.BeginSnapshot(s.w)
		if err != nil {
			return s.fail(err)
		}
		s.txs[id] = tx
		return wire.StatusOK, s.out.Reset().Uint64(uint64(tx.SnapshotLSN())).Bytes()

	case wire.OpSnapshotRead:
		id, name, rid := r.Uint64(), r.StringView(), r.RID()
		if err := r.Err(); err != nil {
			return s.fail(err)
		}
		tx, ok, poisoned := s.tx(id)
		if !ok {
			return s.fail(engine.ErrTxClosed)
		}
		if poisoned {
			return wire.StatusTxPoisoned, s.errPayload(s.poison[id])
		}
		tbl, err := s.table(name)
		if err != nil {
			return s.fail(err)
		}
		// Snapshot reads never poison: a miss (ErrNoTuple) or decode slip
		// leaves the snapshot transaction usable, because reads mutate
		// nothing and cannot half-apply.
		data, err := tbl.ReadSnapshot(tx, coreRID(rid))
		if err != nil {
			return s.fail(err)
		}
		return wire.StatusOK, s.out.Reset().Blob(data).Bytes()

	case wire.OpSnapshotScan:
		id, name, after, want := r.Uint64(), r.StringView(), r.RID(), r.Uint32()
		if err := r.End(); err != nil {
			return s.fail(err)
		}
		tx, ok, poisoned := s.tx(id)
		if !ok {
			return s.fail(engine.ErrTxClosed)
		}
		if poisoned {
			return wire.StatusTxPoisoned, s.errPayload(s.poison[id])
		}
		tbl, err := s.table(name)
		if err != nil {
			return s.fail(err)
		}
		return s.scan(tbl, tx, after, want)

	case wire.OpStats:
		doc, err := s.srv.StatsDocument()
		if err != nil {
			return s.fail(err)
		}
		raw, err := json.Marshal(doc)
		if err != nil {
			return s.fail(err)
		}
		// A builder of its own: the document is larger than a scan
		// page, and the session's stays within one.
		return wire.StatusOK, wire.NewBuilder(4 + len(raw)).Blob(raw).Bytes()

	default:
		return wire.StatusBadRequest, s.errPayload("unknown opcode")
	}
}

// scanTrailer is the most a scan page's trailer takes: the more byte
// and the next RID.
const scanTrailer = 1 + 10

// scan answers SCAN (snap nil: latest committed) and SNAPSCAN (as of
// snap's pinned LSN) with one page, laid out as the wire package
// describes: the rows strictly after after, at most want of them (0:
// no limit) and as many as fit the page budget, then the more flag and
// the RID to resume after. The budget is the read buffer's size, or the
// frame limit if that is lower, so the reply buffer never outgrows one
// page whatever the table's size.
func (s *session) scan(tbl *engine.Table, snap *engine.Tx, after wire.RID, want uint32) (byte, []byte) {
	budget := min(readBufSize, s.srv.maxFrame-(wire.HeaderLen-4))
	b := s.out.Reset()
	if cap(b.Bytes()) < budget {
		*b = *wire.NewBuilder(budget)
	}
	b.Uint32(0) // the count, set below
	var count uint32
	var last core.RID
	full := false
	visit := func(rid core.RID, tuple []byte) bool {
		if b.Len()+10+4+len(tuple)+scanTrailer > budget {
			full = true
			return false
		}
		b.RID(netRID(rid)).Blob(tuple)
		count, last = count+1, rid
		return count != want
	}
	var err error
	if snap != nil {
		err = tbl.ScanSnapshot(snap, coreRID(after), &s.scanBuf, visit)
	} else {
		err = tbl.ScanAfter(s.w, coreRID(after), &s.scanBuf, visit)
	}
	if err != nil {
		return s.fail(err)
	}
	if full && count == 0 {
		return wire.StatusBadRequest, s.errPayload(fmt.Sprintf(
			"a row does not fit a %d-byte scan page under the %d-byte frame limit",
			budget, s.srv.maxFrame))
	}
	b.SetUint32(0, count)
	if full || (want > 0 && count == want) {
		return wire.StatusOK, b.Byte(1).RID(netRID(last)).Bytes()
	}
	return wire.StatusOK, b.Byte(0).Bytes()
}

// mutate runs one tx-scoped write op with the shared poison checks.
func (s *session) mutate(id uint64, name []byte, op func(*engine.Tx, *engine.Table) error) (byte, []byte) {
	tx, ok, poisoned := s.tx(id)
	if !ok {
		return s.fail(engine.ErrTxClosed)
	}
	if poisoned {
		return wire.StatusTxPoisoned, s.errPayload(s.poison[id])
	}
	tbl, err := s.table(name)
	if err != nil {
		return s.poisonTx(id, err)
	}
	if err := op(tx, tbl); err != nil {
		return s.poisonTx(id, err)
	}
	return wire.StatusOK, nil
}

// poisonTx records the first failure of a transaction's op and returns
// that op's own status (the poison surfaces on later ops and COMMIT).
func (s *session) poisonTx(id uint64, err error) (byte, []byte) {
	if _, ok := s.poison[id]; !ok {
		s.poison[id] = err.Error()
	}
	return s.fail(err)
}

func netRID(r core.RID) wire.RID  { return wire.RID{Page: uint64(r.Page), Slot: r.Slot} }
func coreRID(r wire.RID) core.RID { return core.RID{Page: core.PageID(r.Page), Slot: r.Slot} }
