package server_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/server"
	"ipa/internal/sim"
	"ipa/internal/wire"
)

// countingConn counts the Write calls a session makes on its socket.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

// rawServer serves db behind a listener that counts server-side socket
// writes, and returns a raw TCP connection to it: the session tests
// choose the bytes and the segment boundaries themselves.
func rawServer(tb testing.TB, db *engine.DB, tl *sim.Timeline, cfg server.Config) (*server.Server, net.Conn, *atomic.Int64) {
	tb.Helper()
	cfg.DB, cfg.Timeline = db, tl
	srv, err := server.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	writes := new(atomic.Int64)
	go srv.Serve(countingListener{ln, writes})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	return srv, conn, writes
}

// burst is a sequence of request frames to put on the wire at once.
type burst struct {
	buf    bytes.Buffer
	nextID uint64
}

func (b *burst) add(kind byte, payload []byte) *burst {
	b.nextID++
	if err := wire.WriteFrame(&b.buf, b.nextID, kind, payload); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	return b
}

func txPayload(tx uint64) []byte { return wire.NewBuilder(8).Uint64(tx).Bytes() }

func addFieldPayload(tx uint64, table string, rid wire.RID, off uint32, delta uint64) []byte {
	return wire.NewBuilder(64).Uint64(tx).String(table).RID(rid).Uint32(off).Uint64(delta).Bytes()
}

func insertPayload(tx uint64, table string, data []byte) []byte {
	return wire.NewBuilder(64 + len(data)).Uint64(tx).String(table).Blob(data).Bytes()
}

func readPayload(table string, rid wire.RID) []byte {
	return wire.NewBuilder(64).String(table).RID(rid).Bytes()
}

// commitBurst is the TPC-B commit burst: BEGIN, three balance deltas,
// the history insert, COMMIT — six frames.
func commitBurst(tx uint64, rows [3]wire.RID, delta uint64) *burst {
	b := new(burst)
	b.add(wire.OpBegin, txPayload(tx))
	for _, rid := range rows {
		b.add(wire.OpAddField, addFieldPayload(tx, "acct", rid, 8, delta))
	}
	b.add(wire.OpInsert, insertPayload(tx, "hist", make([]byte, 28)))
	b.add(wire.OpCommit, txPayload(tx))
	return b
}

// readReplies reads n responses and requires them to answer request
// ids first, first+1, ... in order, all with StatusOK.
func readReplies(br *bufio.Reader, first uint64, n int) ([]wire.Frame, error) {
	out := make([]wire.Frame, 0, n)
	for i := 0; i < n; i++ {
		f, err := wire.ReadFrame(br, 0)
		if err != nil {
			return nil, fmt.Errorf("response %d of %d: %w", i+1, n, err)
		}
		if f.ID != first+uint64(i) {
			return nil, fmt.Errorf("response %d answers request %d, want %d: out of order", i+1, f.ID, first+uint64(i))
		}
		if f.Kind != wire.StatusOK {
			return nil, fmt.Errorf("request %d: status %d: %s", f.ID, f.Kind, wire.NewReader(f.Payload).Blob())
		}
		out = append(out, f)
	}
	return out, nil
}

func expectReplies(t *testing.T, br *bufio.Reader, first uint64, n int) []wire.Frame {
	t.Helper()
	out, err := readReplies(br, first, n)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// acctStack is a database with three 16-byte account rows (the balance
// at offset 8) and an empty history table.
func acctStack(tb testing.TB) (*engine.DB, *sim.Timeline, *engine.Table, [3]core.RID, [3]wire.RID) {
	tb.Helper()
	db, tl := newStack(tb)
	acct, err := db.CreateTable("acct", "data")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := db.CreateTable("hist", "data"); err != nil {
		tb.Fatal(err)
	}
	tx, err := db.Begin(nil)
	if err != nil {
		tb.Fatal(err)
	}
	var erids [3]core.RID
	var rids [3]wire.RID
	for i := range erids {
		if erids[i], err = acct.Insert(tx, make([]byte, 16)); err != nil {
			tb.Fatal(err)
		}
		rids[i] = wire.RID{Page: uint64(erids[i].Page), Slot: erids[i].Slot}
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	return db, tl, acct, erids, rids
}

// A pipelined burst is served run to completion: six frames that arrive
// together are answered by exactly one socket write, and a burst cut in
// two mid-frame still executes whole and in order.
func TestBurstOneFlush(t *testing.T) {
	db, tl, acct, erids, rids := acctStack(t)
	srv, conn, writes := rawServer(t, db, tl, server.Config{})
	defer srv.Shutdown(5 * time.Second)
	br := bufio.NewReader(conn)

	one := commitBurst(1, rids, 5)
	if _, err := conn.Write(one.buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	expectReplies(t, br, 1, 6)
	if n := writes.Load(); n != 1 {
		t.Errorf("a six-frame burst was answered by %d socket writes, want 1", n)
	}

	// The cut falls inside the third frame: the session executes the two
	// whole frames, waits for the rest, and carries on.
	two := commitBurst(2, rids, 7).buf.Bytes()
	cut := len(txPayload(0)) + wire.HeaderLen + 2*(wire.HeaderLen+len(addFieldPayload(0, "acct", rids[0], 8, 0))) - 20
	if _, err := conn.Write(two[:cut]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := conn.Write(two[cut:]); err != nil {
		t.Fatal(err)
	}
	expectReplies(t, br, 1, 6)

	for i, rid := range erids {
		row, err := acct.Read(nil, rid)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(row[8:]); got != 12 {
			t.Errorf("account %d balance = %d after both bursts, want 12", i, got)
		}
	}
}

// Requests are decoded in place in the session's read buffer, so
// nothing may keep a payload past its request. A row is inserted and
// then followed, in the same burst, by enough frames to slide the read
// buffer over the bytes the row arrived in — one of them larger than
// the whole buffer, which takes the copying path. The row must read
// back byte-identical from the page, and again after a crash from the
// log.
func TestInPlacePayloadIsNotRetained(t *testing.T) {
	db, tl := newStack(t)
	tbl, err := db.CreateTable("rows", "data")
	if err != nil {
		t.Fatal(err)
	}
	srv, conn, _ := rawServer(t, db, tl, server.Config{})
	br := bufio.NewReader(conn)

	row := make([]byte, 600)
	for i := range row {
		row[i] = byte(i*7 + 3)
	}
	b := new(burst)
	b.add(wire.OpBegin, txPayload(1))
	b.add(wire.OpInsert, insertPayload(1, "rows", row))
	junk := bytes.Repeat([]byte{0xEE}, 2<<10)
	for i := 0; i < 20; i++ { // 40 KiB: more than the 32 KiB read buffer
		b.add(wire.OpPing, junk)
	}
	b.add(wire.OpPing, bytes.Repeat([]byte{0xDD}, 40<<10)) // larger than the buffer
	b.add(wire.OpInsert, insertPayload(1, "rows", junk[:600]))
	b.add(wire.OpCommit, txPayload(1))

	// The server answers while the burst is still being written.
	var replies []wire.Frame
	readErr := make(chan error, 1)
	go func() {
		var err error
		replies, err = readReplies(br, 1, int(b.nextID))
		readErr <- err
	}()
	if _, err := conn.Write(b.buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := <-readErr; err != nil {
		t.Fatal(err)
	}
	rid := wire.NewReader(replies[1].Payload).RID()

	read := new(burst)
	read.nextID = b.nextID
	read.add(wire.OpRead, readPayload("rows", rid))
	if _, err := conn.Write(read.buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	got := wire.NewReader(expectReplies(t, br, b.nextID+1, 1)[0].Payload).Blob()
	if !bytes.Equal(got, row) {
		t.Fatal("the inserted row was changed by the frames that followed it in the burst")
	}

	// The page above, the log below: drop the pool and replay.
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Recover(nil); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	got, err = tbl.Read(nil, core.RID{Page: core.PageID(rid.Page), Slot: rid.Slot})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, row) {
		t.Fatal("the row replayed from the log differs: the log kept bytes of the read buffer")
	}
}

// Shutdown answers the requests a session already holds whole, abandons
// a frame it holds half of, and aborts the transaction left open.
func TestDrainServesBufferedRequests(t *testing.T) {
	db, tl, acct, erids, rids := acctStack(t)
	srv, conn, _ := rawServer(t, db, tl, server.Config{MaxInflight: 1, AcquireTimeout: 10 * time.Second})
	br := bufio.NewReader(conn)

	// An open transaction with an applied update, before the drain.
	open := new(burst)
	open.add(wire.OpBegin, txPayload(9))
	open.add(wire.OpAddField, addFieldPayload(9, "acct", rids[0], 8, 1000))
	if _, err := conn.Write(open.buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	expectReplies(t, br, 1, 2)

	// Three pings and half a fourth arrive together. With the only slot
	// taken the session parks in admission on the first, holding the
	// rest in its read buffer, and the drain begins.
	release := srv.OccupySlot()
	rest := new(burst)
	rest.nextID = open.nextID
	rest.add(wire.OpPing, nil).add(wire.OpPing, nil).add(wire.OpPing, nil).add(wire.OpPing, nil)
	if _, err := conn.Write(rest.buf.Bytes()[:rest.buf.Len()-6]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	shutdown := make(chan error, 1)
	go func() { shutdown <- srv.Shutdown(10 * time.Second) }()
	for {
		doc, err := srv.StatsDocument()
		if err != nil {
			t.Fatal(err)
		}
		if doc.Server.Draining {
			break
		}
		time.Sleep(time.Millisecond)
	}
	release()

	expectReplies(t, br, 3, 3)
	if f, err := wire.ReadFrame(br, 0); err != io.EOF {
		t.Fatalf("after the buffered requests: frame %+v, err %v; want the connection closed", f, err)
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Recover(nil); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	row, err := acct.Read(nil, erids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(row[8:]); got != 0 {
		t.Errorf("balance = %d: the transaction left open at the drain was not aborted", got)
	}
}

// closedWithin reports how long the server took to close conn, failing
// the test if it is still open after limit.
func closedWithin(t *testing.T, conn net.Conn, limit time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	conn.SetReadDeadline(start.Add(limit))
	_, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %v", limit)
	}
	if err == nil {
		t.Fatal("unexpected bytes from the server")
	}
	return time.Since(start)
}

// The read deadline is armed once per burst, before the read that can
// block, and must still bound both a frame that stalls half-sent and a
// connection that goes quiet — while a connection that keeps talking
// stays open well past the limit.
func TestReadTimeoutStallAndIdle(t *testing.T) {
	const limit = 200 * time.Millisecond
	db, tl := newStack(t)
	cfg := server.Config{ReadTimeout: limit}
	srv, stalled, _ := rawServer(t, db, tl, cfg)
	defer srv.Shutdown(5 * time.Second)

	ping := new(burst).add(wire.OpPing, nil).buf.Bytes()
	if _, err := stalled.Write(ping[:7]); err != nil {
		t.Fatal(err)
	}
	if d := closedWithin(t, stalled, 10*limit); d < limit/2 {
		t.Errorf("half a frame was dropped after %v, long before the %v limit", d, limit)
	}

	talker, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer talker.Close()
	br := bufio.NewReader(talker)
	for i := 0; i < 10; i++ { // 10 × 50 ms: 2.5 limits of conversation
		if _, err := talker.Write(ping); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		if _, err := wire.ReadFrame(br, 0); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		time.Sleep(limit / 4)
	}
	if d := closedWithin(t, talker, 10*limit); d < limit/2 {
		t.Errorf("idle connection dropped after %v, long before the %v limit", d, limit)
	}
}

// Serving an ADDFIELD adds no allocation to the Table.AddField call it
// wraps: the request is decoded in place, the table name is looked up
// without being copied, the reply goes through the session's builder.
func TestServedAddFieldAddsNoAllocs(t *testing.T) {
	db, tl, acct, erids, rids := acctStack(t)
	defer db.Close()
	srv, err := server.New(server.Config{DB: db, Timeline: tl})
	if err != nil {
		t.Fatal(err)
	}
	sess := srv.NewTestSession()
	sess.Handle(wire.Frame{ID: 1, Kind: wire.OpBegin, Payload: txPayload(1)})
	req := wire.Frame{ID: 2, Kind: wire.OpAddField, Payload: addFieldPayload(1, "acct", rids[0], 8, 1)}
	sess.Handle(req) // the first use resolves and caches the table

	tx, err := db.Begin(tl.NewWorker())
	if err != nil {
		t.Fatal(err)
	}
	direct := testing.AllocsPerRun(200, func() {
		if err := acct.AddField(tx, erids[1], 8, 1); err != nil {
			t.Fatal(err)
		}
	})
	served := testing.AllocsPerRun(200, func() { sess.Handle(req) })
	if served > direct {
		t.Errorf("a served ADDFIELD allocates %.0f times, the AddField it wraps %.0f", served, direct)
	}
	row, err := acct.ReadLocked(tx, erids[1])
	if err != nil || binary.LittleEndian.Uint64(row[8:]) != 201 {
		t.Fatalf("direct AddField ran %d times (%v), want 201", binary.LittleEndian.Uint64(row[8:]), err)
	}
	doc, err := srv.StatsDocument()
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Ops["ADDFIELD"].Count; got != 202 {
		t.Errorf("ADDFIELD recorded %d times, want 202: the served requests did not all execute", got)
	}
}
