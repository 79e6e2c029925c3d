package repl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ipa/internal/client"
	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/wal"
	"ipa/internal/wire"
)

// Replication errors are wire errors like any other: the body is the
// message as `bytes`, and the client surfaces it in StatusError. The
// peer here passes every frame but HELLO to HandleFrame, so opcodes a
// real session would never route to the node reach it too.
func TestReplErrorsCarryTheirMessage(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	node := cl.Members[0].Node

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		for {
			f, err := wire.ReadFrame(br, 0)
			if err != nil {
				return
			}
			status, resp := byte(wire.StatusOK), []byte(nil)
			if f.Kind != wire.OpHello {
				status, resp = node.HandleFrame(f.Kind, f.Payload, new(wire.Builder))
			}
			if wire.WriteFrame(nc, f.ID, status, resp) != nil {
				return
			}
		}
	}()
	c, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, req := range []struct {
		what    string
		kind    byte
		payload []byte
		want    string
	}{
		{"malformed REPL_HELLO", wire.OpReplHello, []byte{1, 2, 3}, "truncated payload"},
		{"malformed REPL_APPEND", wire.OpReplAppend, []byte{1}, "truncated payload"},
		{"malformed VOTE_REQ", wire.OpVoteReq, nil, "truncated payload"},
		{"unexpected opcode", wire.OpPing, nil, fmt.Sprintf("unexpected opcode %d", wire.OpPing)},
	} {
		_, err := c.Do(req.kind, req.payload)
		var se *wire.StatusError
		if !errors.As(err, &se) || se.Code != wire.StatusBadRequest {
			t.Errorf("%s: %v, want a BAD_REQUEST status error", req.what, err)
			continue
		}
		if !bytes.Contains([]byte(se.Message), []byte(req.want)) {
			t.Errorf("%s: message %q does not say %q", req.what, se.Message, req.want)
		}
	}
}

// Sessions ask IsLeader on every request and LeaderAddr on every
// redirect; neither may wait for the node's lock. With n.mu held by the
// test across a step-down, a session still answers BEGIN — with the
// redirect the step-down calls for — while other goroutines read the
// same view under the race detector.
func TestStepDownIsSeenWithoutNodeLock(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m := cl.Members[0]
	n := m.Node
	c, err := client.Dial(m.Addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tx, err := c.Begin()
	if err != nil {
		t.Fatalf("BEGIN on the leader: %v", err)
	}
	if err := c.Abort(tx); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if n.IsLeader() && n.LeaderAddr() == "" {
						// Not an error: the two reads are not one snapshot.
						continue
					}
				}
			}
		}()
	}

	n.mu.Lock()
	n.observeTermLocked(n.term + 1) // deposed; n.mu stays held
	answered := make(chan error, 1)
	go func() {
		_, err := c.Begin()
		answered <- err
	}()
	select {
	case err := <-answered:
		var re *wire.RedirectError
		if !errors.As(err, &re) || re.Leader != "" {
			t.Errorf("BEGIN after the step-down: %v, want a redirect to no known leader", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("a session waited for n.mu to learn the node's role")
	}
	n.mu.Unlock()
	close(stop)
	readers.Wait()
}

// A request payload belongs to the node only until HandleFrame returns
// (it is the session's read buffer). Every payload here is overwritten
// the moment its handler returns — as the next burst would overwrite it
// — and the followers must still end up with the leader's log and the
// leader's rows: one fed the whole log by REPL_APPEND, one installed
// from a REPL_SNAPSHOT and fed the rest. The leader's transactions
// rewrite rows whole, add to a field and overwrite a field, so the log
// carries OpPatch records; the snapshot pinned on the streamed follower
// after the first round must keep reading that round's rows — the
// values before the second round's patches — from before-images the
// follower took from its own pages.
func TestHandlersDoNotRetainPayloads(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	lead := cl.Members[0]
	w := lead.TL.NewWorker()
	tbl, err := lead.DB.CreateTable("rows", "data")
	if err != nil {
		t.Fatal(err)
	}
	var rids []core.RID
	write := func(rounds int) {
		t.Helper()
		for r := 0; r < rounds; r++ {
			tx, err := lead.DB.Begin(w)
			if err != nil {
				t.Fatal(err)
			}
			row := bytes.Repeat([]byte{byte(len(rids) + 1)}, 40)
			rid, err := tbl.Insert(tx, row)
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
			for i := range rids[:len(rids)-1] { // change the older rows: whole, by a delta, by a field
				switch i % 3 {
				case 0:
					err = tbl.Update(tx, rids[i], bytes.Repeat([]byte{byte(r + i + 100)}, 40))
				case 1:
					err = tbl.AddField(tx, rids[i], 8, uint64(r+1)<<20)
				case 2:
					err = tbl.UpdateField(tx, rids[i], 21, []byte{byte(r), byte(i), 0xFE})
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}

	follower := func(id uint64) *Node {
		t.Helper()
		db, tl, err := NewMemberDB(MemberSpec{Chips: 8, BlocksPerChip: 256, PageSize: 1024, BufferFrames: 1024})
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(Config{
			NodeID: id, Peers: map[uint64]string{1: lead.Addr, id: "127.0.0.1:1"},
			DB: db, TL: tl, ElectionTimeout: time.Hour, // never campaigns during the test
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Stop(); db.Close() })
		return n
	}
	deliver := func(n *Node, kind byte, payload []byte) ack {
		t.Helper()
		payload = append([]byte(nil), payload...)
		status, resp := n.HandleFrame(kind, payload, new(wire.Builder))
		for i := range payload {
			payload[i] = 0xA5
		}
		if status != wire.StatusOK {
			t.Fatalf("%s: status %d: %s", wire.OpName(kind), status, wire.NewReader(resp).Blob())
		}
		a, err := decodeAck(resp)
		if err != nil || a.NeedSnap {
			t.Fatalf("%s: ack %+v, %v", wire.OpName(kind), a, err)
		}
		return a
	}
	ship := &shipper{n: lead.Node, term: 1, epochs: []epoch{{Term: 1, From: 1}}, enc: wire.NewBuilder(4 << 10)}
	catchUp := func(n *Node, cursor core.LSN) {
		t.Helper()
		for {
			count, err := ship.encodeBatch(cursor, batchRecords, batchBytes)
			if err != nil {
				t.Fatal(err)
			}
			if count == 0 {
				return
			}
			cursor += core.LSN(count)
			if a := deliver(n, wire.OpReplAppend, ship.enc.Bytes()); a.Head != cursor-1 {
				t.Fatalf("follower head %d after a batch ending at %d", a.Head, cursor-1)
			}
		}
	}
	// sameLog: the follower's log is the leader's, record for record and
	// byte for byte, from the follower's tail to its head — the field
	// updates' OpPatch records with their offsets and images included.
	sameLog := func(n *Node, what string) {
		t.Helper()
		llog, flog := lead.DB.WAL(), n.db.WAL()
		if flog.Head() != llog.Head() {
			t.Fatalf("%s: log head %d, the leader's is %d", what, flog.Head(), llog.Head())
		}
		patches := 0
		for lsn := flog.Tail(); lsn <= flog.Head(); lsn++ {
			want, err := llog.Get(lsn)
			if err != nil {
				t.Fatal(err)
			}
			got, err := flog.Get(lsn)
			if err != nil {
				t.Fatal(err)
			}
			if got.Type != want.Type || got.TxID != want.TxID || got.PrevLSN != want.PrevLSN || got.Page != want.Page ||
				got.Op != want.Op || got.Slot != want.Slot || got.Off != want.Off || got.UndoNext != want.UndoNext ||
				!bytes.Equal(got.Before, want.Before) || !bytes.Equal(got.After, want.After) || !bytes.Equal(got.Meta, want.Meta) {
				t.Fatalf("%s: LSN %d is %+v, the leader logged %+v", what, lsn, got, want)
			}
			if got.Op == wal.OpPatch {
				patches++
			}
		}
		if patches == 0 {
			t.Fatalf("%s: no OpPatch record in the log; the test no longer ships field updates", what)
		}
	}
	leaderRows := func() map[core.RID][]byte {
		t.Helper()
		rows := make(map[core.RID][]byte)
		if err := tbl.Scan(w, func(rid core.RID, row []byte) bool {
			rows[rid] = append([]byte(nil), row...)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	pin := func(n *Node) *engine.Tx {
		t.Helper()
		snap, err := n.db.BeginSnapshot(n.cfg.TL.NewWorker())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { snap.Abort() })
		return snap
	}
	// audit compares what snapshot snap of follower n sees with want.
	audit := func(n *Node, snap *engine.Tx, want map[core.RID][]byte, what string) {
		t.Helper()
		ftbl, err := n.db.Table("rows")
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		seen := 0
		if err := ftbl.ScanSnapshot(snap, core.RID{}, nil, func(rid core.RID, row []byte) bool {
			seen++
			if !bytes.Equal(row, want[rid]) {
				t.Errorf("%s: row %v = %x, the leader had %x", what, rid, row, want[rid])
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if seen != len(want) {
			t.Errorf("%s: %d rows, the leader had %d", what, seen, len(want))
		}
	}

	write(20)
	streamed := follower(2)
	catchUp(streamed, 1)
	first := leaderRows()
	old := pin(streamed) // reads the rows of this moment through before-images from now on
	audit(streamed, old, first, "streamed follower")

	snap, err := lead.DB.CaptureSnapshot(w)
	if err != nil {
		t.Fatal(err)
	}
	img, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	installed := follower(3)
	if a := deliver(installed, wire.OpReplSnap, encodeSnap(1, 1, ship.epochs, img)); a.Head != snap.PrimeLSN {
		t.Fatalf("snapshot landed at %d, want %d", a.Head, snap.PrimeLSN)
	}
	write(10)
	second := leaderRows()
	catchUp(installed, snap.PrimeLSN+1)
	sameLog(installed, "snapshot-installed follower")
	audit(installed, pin(installed), second, "snapshot-installed follower")
	catchUp(streamed, streamed.db.WAL().Head()+1)
	sameLog(streamed, "streamed follower")
	audit(streamed, pin(streamed), second, "streamed follower, second round")
	audit(streamed, old, first, "streamed follower, earlier snapshot")
}

// A peer that speaks the protocol before REPL_APPEND carried the first
// LSN and the OpPatch offset is refused at HELLO, not misparsed later.
func TestOldProtocolVersionIsRefused(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	nc, err := net.Dial("tcp", cl.Members[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(nc)
	for _, c := range []struct {
		version byte
		status  byte
	}{{wire.ProtoVersion - 1, wire.StatusBadRequest}, {wire.ProtoVersion, wire.StatusOK}} {
		if err := wire.WriteFrame(nc, uint64(c.version), wire.OpHello, []byte{c.version}); err != nil {
			t.Fatal(err)
		}
		f, err := wire.ReadFrame(br, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind != c.status {
			t.Errorf("HELLO version %d answered status %d, want %d", c.version, f.Kind, c.status)
		}
	}
}

// A follower answers every REPL_APPEND with an ack, so the ack is
// encoded into the session's reply buffer rather than a fresh one: the
// reply of a heartbeat — an append with no records — and that of a stale
// leader's append allocate nothing.
func TestAppendAckAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	db, tl, err := NewMemberDB(MemberSpec{Chips: 2, BlocksPerChip: 16, PageSize: 1024, BufferFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	n, err := NewNode(Config{
		NodeID: 2, Peers: map[uint64]string{1: "127.0.0.1:1", 2: "127.0.0.1:2"},
		DB: db, TL: tl, ElectionTimeout: time.Hour, // never campaigns during the test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	heartbeat := func(term uint64) []byte {
		b := new(wire.Builder)
		encodeAppendHeader(b, term, 1, 0, []epoch{{Term: 1, From: 1}}, db.WAL().Head()+1)
		return b.Uint32(0).Bytes()
	}
	out := new(wire.Builder)
	for _, c := range []struct {
		name    string
		payload []byte
	}{{"heartbeat", heartbeat(2)}, {"stale leader", heartbeat(1)}} {
		var status byte
		var resp []byte
		allocs := testing.AllocsPerRun(200, func() {
			status, resp = n.HandleFrame(wire.OpReplAppend, c.payload, out)
		})
		if a, err := decodeAck(resp); status != wire.StatusOK || err != nil || a.Term != 2 {
			t.Fatalf("%s: status %d, ack %+v, %v", c.name, status, a, err)
		}
		if allocs != 0 {
			t.Errorf("%s: the append and its ack allocate %.1f times, want 0", c.name, allocs)
		}
	}
}
