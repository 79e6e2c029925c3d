// Package repl is the replication layer over the storage engine: a
// primary ships its WAL — the contiguously-published, gap-free record
// stream PR 9's log exposes — to followers that replay it with exact
// LSN parity, serve MVCC snapshot reads at their applied horizon, and
// elect a replacement primary (Raft-style term/vote/heartbeat) when the
// leader dies. See DESIGN.md "Replication & failover" for the safety
// argument.
//
// This file is the wire codec for the repl opcode family. Requests ride
// the ordinary frame format (internal/wire); responses are StatusOK
// frames whose payload leads with a tag byte (wire.OpReplAck /
// wire.OpVoteResp) because response frames carry a status, not an
// opcode.
package repl

import (
	"fmt"

	"ipa/internal/core"
	"ipa/internal/wal"
	"ipa/internal/wire"
)

// failResp is an error response: like every error on the wire, its
// body is the message as `bytes`, which is how the client decodes it.
func failResp(status byte, err error) (byte, []byte) {
	msg := err.Error()
	return status, wire.NewBuilder(4 + len(msg)).Blob([]byte(msg)).Bytes()
}

// helloReq is REPL_HELLO: a leader introducing itself to a follower and
// asking where its log ends.
type helloReq struct {
	NodeID uint64
	Term   uint64
}

func (h helloReq) encode() []byte {
	return wire.NewBuilder(16).Uint64(h.NodeID).Uint64(h.Term).Bytes()
}

func decodeHelloReq(p []byte) (helloReq, error) {
	r := wire.NewReader(p)
	h := helloReq{NodeID: r.Uint64(), Term: r.Uint64()}
	return h, r.Err()
}

// helloResp reports the follower's log position: head LSN, the term
// under which its last record was shipped (the Raft prev-term
// consistency check, done once per connection), and its appended-bytes
// counter (the byte-exact lag metric).
type helloResp struct {
	Term          uint64
	Head          core.LSN
	LastTerm      uint64
	AppendedBytes uint64
}

func (h helloResp) encode() []byte {
	return wire.NewBuilder(32).
		Uint64(h.Term).Uint64(uint64(h.Head)).Uint64(h.LastTerm).Uint64(h.AppendedBytes).Bytes()
}

func decodeHelloResp(p []byte) (helloResp, error) {
	r := wire.NewReader(p)
	h := helloResp{
		Term:          r.Uint64(),
		Head:          core.LSN(r.Uint64()),
		LastTerm:      r.Uint64(),
		AppendedBytes: r.Uint64(),
	}
	return h, r.Err()
}

// ack is the response payload of REPL_APPEND and REPL_SNAPSHOT.
type ack struct {
	Term          uint64
	Head          core.LSN // follower's applied horizon
	AppendedBytes uint64
	NeedSnap      bool // apply failed (gap/divergence); send a snapshot
}

// encode writes the ack into b, replacing what b held, and returns it.
func (a ack) encode(b *wire.Builder) []byte {
	b.Reset().Uint16(uint16(wire.OpReplAck)) // tag
	b.Uint64(a.Term).Uint64(uint64(a.Head)).Uint64(a.AppendedBytes)
	if a.NeedSnap {
		b.Uint16(1)
	} else {
		b.Uint16(0)
	}
	return b.Bytes()
}

func decodeAck(p []byte) (ack, error) {
	r := wire.NewReader(p)
	if tag := r.Uint16(); r.Err() == nil && tag != uint16(wire.OpReplAck) {
		return ack{}, fmt.Errorf("repl: response tag %d is not REPL_ACK", tag)
	}
	a := ack{
		Term:          r.Uint64(),
		Head:          core.LSN(r.Uint64()),
		AppendedBytes: r.Uint64(),
	}
	a.NeedSnap = r.Uint16() != 0
	return a, r.Err()
}

// voteReq is VOTE_REQ: a candidate asking for this term, carrying its
// log position for the up-to-date check.
type voteReq struct {
	Term      uint64
	Candidate uint64
	LastLSN   core.LSN
	LastTerm  uint64
}

func (v voteReq) encode() []byte {
	return wire.NewBuilder(32).
		Uint64(v.Term).Uint64(v.Candidate).Uint64(uint64(v.LastLSN)).Uint64(v.LastTerm).Bytes()
}

func decodeVoteReq(p []byte) (voteReq, error) {
	r := wire.NewReader(p)
	v := voteReq{
		Term:      r.Uint64(),
		Candidate: r.Uint64(),
		LastLSN:   core.LSN(r.Uint64()),
		LastTerm:  r.Uint64(),
	}
	return v, r.Err()
}

// voteResp answers a VOTE_REQ.
type voteResp struct {
	Term    uint64
	Granted bool
}

func (v voteResp) encode() []byte {
	b := wire.NewBuilder(16)
	b.Uint16(uint16(wire.OpVoteResp)) // tag
	b.Uint64(v.Term)
	if v.Granted {
		b.Uint16(1)
	} else {
		b.Uint16(0)
	}
	return b.Bytes()
}

func decodeVoteResp(p []byte) (voteResp, error) {
	r := wire.NewReader(p)
	if tag := r.Uint16(); r.Err() == nil && tag != uint16(wire.OpVoteResp) {
		return voteResp{}, fmt.Errorf("repl: response tag %d is not VOTE_RESP", tag)
	}
	v := voteResp{Term: r.Uint64()}
	v.Granted = r.Uint16() != 0
	return v, r.Err()
}

// --- WAL record batches (REPL_APPEND) --------------------------------

// encodeAppendHeader starts a REPL_APPEND payload: the leader's term,
// id, commit horizon and epoch table, and the LSN of the first record.
// The record count (u32) and the records follow (see
// shipper.encodeBatch; an empty batch is a heartbeat). Records carry no
// LSN of their own: a batch is a run of consecutive log slots. The
// follower adopts the epochs with the records: a record's term is the
// term of the leadership that CREATED it, which only the epoch table
// knows — a new leader re-ships old-term records, so tagging them with
// the shipping term would make every failover look like divergence. The
// commit horizon feeds the follower's vote bar: it must never help
// elect a candidate whose log ends below an LSN it knows was
// quorum-committed.
func encodeAppendHeader(b *wire.Builder, term, leaderID uint64, commit core.LSN, epochs []epoch, first core.LSN) {
	b.Uint64(term).Uint64(leaderID).Uint64(uint64(commit))
	b.Uint32(uint32(len(epochs)))
	for _, e := range epochs {
		b.Uint64(e.Term).Uint64(uint64(e.From))
	}
	b.Uint64(uint64(first))
}

// decodeAppendHeader reads what encodeAppendHeader wrote plus the record
// count, leaving r at the first record. The epochs are appended to buf.
func decodeAppendHeader(r *wire.Reader, buf []epoch) (term, leaderID uint64, commit core.LSN, epochs []epoch, first core.LSN, count int, err error) {
	term, leaderID = r.Uint64(), r.Uint64()
	commit = core.LSN(r.Uint64())
	epochs = buf
	for ne := int(r.Uint32()); ne > 0 && r.Err() == nil; ne-- {
		epochs = append(epochs, epoch{Term: r.Uint64(), From: core.LSN(r.Uint64())})
	}
	first = core.LSN(r.Uint64())
	count = int(r.Uint32())
	return term, leaderID, commit, epochs, first, count, r.Err()
}

// A shipped record is a 32-byte fixed part — type u8, op u8, flags u16,
// slot u16, off u16, tx u64, prev LSN u64, page u64 — followed by the
// sections its flags announce, in this order. A small record costs on
// the wire what it costs in the log: an OpPatch of an 8-byte field is
// 56 bytes.
const (
	recHasUndoNext = 1 << iota // undoNext u64 (CLRs)
	recHasImages               // before bytes, after bytes
	recHasMeta                 // meta bytes (RecAlloc, RecTable)
	recHasTables               // checkpoint tables: n u32, n×(u64, u64), twice
	recFlagsKnown  = 1<<iota - 1
)

// encodeRecord serialises one wal.Record, including the checkpoint
// tables (so shipped checkpoints keep LSN parity and drive
// follower-local truncation).
func encodeRecord(b *wire.Builder, r wal.Record) {
	var flags uint32
	if r.UndoNext != 0 {
		flags |= recHasUndoNext
	}
	if len(r.Before)+len(r.After) > 0 {
		flags |= recHasImages
	}
	if len(r.Meta) > 0 {
		flags |= recHasMeta
	}
	if r.ActiveTxs != nil || r.DirtyPages != nil {
		flags |= recHasTables
	}
	b.Uint32(uint32(r.Type)<<24 | uint32(r.Op)<<16 | flags)
	b.Uint16(r.Slot).Uint16(r.Off)
	b.Uint64(r.TxID).Uint64(uint64(r.PrevLSN)).Uint64(uint64(r.Page))
	if flags&recHasUndoNext != 0 {
		b.Uint64(uint64(r.UndoNext))
	}
	if flags&recHasImages != 0 {
		b.Blob(r.Before).Blob(r.After)
	}
	if flags&recHasMeta != 0 {
		b.Blob(r.Meta)
	}
	if flags&recHasTables != 0 {
		b.Uint32(uint32(len(r.ActiveTxs)))
		for id, lsn := range r.ActiveTxs {
			b.Uint64(id).Uint64(uint64(lsn))
		}
		b.Uint32(uint32(len(r.DirtyPages)))
		for id, lsn := range r.DirtyPages {
			b.Uint64(uint64(id)).Uint64(uint64(lsn))
		}
	}
}

// decodeRecord reads the record that sits at lsn in its batch. Before,
// After and Meta alias the payload: the applier copies them into the
// log, the page and the version store and keeps none. Only the shape of
// a record is judged here — whether an OpPatch fits its tuple is the
// applier's call, made against the page under its latch.
func decodeRecord(r *wire.Reader, lsn core.LSN) (wal.Record, error) {
	head := r.Uint32()
	flags := head & 0xFFFF
	rec := wal.Record{
		LSN:     lsn,
		Type:    wal.RecType(head >> 24),
		Op:      wal.PageOp(head >> 16),
		Slot:    r.Uint16(),
		Off:     r.Uint16(),
		TxID:    r.Uint64(),
		PrevLSN: core.LSN(r.Uint64()),
		Page:    core.PageID(r.Uint64()),
	}
	if flags&recHasUndoNext != 0 {
		rec.UndoNext = core.LSN(r.Uint64())
	}
	if flags&recHasImages != 0 {
		rec.Before = r.Blob()
		rec.After = r.Blob()
	}
	if flags&recHasMeta != 0 {
		rec.Meta = r.Blob()
	}
	if flags&recHasTables != 0 {
		if n := int(r.Uint32()); n > 0 && r.Err() == nil {
			rec.ActiveTxs = make(map[uint64]core.LSN)
			for i := 0; i < n && r.Err() == nil; i++ {
				id, lsn := r.Uint64(), core.LSN(r.Uint64())
				rec.ActiveTxs[id] = lsn
			}
		}
		if n := int(r.Uint32()); n > 0 && r.Err() == nil {
			rec.DirtyPages = make(map[core.PageID]core.LSN)
			for i := 0; i < n && r.Err() == nil; i++ {
				id, lsn := core.PageID(r.Uint64()), core.LSN(r.Uint64())
				rec.DirtyPages[id] = lsn
			}
		}
	}
	if err := r.Err(); err != nil {
		return wal.Record{}, err
	}
	if flags&^recFlagsKnown != 0 {
		return wal.Record{}, fmt.Errorf("repl: record %d has unknown flags %#x", lsn, flags)
	}
	if rec.Op == wal.OpPatch && rec.Type == wal.RecUpdate && len(rec.Before) != len(rec.After) {
		return wal.Record{}, fmt.Errorf("repl: record %d patches %d bytes over %d", lsn, len(rec.After), len(rec.Before))
	}
	return rec, nil
}

// encodeSnap packs a REPL_SNAPSHOT: the leader's term, id and epoch
// table (the follower adopts it — its log history is now the leader's),
// plus the JSON engine image.
func encodeSnap(term, leaderID uint64, epochs []epoch, image []byte) []byte {
	b := wire.NewBuilder(32 + 16*len(epochs) + len(image))
	b.Uint64(term).Uint64(leaderID)
	b.Uint32(uint32(len(epochs)))
	for _, e := range epochs {
		b.Uint64(e.Term).Uint64(uint64(e.From))
	}
	b.Blob(image)
	return b.Bytes()
}

// decodeSnap reads what encodeSnap wrote; the image aliases p.
func decodeSnap(p []byte) (term, leaderID uint64, epochs []epoch, image []byte, err error) {
	r := wire.NewReader(p)
	term, leaderID = r.Uint64(), r.Uint64()
	n := int(r.Uint32())
	if r.Err() == nil && n > 0 {
		epochs = make([]epoch, 0, n)
		for i := 0; i < n; i++ {
			epochs = append(epochs, epoch{Term: r.Uint64(), From: core.LSN(r.Uint64())})
		}
	}
	image = r.Blob()
	return term, leaderID, epochs, image, r.Err()
}
