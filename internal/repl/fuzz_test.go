package repl

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/wal"
	"ipa/internal/wire"
)

// fuzzLeader is where FuzzReplAppendDecode takes well-formed batches
// from: a one-node cluster whose log holds a prefix — a table and one
// full page of 24-byte rows — and then a suffix of every kind of change
// to those rows.
type fuzzLeader struct {
	ship   *shipper
	prefix []byte   // REPL_APPEND body carrying the log up to and including the rows
	head   core.LSN // last LSN of the prefix
	suffix []byte   // REPL_APPEND body with what follows it
	page   core.PageID
	alloc  wal.Record // the RecAlloc of page, as the leader logged it
}

func newFuzzLeader(tb testing.TB) *fuzzLeader {
	cl, err := NewCluster(ClusterConfig{N: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Close)
	lead := cl.Members[0]
	tbl, err := lead.DB.CreateTable("rows", "data")
	if err != nil {
		tb.Fatal(err)
	}
	begin := func() *engine.Tx {
		tx, err := lead.DB.Begin(nil)
		if err != nil {
			tb.Fatal(err)
		}
		return tx
	}
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	var rids []core.RID
	tx := begin()
	for i := 0; ; i++ {
		rid, err := tbl.Insert(tx, bytes.Repeat([]byte{byte(i + 1)}, 24))
		must(err)
		if len(rids) > 0 && rid.Page != rids[0].Page {
			break // the first page is full: every row on it has a neighbour
		}
		rids = append(rids, rid)
	}
	must(tx.Commit())
	l := &fuzzLeader{
		ship: &shipper{n: lead.Node, term: 1, epochs: []epoch{{Term: 1, From: 1}}, enc: wire.NewBuilder(4 << 10)},
		head: lead.DB.WAL().Head(),
		page: rids[0].Page,
	}
	l.prefix = l.batch(tb, 1)
	if _, err := lead.DB.WAL().ReadFrom(1, 1<<20, 1<<30, func(r wal.Record) {
		if r.Type == wal.RecAlloc && l.alloc.Type == 0 {
			l.alloc = r
			l.alloc.Meta = append([]byte(nil), r.Meta...)
		}
	}); err != nil || l.alloc.Type != wal.RecAlloc {
		tb.Fatalf("no RecAlloc in the leader's log (%v)", err)
	}

	tx = begin()
	must(tbl.AddField(tx, rids[0], 8, 7))
	must(tbl.UpdateField(tx, rids[1], 21, []byte("end")))
	must(tbl.Update(tx, rids[2], bytes.Repeat([]byte{0xEE}, 24)))
	must(tbl.Delete(tx, rids[3]))
	must(tx.Commit())
	tx = begin()
	must(tbl.AddField(tx, rids[4], 16, 1))
	must(tbl.UpdateField(tx, rids[4], 0, []byte("undone")))
	must(tx.Abort()) // CLRs
	l.suffix = l.batch(tb, l.head+1)
	return l
}

// batch encodes the leader's log from cursor to its head as one body.
func (l *fuzzLeader) batch(tb testing.TB, cursor core.LSN) []byte {
	if _, err := l.ship.encodeBatch(cursor, 1<<20, 1<<30); err != nil {
		tb.Fatal(err)
	}
	return append([]byte(nil), l.ship.enc.Bytes()...)
}

// handmade encodes records as a batch that continues the prefix.
func (l *fuzzLeader) handmade(recs ...wal.Record) []byte {
	b := wire.NewBuilder(256)
	encodeAppendHeader(b, 1, 1, 0, l.ship.epochs, l.head+1)
	b.Uint32(uint32(len(recs)))
	for _, r := range recs {
		encodeRecord(b, r)
	}
	return b.Bytes()
}

// FuzzReplAppendDecode feeds arbitrary REPL_APPEND bodies to a follower
// that holds one full page of known rows. Whatever the body: the handler
// does not panic, answers OK with a well-formed ack or BAD_REQUEST, and
// no row changes that no record in the body addresses — a patch whose
// offset or length does not fit its tuple would run into the next row
// (the page is full), and must be refused instead — and the handler
// allocates in proportion to the body, whatever page ids it names. The
// seeds are a real batch with every kind of record, patches that overrun
// their tuple in each way, page allocations and page operations whose
// page id is far beyond core.MaxPageID, and ones below it but far from
// every id the leader issued.
func FuzzReplAppendDecode(f *testing.F) {
	l := newFuzzLeader(f)
	patch := func(typ wal.RecType, slot, off uint16, nBefore, nAfter int) wal.Record {
		r := wal.Record{Type: typ, TxID: 99, Page: l.page, Op: wal.OpPatch, Slot: slot, Off: off,
			After: bytes.Repeat([]byte{0xAB}, nAfter)}
		if typ == wal.RecUpdate {
			r.Before = bytes.Repeat([]byte{0xCD}, nBefore)
		} else {
			r.UndoNext = l.head
		}
		return r
	}
	begin := wal.Record{Type: wal.RecBegin, TxID: 99}
	f.Add(l.suffix)
	f.Add(l.handmade(begin, patch(wal.RecUpdate, 0, 8, 8, 8)))        // fits
	f.Add(l.handmade(begin, patch(wal.RecUpdate, 0, 17, 8, 8)))       // straddles the end of the tuple
	f.Add(l.handmade(begin, patch(wal.RecUpdate, 0, 24, 1, 1)))       // starts at its end
	f.Add(l.handmade(begin, patch(wal.RecUpdate, 1, 65535, 8, 8)))    // offset far outside
	f.Add(l.handmade(begin, patch(wal.RecUpdate, 2, 0, 300, 300)))    // longer than the tuple
	f.Add(l.handmade(begin, patch(wal.RecUpdate, 2, 4, 8, 12)))       // images of different lengths
	f.Add(l.handmade(begin, patch(wal.RecCLR, 3, 20, 0, 8)))          // a CLR that overruns
	f.Add(l.handmade(begin, patch(wal.RecUpdate, 60000, 0, 8, 8)))    // no such slot
	f.Add(l.handmade(begin, wal.Record{Type: wal.RecUpdate, TxID: 99, // no such page
		Page: l.page + 1000, Op: wal.OpPatch, Before: []byte{1}, After: []byte{2}}))
	allocOf := func(id core.PageID) wal.Record {
		alloc := l.alloc
		alloc.Meta = append([]byte(nil), alloc.Meta...)
		binary.BigEndian.PutUint64(alloc.Meta, uint64(id)) // the page id leads the RecAlloc meta,
		binary.BigEndian.PutUint64(alloc.Meta[8:], 0)      // then its owner: none, the scan below skips it
		return alloc
	}
	for _, id := range []core.PageID{1 << 20, core.MaxPageID, 1 << 40, 1 << 63, ^core.PageID(0)} {
		f.Add(l.handmade(allocOf(id)))
		hostile := patch(wal.RecUpdate, 0, 8, 8, 8)
		hostile.Page = id
		f.Add(l.handmade(begin, hostile))
		f.Add(l.handmade(allocOf(id), begin, hostile))
	}
	// 4096 allocations below the bound, one to a page-table chunk (128 MiB
	// of chunks in the page directory alone if they were taken), and as
	// sparse as the follower accepts (every 64th id).
	for _, step := range []core.PageID{4096, 64} {
		var run []wal.Record
		for i := core.PageID(1); i <= 4096; i++ {
			run = append(run, allocOf(l.page+1+i*step))
		}
		f.Add(l.handmade(run...))
	}
	f.Add(l.suffix[:len(l.suffix)/2]) // truncated mid-record
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		db, tl, err := NewMemberDB(MemberSpec{Chips: 2, BlocksPerChip: 16, PageSize: 1024, BufferFrames: 64, PoolShards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		n, err := NewNode(Config{
			NodeID: 2, Peers: map[uint64]string{1: "127.0.0.1:1", 2: "127.0.0.1:2"},
			DB: db, TL: tl, ElectionTimeout: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		if status, _ := n.HandleFrame(wire.OpReplAppend, l.prefix, new(wire.Builder)); status != wire.StatusOK || db.WAL().Head() != l.head {
			t.Fatalf("prefix: status %d, head %d, want head %d", status, db.WAL().Head(), l.head)
		}
		tbl, err := db.Table("rows")
		if err != nil {
			t.Fatal(err)
		}
		rows := func() map[core.RID][]byte {
			m := make(map[core.RID][]byte)
			if err := tbl.Scan(nil, func(rid core.RID, row []byte) bool {
				m[rid] = append([]byte(nil), row...)
				return true
			}); err != nil {
				t.Fatalf("scan: %v", err)
			}
			return m
		}
		before := rows()

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		status, resp := n.HandleFrame(wire.OpReplAppend, append([]byte(nil), body...), new(wire.Builder))
		runtime.ReadMemStats(&m1)
		// The most a body may cost is what it logs plus, for each page
		// allocation, 64 page-table entries (engine.wireIDWindow).
		if grown := m1.TotalAlloc - m0.TotalAlloc; grown > 1<<20+64*uint64(len(body)) {
			t.Fatalf("handling a %d-byte body allocated %d KiB", len(body), grown>>10)
		}
		switch status {
		case wire.StatusOK:
			if _, err := decodeAck(resp); err != nil {
				t.Fatalf("OK with a malformed ack: %v", err)
			}
		case wire.StatusBadRequest:
		default:
			t.Fatalf("status %d", status)
		}

		// What the body addresses, decoded the way the handler does.
		touched := make(map[core.RID]bool)
		r := wire.NewReader(body)
		_, _, _, _, first, count, err := decodeAppendHeader(r, nil)
		for lsn := first; err == nil && count > 0; count, lsn = count-1, lsn+1 {
			var rec wal.Record
			if rec, err = decodeRecord(r, lsn); err == nil {
				touched[core.RID{Page: rec.Page, Slot: rec.Slot}] = true
			}
		}
		after := rows()
		for rid, row := range before {
			if !touched[rid] && !bytes.Equal(after[rid], row) {
				t.Fatalf("row %v changed from %x to %x, and no record addresses it", rid, row, after[rid])
			}
		}
	})
}
