package server_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipa/internal/client"
	"ipa/internal/engine"
	"ipa/internal/netload"
	"ipa/internal/server"
	"ipa/internal/wire"
	"ipa/internal/workload"
)

// scanPage is one decoded SCAN or SNAPSCAN reply page.
type scanPage struct {
	rids  []wire.RID
	bytes int // the rows' tuple bytes
	more  bool
	next  wire.RID
}

// decodeScanPage decodes a page strictly: every byte belongs to the
// layout, so an error message in its place does not pass for a page.
func decodeScanPage(p []byte) (scanPage, error) {
	var pg scanPage
	r := wire.NewReader(p)
	count := r.Uint32()
	for i := uint32(0); i < count && r.Err() == nil; i++ {
		pg.rids = append(pg.rids, r.RID())
		pg.bytes += len(r.Blob())
	}
	if more := r.Byte(); more == 1 {
		pg.more, pg.next = true, r.RID()
	} else if more != 0 {
		return pg, fmt.Errorf("more flag %d", more)
	}
	return pg, r.End()
}

func scanRequest(table string, after wire.RID, want uint32) []byte {
	return wire.NewBuilder(64).String(table).RID(after).Uint32(want).Bytes()
}

func snapScanRequest(tx uint64, table string, after wire.RID, want uint32) []byte {
	return wire.NewBuilder(64).Uint64(tx).String(table).RID(after).Uint32(want).Bytes()
}

// ascending fails unless the entries' RIDs ascend strictly, which also
// means no RID comes back twice.
func ascending(t *testing.T, what string, entries []client.ScanEntry) {
	t.Helper()
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1].RID, entries[i].RID
		if a.Page > b.Page || (a.Page == b.Page && a.Slot >= b.Slot) {
			t.Fatalf("%s: row %d at %v follows %v", what, i, b, a)
		}
	}
}

// TestScanFrameCap: under a 2 KiB frame limit, a sixth of the table's
// size, SCAN and SNAPSCAN each bring the whole table back, a page at a
// time and in ascending RID order, and a limit that ends mid-page
// returns the table's first rows. Every page the server sends fits the
// limit. A server that answers a scan in one frame fails it: the table
// is past its limit, so it answers BAD_REQUEST.
func TestScanFrameCap(t *testing.T) {
	db, tl := newStackOpts(t, engine.Options{PageSize: 1024, BufferFrames: 512, MVCC: true})
	if _, err := db.CreateTable("big", "data"); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db, Timeline: tl})
	if err != nil {
		t.Fatal(err)
	}
	const limit = 2048
	srv.SetMaxFrame(limit)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(5 * time.Second)
	addr := ln.Addr().String()

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 600 tuples × 22 encoded bytes ≈ 13 KiB.
	const rows = 600
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := c.Insert(tx, "big", le64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(tx); err != nil {
		t.Fatal(err)
	}
	snap, _, err := c.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort(snap)

	for _, op := range []struct {
		name string
		scan func(limit uint32) ([]client.ScanEntry, error)
	}{
		{"SCAN", func(limit uint32) ([]client.ScanEntry, error) { return c.Scan("big", limit) }},
		{"SNAPSCAN", func(limit uint32) ([]client.ScanEntry, error) { return c.SnapshotScan(snap, "big", limit) }},
	} {
		all, err := op.scan(0)
		if err != nil {
			t.Fatalf("%s of a table past the frame limit: %v", op.name, err)
		}
		if len(all) != rows {
			t.Fatalf("%s returned %d rows, want %d", op.name, len(all), rows)
		}
		ascending(t, op.name, all)
		for i, e := range all {
			if v := binary.LittleEndian.Uint64(e.Data); v != uint64(i) {
				t.Fatalf("%s row %d holds %d", op.name, i, v)
			}
		}
		first, err := op.scan(250)
		if err != nil {
			t.Fatalf("%s with limit 250: %v", op.name, err)
		}
		if len(first) != 250 {
			t.Fatalf("%s with limit 250 returned %d rows", op.name, len(first))
		}
		for i, e := range first {
			if e.RID != all[i].RID {
				t.Fatalf("%s with limit 250: row %d at %v, the whole scan has %v", op.name, i, e.RID, all[i].RID)
			}
		}
	}

	// The same walk on a raw connection: every page fits the limit.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var after wire.RID
	got, pages := 0, 0
	for id := uint64(1); ; id++ {
		if err := wire.WriteFrame(conn, id, wire.OpScan, scanRequest("big", after, 0)); err != nil {
			t.Fatal(err)
		}
		f := expectReplies(t, br, id, 1)[0]
		if n := wire.HeaderLen - 4 + len(f.Payload); n > limit {
			t.Fatalf("page %d: a %d-byte frame under a %d-byte limit", pages, n, limit)
		}
		pg, err := decodeScanPage(f.Payload)
		if err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		got, pages = got+len(pg.rids), pages+1
		if !pg.more {
			break
		}
		after = pg.next
	}
	if got != rows || pages < 6 {
		t.Fatalf("raw walk: %d rows in %d pages, want %d rows in 6 or more", got, pages, rows)
	}
}

// TestScanOldLayoutRefused: a SCAN or SNAPSCAN in the layout before
// pages (no resume RID) answers BAD_REQUEST rather than being misread,
// and so does one with bytes past its layout; the connection serves
// the next request.
func TestScanOldLayoutRefused(t *testing.T) {
	db, tl := newStackOpts(t, engine.Options{PageSize: 1024, BufferFrames: 512, MVCC: true})
	tbl, err := db.CreateTable("kv", "data")
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, db)
	for i := 0; i < 20; i++ {
		if _, err := tbl.Insert(tx, le64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	_, conn, _ := rawServer(t, db, tl, server.Config{})
	br := bufio.NewReader(conn)

	b := new(burst)
	b.add(wire.OpBeginSnapshot, txPayload(7))
	b.add(wire.OpScan, wire.NewBuilder(16).String("kv").Uint32(0).Bytes())
	b.add(wire.OpSnapshotScan, wire.NewBuilder(16).Uint64(7).String("kv").Uint32(0).Bytes())
	b.add(wire.OpScan, append(scanRequest("kv", wire.RID{}, 0), 0))
	b.add(wire.OpScan, scanRequest("kv", wire.RID{}, 0))
	b.add(wire.OpSnapshotScan, snapScanRequest(7, "kv", wire.RID{}, 0))
	if _, err := conn.Write(b.buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	want := []byte{wire.StatusOK, wire.StatusBadRequest, wire.StatusBadRequest, wire.StatusBadRequest, wire.StatusOK, wire.StatusOK}
	for i, status := range want {
		f, err := wire.ReadFrame(br, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.ID != uint64(i+1) || f.Kind != status {
			t.Fatalf("reply %d: request %d status %d, want request %d status %d", i, f.ID, f.Kind, i+1, status)
		}
		if status != wire.StatusOK || i == 0 {
			continue
		}
		pg, err := decodeScanPage(f.Payload)
		if err != nil || pg.more || len(pg.rids) != 20 {
			t.Fatalf("reply %d: %d rows, more %v, %v; want the 20 rows in one page", i, len(pg.rids), pg.more, err)
		}
	}
}

// TestScanPagesAscendingOnce: a SCAN over many pages, while another
// connection inserts rows at the tail and deletes others, returns every
// RID at most once and in ascending order, and every row that no one
// deletes; a limit cuts the table's first rows across page boundaries.
func TestScanPagesAscendingOnce(t *testing.T) {
	db, tl := newStack(t)
	tbl, err := db.CreateTable("rows", "data")
	if err != nil {
		t.Fatal(err)
	}
	row := func(i uint64) []byte {
		r := make([]byte, 100)
		binary.LittleEndian.PutUint64(r, i)
		return r
	}
	// Rows 0..2999; the even ones below 1000 are deleted under the scans.
	const rows = 3000
	tx := mustBegin(t, db)
	for i := uint64(0); i < rows; i++ {
		if _, err := tbl.Insert(tx, row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	srv, addr, _ := startServer(t, db, tl, server.Config{})
	defer srv.Shutdown(5 * time.Second)
	reader, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	writer, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	initial, err := reader.Scan("rows", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(initial) != rows {
		t.Fatalf("scan before the writer: %d rows, want %d", len(initial), rows)
	}
	ascending(t, "scan before the writer", initial)

	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		next := uint64(rows)
		for victim := 0; ; victim += 2 {
			select {
			case <-stop:
				writerErr <- nil
				return
			default:
			}
			tx, err := writer.Begin()
			if err == nil {
				_, err = writer.Insert(tx, "rows", row(next))
			}
			if err == nil && victim < 1000 {
				err = writer.Delete(tx, "rows", initial[victim].RID)
			}
			if err == nil {
				err = writer.Commit(tx)
			}
			if err != nil {
				writerErr <- err
				return
			}
			next++
		}
	}()
	for scan := 0; scan < 20; scan++ {
		entries, err := reader.Scan("rows", 0)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("scan %d under the writer", scan)
		ascending(t, what, entries)
		seen := make(map[uint64]bool, len(entries))
		for _, e := range entries {
			seen[binary.LittleEndian.Uint64(e.Data)] = true
		}
		for i := uint64(0); i < rows; i++ {
			if (i >= 1000 || i%2 == 1) && !seen[i] {
				t.Fatalf("%s: row %d, which no one deletes, is missing", what, i)
			}
		}
	}
	close(stop)
	if err := <-writerErr; err != nil {
		t.Fatal(err)
	}

	all, err := reader.Scan("rows", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []uint32{1, 299, 300, 301, 2345} {
		got, err := reader.Scan("rows", limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != int(limit) {
			t.Fatalf("limit %d: %d rows", limit, len(got))
		}
		for i, e := range got {
			if e.RID != all[i].RID {
				t.Fatalf("limit %d: row %d at %v, the whole scan has %v", limit, i, e.RID, all[i].RID)
			}
		}
	}
}

// TestSnapshotScanPagesUnderTPCB: TPC-B writers run over the wire while
// a reader audits the four tables through SNAPSCAN in pages of at most
// 2 KiB — each table many pages, with commits landing between them.
// Every audit must see one snapshot: each balance table's drift from
// its seed equals the sum of the history deltas.
func TestSnapshotScanPagesUnderTPCB(t *testing.T) {
	db, tl := newStackOpts(t, engine.Options{PageSize: 1024, BufferFrames: 512, MVCC: true})
	if err := workload.NewTPCB(db, "data", 2, 200).Load(tl.NewWorker()); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db, Timeline: tl})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetMaxFrame(2048)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(5 * time.Second)
	addr := ln.Addr().String()

	seed, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	drv := netload.NewNetTPCB()
	if err := drv.Init(seed); err != nil {
		t.Fatal(err)
	}

	const writers = 3
	var committed atomic.Int64
	stop := make(chan struct{})
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := drv.RunOne(c, rng); err == nil {
					committed.Add(1)
				} else if !netload.Aborted(err) {
					errs <- err
					return
				}
			}
		}(w)
	}

	reader, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	seeds := map[string]uint64{"tpcb_branch": 1_000_000, "tpcb_teller": 100_000, "tpcb_account": 10_000}
	var histRows []int
	for audit := 0; audit < 6; audit++ {
		snap, _, err := reader.BeginSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		var drift [3]uint64
		var histSum uint64
		for i, table := range []string{"tpcb_branch", "tpcb_teller", "tpcb_account", "tpcb_history"} {
			entries, err := reader.SnapshotScan(snap, table, 0)
			if err != nil {
				t.Fatalf("audit %d: SNAPSCAN %s: %v", audit, table, err)
			}
			ascending(t, table, entries)
			for _, e := range entries {
				if table == "tpcb_history" {
					histSum += binary.LittleEndian.Uint64(e.Data[12:20]) // the delta
				} else {
					drift[i] += binary.LittleEndian.Uint64(e.Data[8:16]) - seeds[table]
				}
			}
			if table == "tpcb_history" {
				histRows = append(histRows, len(entries))
			}
		}
		if err := reader.Commit(snap); err != nil {
			t.Fatal(err)
		}
		for i, d := range drift {
			if d != histSum {
				t.Fatalf("audit %d: balance drift[%d] = %d but the history sums to %d: the pages saw more than one state",
					audit, i, d, histSum)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if committed.Load() == 0 || histRows[0] == histRows[len(histRows)-1] {
		t.Fatalf("the writers committed %d transactions; history rows per audit %v: the audits ran against no load",
			committed.Load(), histRows)
	}
}

// TestScanPageFootprint: a SNAPSCAN of a 1 MB and of a 4 MB table, page
// by page through one session. The session's reply buffer never holds
// more than one page, and what the server allocates per page does not
// grow with the table. Once the session's scan buffer holds a heap
// page, a page costs the server nothing: the rows are copied into the
// session's reply buffer from the session's copy of the heap page. A
// server that builds a whole-table reply fails it: its reply buffer
// grows to the table's size; so does one that copies each request's
// heap pages into a buffer of its own (about 1 256 B a page).
func TestScanPageFootprint(t *testing.T) {
	db, tl := newStackOpts(t, engine.Options{PageSize: 1024, BufferFrames: 8192, MVCC: true})
	sizes := map[string]int{"small": 10_000, "large": 40_000}
	for _, name := range []string{"small", "large"} {
		tbl, err := db.CreateTable(name, "data")
		if err != nil {
			t.Fatal(err)
		}
		tx := mustBegin(t, db)
		for i := 0; i < sizes[name]; i++ {
			if _, err := tbl.Insert(tx, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := server.New(server.Config{DB: db, Timeline: tl})
	if err != nil {
		t.Fatal(err)
	}
	ts := srv.NewTestSession()
	const snap = 1
	ts.Handle(wire.Frame{ID: 1, Kind: wire.OpBeginSnapshot, Payload: txPayload(snap)})

	// walk scans table page by page and returns its row bytes, its
	// pages and the bytes the server allocated while serving them.
	walk := func(table string) (rowBytes, pages int, alloc uint64) {
		var before, after runtime.MemStats
		var resume wire.RID
		for {
			f := wire.Frame{ID: 2, Kind: wire.OpSnapshotScan, Payload: snapScanRequest(snap, table, resume, 0)}
			runtime.ReadMemStats(&before)
			ts.Handle(f)
			runtime.ReadMemStats(&after)
			alloc += after.TotalAlloc - before.TotalAlloc
			if c := ts.ReplyCap(); c > server.ScanPageBudget {
				t.Fatalf("%s page %d: reply buffer of %d bytes, a page is %d", table, pages, c, server.ScanPageBudget)
			}
			pg, err := decodeScanPage(ts.Reply())
			if err != nil {
				t.Fatalf("%s page %d: %v", table, pages, err)
			}
			rowBytes, pages = rowBytes+pg.bytes, pages+1
			if !pg.more {
				return rowBytes, pages, alloc
			}
			resume = pg.next
		}
	}
	walk("small") // fills the pool's frames, which are allocated on first use
	walk("large")
	smallBytes, smallPages, smallAlloc := walk("small")
	largeBytes, largePages, largeAlloc := walk("large")
	if smallBytes < 1_000_000 || largeBytes < 4*smallBytes-1000 {
		t.Fatalf("tables of %d and %d row bytes, want 1 MB and four times that", smallBytes, largeBytes)
	}
	perSmall, perLarge := smallAlloc/uint64(smallPages), largeAlloc/uint64(largePages)
	t.Logf("small: %d B in %d pages, %d B allocated (%d B a page); large: %d B in %d pages, %d B allocated (%d B a page)",
		smallBytes, smallPages, smallAlloc, perSmall, largeBytes, largePages, largeAlloc, perLarge)
	if perLarge > perSmall+perSmall/4+1024 {
		t.Errorf("the server allocates %d B a page scanning 4 MB, %d B scanning 1 MB: it grows with the table", perLarge, perSmall)
	}
	// A bound of 64 B a page, not 0: the server's background goroutines
	// may allocate while a page is served.
	if perSmall > 64 || perLarge > 64 {
		t.Errorf("the server allocates %d B a page scanning 1 MB and %d B scanning 4 MB, want about 0", perSmall, perLarge)
	}
	if largeAlloc > uint64(largeBytes)/8 {
		t.Errorf("scanning %d row bytes allocated %d B on the server: more than an eighth of the table", largeBytes, largeAlloc)
	}
}
