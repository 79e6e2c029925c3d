package server_test

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"ipa/internal/client"
	"ipa/internal/engine"
	"ipa/internal/server"
	"ipa/internal/wire"
)

// TestSnapshotOverWire drives the BEGIN_SNAPSHOT / SNAPREAD / SNAPSCAN
// opcode family end to end: a network snapshot keeps returning the
// pre-update tuple states while a concurrent connection commits
// updates, the scan count stays frozen across a concurrent insert, and
// the admin stats document carries the new MVCC and abort counters.
func TestSnapshotOverWire(t *testing.T) {
	db, tl := newStackOpts(t, engine.Options{BufferFrames: 512, MVCC: true})
	srv, addr, _ := startServer(t, db, tl, server.Config{})
	defer srv.Shutdown(5 * time.Second)

	writer, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	reader, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	if _, err := db.CreateTable("kv", "data"); err != nil {
		t.Fatal(err)
	}
	tx, err := writer.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rids := make([]wire.RID, 3)
	for i := range rids {
		if rids[i], err = writer.Insert(tx, "kv", []byte("old-"+string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.Commit(tx); err != nil {
		t.Fatal(err)
	}

	snap, snapLSN, err := reader.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snapLSN == 0 {
		t.Fatal("snapshot LSN is zero")
	}

	// Concurrent writer: update one tuple, insert another, commit.
	tx2, err := writer.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.UpdateAsync(tx2, "kv", rids[0], []byte("new-a")).Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Insert(tx2, "kv", []byte("new-d")); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(tx2); err != nil {
		t.Fatal(err)
	}

	// The snapshot still sees the pre-update state.
	got, err := reader.SnapshotRead(snap, "kv", rids[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old-a" {
		t.Fatalf("snapshot read = %q, want old-a", got)
	}
	entries, err := reader.SnapshotScan(snap, "kv", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("snapshot scan saw %d tuples, want 3 (insert after snapshot must be invisible)", len(entries))
	}
	// A plain (latest-state) read sees the new value and 4 tuples.
	if latest, err := reader.Read("kv", rids[0]); err != nil || string(latest) != "new-a" {
		t.Fatalf("latest read = %q, %v; want new-a", latest, err)
	}
	if all, err := reader.Scan("kv", 0); err != nil || len(all) != 4 {
		t.Fatalf("latest scan = %d tuples, %v; want 4", len(all), err)
	}
	if err := reader.Commit(snap); err != nil {
		t.Fatal(err)
	}

	// Snapshot ops on a finished snapshot answer StatusTxClosed.
	if _, err := reader.SnapshotRead(snap, "kv", rids[0]); !errors.Is(err, wire.ErrTxClosed) {
		t.Fatalf("read on finished snapshot: %v, want ErrTxClosed", err)
	}

	// The stats document exposes MVCC counters and aborts-by-reason.
	raw, err := reader.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var doc server.StatsDocument
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Engine.MVCC.Enabled {
		t.Fatal("stats document reports MVCC disabled")
	}
	if doc.Engine.MVCC.SnapshotsStarted == 0 || doc.Engine.MVCC.SnapshotReads == 0 || doc.Engine.MVCC.SnapshotScans == 0 {
		t.Fatalf("MVCC counters not plumbed: %+v", doc.Engine.MVCC)
	}
}

// TestSnapshotRequiresMVCC: BEGIN_SNAPSHOT against a non-MVCC engine
// answers StatusBadRequest without disturbing the connection.
func TestSnapshotRequiresMVCC(t *testing.T) {
	db, tl := newStack(t)
	srv, addr, _ := startServer(t, db, tl, server.Config{})
	defer srv.Shutdown(5 * time.Second)

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.BeginSnapshot(); !errors.Is(err, wire.ErrBadRequest) {
		t.Fatalf("BeginSnapshot without MVCC: %v, want ErrBadRequest", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after rejected snapshot: %v", err)
	}
}
