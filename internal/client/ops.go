package client

import (
	"fmt"

	"ipa/internal/wire"
)

// Begin opens a transaction under a fresh handle and returns it.
func (c *Conn) Begin() (uint64, error) {
	tx := c.NewTxID()
	_, err := c.do(wire.OpBegin, nil, func(b *wire.Builder) { b.Uint64(tx) })
	return tx, err
}

// BeginAsync opens a transaction under the given handle (from NewTxID)
// without waiting for the response.
func (c *Conn) BeginAsync(tx uint64) *Pending {
	return c.send(wire.OpBegin, nil, func(b *wire.Builder) { b.Uint64(tx) })
}

// Commit commits a transaction.
func (c *Conn) Commit(tx uint64) error {
	_, err := c.do(wire.OpCommit, nil, func(b *wire.Builder) { b.Uint64(tx) })
	return err
}

// CommitAsync pipelines a commit.
func (c *Conn) CommitAsync(tx uint64) *Pending {
	return c.send(wire.OpCommit, nil, func(b *wire.Builder) { b.Uint64(tx) })
}

// Abort rolls a transaction back.
func (c *Conn) Abort(tx uint64) error {
	_, err := c.do(wire.OpAbort, nil, func(b *wire.Builder) { b.Uint64(tx) })
	return err
}

// Insert adds a tuple and returns its record id.
func (c *Conn) Insert(tx uint64, table string, data []byte) (wire.RID, error) {
	f, err := c.InsertAsync(tx, table, data).Wait()
	if err != nil {
		return wire.RID{}, err
	}
	r := wire.NewReader(f.Payload)
	rid := r.RID()
	return rid, r.Err()
}

// InsertAsync pipelines an insert; Wait's frame payload is the rid.
func (c *Conn) InsertAsync(tx uint64, table string, data []byte) *Pending {
	return c.send(wire.OpInsert, nil, func(b *wire.Builder) {
		b.Uint64(tx).String(table).Blob(data)
	})
}

// Read fetches a committed tuple outside any transaction.
func (c *Conn) Read(table string, rid wire.RID) ([]byte, error) {
	f, err := c.do(wire.OpRead, nil, func(b *wire.Builder) { b.String(table).RID(rid) })
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(f.Payload)
	return r.Blob(), r.Err()
}

// ReadAsync pipelines a read; Wait's frame payload is the tuple blob.
func (c *Conn) ReadAsync(table string, rid wire.RID) *Pending {
	return c.send(wire.OpRead, nil, func(b *wire.Builder) { b.String(table).RID(rid) })
}

// UpdateAsync pipelines a whole-tuple update.
func (c *Conn) UpdateAsync(tx uint64, table string, rid wire.RID, data []byte) *Pending {
	return c.send(wire.OpUpdate, nil, func(b *wire.Builder) {
		b.Uint64(tx).String(table).RID(rid).Blob(data)
	})
}

// UpdateFieldAsync pipelines a field update: `val` bytes at byte offset
// `off` of a tuple — the small in-place delta the IPA engine turns into
// an OOB append.
func (c *Conn) UpdateFieldAsync(tx uint64, table string, rid wire.RID, off int, val []byte) *Pending {
	return c.send(wire.OpUpdateField, nil, func(b *wire.Builder) {
		b.Uint64(tx).String(table).RID(rid).Uint32(uint32(off)).Blob(val)
	})
}

// AddFieldAsync pipelines a field increment: delta is added to the
// 8-byte little-endian word at byte offset off, server-side under the
// tuple lock — the atomic balance increment TPC-B style workloads need
// (an absolute field update computed from a stale client-side read
// loses concurrent increments).
func (c *Conn) AddFieldAsync(tx uint64, table string, rid wire.RID, off int, delta uint64) *Pending {
	return c.send(wire.OpAddField, nil, func(b *wire.Builder) {
		b.Uint64(tx).String(table).RID(rid).Uint32(uint32(off)).Uint64(delta)
	})
}

// Delete removes a tuple.
func (c *Conn) Delete(tx uint64, table string, rid wire.RID) error {
	_, err := c.do(wire.OpDelete, nil, func(b *wire.Builder) { b.Uint64(tx).String(table).RID(rid) })
	return err
}

// ScanEntry is one tuple returned by Scan or SnapshotScan. Its Data
// aliases the payload of the page it arrived in, which that call alone
// owns.
type ScanEntry struct {
	RID  wire.RID
	Data []byte
}

// Scan returns up to limit committed tuples of a table (0 = all), in
// ascending RID order, fetched a page at a time. Each page is read at
// its own moment: a row changed between two pages shows in the later
// page's state. A consistent read of a whole table is SnapshotScan.
func (c *Conn) Scan(table string, limit uint32) ([]ScanEntry, error) {
	return c.scanPages(wire.OpScan, limit, func(b *wire.Builder, after wire.RID, want uint32) {
		b.String(table).RID(after).Uint32(want)
	})
}

// scanPages sends op page after page, each request encoded by enc with
// the RID to resume after and the rows still wanted, until the server
// says the table is done or limit rows (0: no limit) have arrived. The
// pages are checked as they come and decoded once the last is in, into
// a slice of exactly their rows.
func (c *Conn) scanPages(op byte, limit uint32, enc func(b *wire.Builder, after wire.RID, want uint32)) ([]ScanEntry, error) {
	var pages [][]byte
	var after wire.RID
	var total uint32
	for {
		want := uint32(0)
		if limit > 0 {
			want = limit - total
		}
		f, err := c.do(op, nil, func(b *wire.Builder) { enc(b, after, want) })
		if err != nil {
			return nil, err
		}
		rows, next, more, err := checkPage(f.Payload, after, want)
		if err != nil {
			return nil, fmt.Errorf("client: malformed %s page: %w", wire.OpName(op), err)
		}
		pages, after, total = append(pages, f.Payload), next, total+rows
		if !more || (limit > 0 && total == limit) {
			break
		}
	}
	out := make([]ScanEntry, 0, total)
	for _, p := range pages {
		out = appendRows(out, p)
	}
	return out, nil
}

// pageRow is the least a page row takes: its RID and its blob's length.
const pageRow = 10 + 4

// checkPage checks one SCAN or SNAPSCAN page, the reply to a request
// that resumed after after and wanted want rows (0: any number), and
// returns its row count, the RID to resume after and whether the table
// goes on. A page is malformed unless every byte belongs to its layout,
// its rows ascend strictly from after, it holds no more rows than
// wanted, and a page that goes on resumes past after and past its last
// row: so a scan that follows pages returns every RID at most once and
// cannot loop.
func checkPage(p []byte, after wire.RID, want uint32) (uint32, wire.RID, bool, error) {
	r := wire.NewReader(p)
	count := r.Uint32()
	if err := r.Err(); err != nil {
		return 0, after, false, err
	}
	if uint64(count)*pageRow > uint64(r.Len()) {
		return 0, after, false, fmt.Errorf("%d rows cannot fit %d bytes", count, r.Len())
	}
	if want > 0 && count > want {
		return 0, after, false, fmt.Errorf("%d rows where %d were wanted", count, want)
	}
	last := after
	for i := uint32(0); i < count; i++ {
		rid := r.RID()
		r.Blob()
		if r.Err() == nil && !ridLess(last, rid) {
			return 0, after, false, fmt.Errorf("row %v does not follow %v", rid, last)
		}
		last = rid
	}
	more := r.Byte()
	next := last
	if more == 1 {
		next = r.RID()
	}
	switch err := r.End(); {
	case err != nil:
		return 0, after, false, err
	case more > 1:
		return 0, after, false, fmt.Errorf("more flag %d", more)
	case more == 1 && (ridLess(next, last) || next == after):
		return 0, after, false, fmt.Errorf("resume RID %v is behind the page (after %v, last row %v)", next, after, last)
	}
	return count, next, more == 1, nil
}

// appendRows appends the rows of a page checkPage accepted to dst;
// their Data aliases p.
func appendRows(dst []ScanEntry, p []byte) []ScanEntry {
	r := wire.NewReader(p)
	for n := r.Uint32(); n > 0; n-- {
		dst = append(dst, ScanEntry{RID: r.RID(), Data: r.Blob()})
	}
	return dst
}

// ridLess orders RIDs as scans visit them: by page, then slot.
func ridLess(a, b wire.RID) bool {
	return a.Page < b.Page || (a.Page == b.Page && a.Slot < b.Slot)
}

// BeginSnapshot opens a read-only snapshot transaction under a fresh
// handle, returning the handle and the pinned snapshot LSN. Reads and
// scans through it (SnapshotRead/SnapshotScan) observe the database
// frozen at that LSN, hold no locks and never abort on writer
// conflicts; end it with Commit or Abort like any transaction. Requires
// the server's engine to run with MVCC enabled (StatusBadRequest
// otherwise).
func (c *Conn) BeginSnapshot() (tx uint64, snapshotLSN uint64, err error) {
	tx = c.NewTxID()
	f, err := c.do(wire.OpBeginSnapshot, nil, func(b *wire.Builder) { b.Uint64(tx) })
	if err != nil {
		return 0, 0, err
	}
	r := wire.NewReader(f.Payload)
	snapshotLSN = r.Uint64()
	return tx, snapshotLSN, r.Err()
}

// SnapshotRead fetches a tuple as of the snapshot transaction's pinned
// LSN.
func (c *Conn) SnapshotRead(tx uint64, table string, rid wire.RID) ([]byte, error) {
	f, err := c.do(wire.OpSnapshotRead, nil, func(b *wire.Builder) { b.Uint64(tx).String(table).RID(rid) })
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(f.Payload)
	return r.Blob(), r.Err()
}

// SnapshotScan returns up to limit tuples (0 = all) visible at the
// snapshot transaction's pinned LSN, in ascending RID order, fetched a
// page at a time; every page reads the one snapshot.
func (c *Conn) SnapshotScan(tx uint64, table string, limit uint32) ([]ScanEntry, error) {
	return c.scanPages(wire.OpSnapshotScan, limit, func(b *wire.Builder, after wire.RID, want uint32) {
		b.Uint64(tx).String(table).RID(after).Uint32(want)
	})
}

// Stats fetches the server's stats document as raw JSON.
func (c *Conn) Stats() ([]byte, error) {
	f, err := c.do(wire.OpStats, nil, nil)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(f.Payload)
	return r.Blob(), r.Err()
}

// Ping round-trips an empty frame.
func (c *Conn) Ping() error {
	_, err := c.do(wire.OpPing, nil, nil)
	return err
}
