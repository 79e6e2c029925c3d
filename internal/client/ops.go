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
	data := r.Blob()
	return data, r.Err()
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

// ScanEntry is one tuple returned by Scan or SnapshotScan. The entries
// of one call share the response frame's payload, which that call alone
// owns.
type ScanEntry struct {
	RID  wire.RID
	Data []byte
}

// Scan returns up to limit committed tuples of a table (0 = all).
func (c *Conn) Scan(table string, limit uint32) ([]ScanEntry, error) {
	f, err := c.do(wire.OpScan, nil, func(b *wire.Builder) { b.String(table).Uint32(limit) })
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(f.Payload)
	count := r.Uint32()
	out := make([]ScanEntry, 0, count)
	for i := uint32(0); i < count; i++ {
		out = append(out, ScanEntry{RID: r.RID(), Data: r.BlobView()})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("client: malformed SCAN response: %w", err)
	}
	return out, nil
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
	data := r.Blob()
	return data, r.Err()
}

// SnapshotScan returns up to limit tuples (0 = all) visible at the
// snapshot transaction's pinned LSN.
func (c *Conn) SnapshotScan(tx uint64, table string, limit uint32) ([]ScanEntry, error) {
	f, err := c.do(wire.OpSnapshotScan, nil, func(b *wire.Builder) { b.Uint64(tx).String(table).Uint32(limit) })
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(f.Payload)
	count := r.Uint32()
	out := make([]ScanEntry, 0, count)
	for i := uint32(0); i < count; i++ {
		out = append(out, ScanEntry{RID: r.RID(), Data: r.BlobView()})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("client: malformed SNAPSCAN response: %w", err)
	}
	return out, nil
}

// Stats fetches the server's stats document as raw JSON.
func (c *Conn) Stats() ([]byte, error) {
	f, err := c.do(wire.OpStats, nil, nil)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(f.Payload)
	raw := r.Blob()
	return raw, r.Err()
}

// Ping round-trips an empty frame.
func (c *Conn) Ping() error {
	_, err := c.do(wire.OpPing, nil, nil)
	return err
}
