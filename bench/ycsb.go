package main

import (
	"fmt"
	"math/rand"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/sim"
)

// The read-mostly workload: one table with an OLC index, uniform keys,
// 90 % point reads (Index.Lookup + Table.Read) and 10 % 8-byte field
// updates in a transaction. It drives the same buffer, NoFTL and flash
// layers as TPC-B through the fetch path instead of the flush path.

const (
	ycsbTable    = "usertable"
	ycsbUpdatePc = 10
	// simOpCPU is the simulated CPU charge of one single-row operation:
	// a fifth of the five-call TPC-B transaction's.
	simOpCPU = simTxCPU / 5
)

// Row layout: key(8) counter(8) filler(84).
const (
	yKey, yCounter = 0, 1
	counterOff     = 8
)

var ycsbSchema = mustSchema(8, 8, 84)

type ycsbData struct {
	rows  int
	table *engine.Table
	index engine.Index
	rids  []core.RID
}

func loadYCSB(db *engine.DB, w *sim.Worker, rows int) (*ycsbData, error) {
	d := &ycsbData{rows: rows, rids: make([]core.RID, 0, rows)}
	var err error
	if d.table, err = db.CreateTable(ycsbTable, region); err != nil {
		return nil, err
	}
	if d.index, err = db.CreateIndex("usertable_pk", region); err != nil {
		return nil, err
	}
	tx, err := db.Begin(w)
	if err != nil {
		return nil, err
	}
	for k := 0; k < rows; k++ {
		row := ycsbSchema.New()
		ycsbSchema.SetUint(row, yKey, uint64(k+1))
		rid, err := d.table.Insert(tx, row)
		if err != nil {
			return nil, fmt.Errorf("load %s %d: %w", ycsbTable, k, err)
		}
		if err := d.index.Insert(w, uint64(k+1), rid); err != nil {
			return nil, err
		}
		d.rids = append(d.rids, rid)
		if k%2000 == 1999 {
			if err := tx.Commit(); err != nil {
				return nil, err
			}
			if tx, err = db.Begin(w); err != nil {
				return nil, err
			}
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return d, db.FlushAll(w)
}

// ycsbClient is one closed-loop client. Reads draw from every key;
// updates only from the client's own keys (key ≡ client mod clients),
// so no update loses a lock race. The first aging operations are all
// updates: at 10 % updates the warm-up would otherwise end long before
// the device is full, and the collector would start at some point
// inside the measured phase.
type ycsbClient struct {
	d               *ycsbData
	db              *engine.DB
	w               *sim.Worker
	rng             *rand.Rand
	client, clients int
	tr              *tracer
	aging           int
	updates         uint64 // committed
}

func (c *ycsbClient) simNow() sim.Time { return c.w.Now() }
func (c *ycsbClient) close()           {}

func (c *ycsbClient) do() (outcome, error) {
	tr := c.tr
	c.w.Compute(simOpCPU)
	update := c.rng.Intn(100) < ycsbUpdatePc
	if c.aging > 0 {
		c.aging--
		update = true
	}
	k := c.rng.Intn(c.d.rows)
	if update {
		k = k - k%c.clients + c.client
		if k >= c.d.rows {
			k -= c.clients
		}
	}

	at := tr.now()
	rid, ok, err := c.d.index.Lookup(c.w, uint64(k+1))
	tr.child(spIdxLookup, at)
	if err != nil {
		return broken, err
	}
	if !ok || rid != c.d.rids[k] {
		return broken, fmt.Errorf("ycsb: index returned %v (found %v) for key %d", rid, ok, k+1)
	}

	if !update {
		at = tr.now()
		row, err := c.d.table.Read(c.w, rid)
		tr.child(spRead, at)
		if err != nil {
			return broken, err
		}
		if got := ycsbSchema.GetUint(row, yKey); got != uint64(k+1) {
			return broken, fmt.Errorf("ycsb: read of key %d returned key %d", k+1, got)
		}
		return committed, nil
	}

	at = tr.now()
	tx, err := c.db.Begin(c.w)
	tr.child(spBegin, at)
	if err != nil {
		return broken, err
	}
	at = tr.now()
	err = c.d.table.AddField(tx, rid, counterOff, 1)
	tr.child(spAddField, at)
	if err != nil {
		return abortEmbedded(tx, err)
	}
	at = tr.now()
	err = tx.Commit()
	tr.child(spCommit, at)
	if err != nil {
		return broken, err
	}
	c.updates++
	return committed, nil
}

// checkYCSB verifies the update counters add up to the committed
// updates and every row still carries its own key.
func checkYCSB(where string, scan tableScan, d *ycsbData, clients []*ycsbClient) []string {
	var fails []string
	var total uint64
	n, badKeys := 0, 0
	err := scan(ycsbTable, func(tup []byte) {
		n++
		total += ycsbSchema.GetUint(tup, yCounter)
		if k := ycsbSchema.GetUint(tup, yKey); k < 1 || k > uint64(d.rows) {
			badKeys++
		}
	})
	if err != nil {
		fails = append(fails, fmt.Sprintf("%s: scan %s: %v", where, ycsbTable, err))
	}
	var want uint64
	for _, c := range clients {
		want += c.updates
	}
	if n != d.rows || badKeys > 0 {
		fails = append(fails, fmt.Sprintf("%s: %d rows (%d with a foreign key), want %d", where, n, badKeys, d.rows))
	}
	if total != want {
		fails = append(fails, fmt.Sprintf("%s: update counters sum to %d, committed updates to %d", where, total, want))
	}
	return fails
}
