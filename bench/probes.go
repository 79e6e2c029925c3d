package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"ipa/internal/buffer"
	"ipa/internal/client"
	"ipa/internal/core"
	"ipa/internal/ecc"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/page"
	"ipa/internal/sim"
	"ipa/internal/wal"
	"ipa/internal/wire"
)

// Isolated layer probes: one goroutine calling one layer's public
// functions, so a layer's own cost can be told from its callers'. Each
// probe sets its state up once, then times n calls five times over and
// reports the median wall ns per call; allocations per call are exact
// (runtime.MemStats.Mallocs around the timed loop).

const probeReps = 5

// probeFn prepares state for total calls and returns the call to time
// and, when the state holds goroutines or sockets, how to release it.
type probeFn func(total int, quick bool) (op func(i int) error, done func(), err error)

// runProbe returns the median ns/op and allocs/op of fn over n calls.
func runProbe(n int, quick bool, fn probeFn) (nsPerOp, allocsPerOp float64, err error) {
	op, done, err := fn(probeReps*n, quick)
	if err != nil {
		return 0, 0, err
	}
	if done != nil {
		defer done()
	}
	ns := make([]float64, 0, probeReps)
	allocs := make([]float64, 0, probeReps)
	for r := 0; r < probeReps; r++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := r * n; i < (r+1)*n; i++ {
			if err := op(i); err != nil {
				return 0, 0, err
			}
		}
		el := time.Since(start)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(el.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(ns), median(allocs), nil
}

// probeSpec names a probe's outputs; allocs is "" when not reported.
// scale converts ns to the metric's unit (1 for ns, 1e-3 for µs).
type probeSpec struct {
	ns, allocs string
	scale      float64
	n          int
	fn         probeFn
}

func probeSpecs(quick bool) []probeSpec {
	specs := []probeSpec{
		{"flash.read_ns", "", 1, 20000, probeFlashRead},
		{"flash.program_ns", "", 1, 4096, probeFlashProgram},
		{"flash.program_delta_ns", "", 1, 16384, probeFlashDelta},
		{"flash.erase_ns", "", 1, 1024, probeFlashErase},
		{"noftl.read_ns", "", 1, 20000, probeNoFTLRead},
		{"noftl.write_ns", "", 1, 8192, probeNoFTLWrite(0.10)},
		{"noftl.write_delta_ns", "", 1, 16384, probeNoFTLDelta},
		{"noftl.write_gc_ns", "", 1, 8192, probeNoFTLWrite(0.85)},
		{"core.diff_ns", "", 1, 50000, probeDiff},
		{"core.delta_encode_ns", "", 1, 50000, probeDeltaEncode},
		{"page.delta_apply_ns", "", 1, 50000, probeDeltaApply},
		{"page.update_ns", "", 1, 200000, probePageUpdate},
		{"ecc.encode_page_ns", "", 1, 2000, probeECC},
		{"buffer.get_hit_ns", "", 1, 200000, probeBufferGet(true)},
		{"buffer.get_miss_ns", "", 1, 50000, probeBufferGet(false)},
		{"wal.append_ns", "wal.append_allocs", 1, 200000, probeWALAppend},
		{"wal.group_flush_ns", "", 1, 100000, probeWALGroupFlush},
		{"engine.tx_floor_us", "", 1e-3, 20000, probeTxFloor},
		{"engine.index_lookup_ns", "", 1, 200000, probeIndexLookup},
		{"wire.frame_rt_ns", "wire.frame_allocs", 1, 200000, probeFrame},
		{"server.ping_rt_us", "", 1e-3, 5000, probePing},
	}
	if quick {
		for i := range specs {
			specs[i].n = specs[i].n/50 + 16
		}
	}
	return specs
}

// runProbes runs every probe and returns the P metrics by name.
func runProbes(quick bool) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, s := range probeSpecs(quick) {
		ns, allocs, err := runProbe(s.n, quick, s.fn)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", s.ns, err)
		}
		out[s.ns] = ns * s.scale
		if s.allocs != "" {
			out[s.allocs] = allocs
		}
	}
	return out, nil
}

// --- flash -------------------------------------------------------------

const probePagesPerBlock = 64

// probeArray builds a one-chip 4 KiB SLC array with at least pages
// pages, on a timeline so chip occupancy is charged as in the workloads.
func probeArray(pages int) (*flash.Array, *sim.Worker, error) {
	g := flash.Geometry{
		Chips: 1, BlocksPerChip: pages/probePagesPerBlock + 1, PagesPerBlock: probePagesPerBlock,
		PageSize: flashPageSize, OOBSize: flashPageSize / 16, Cell: flash.SLC,
	}
	tl := sim.NewTimeline(1)
	arr, err := flash.New(flash.Config{
		Geometry: g, Timing: flash.SLCTiming(), StrictProgramOrder: true, MaxAppends: 8,
	}, tl)
	return arr, tl.NewWorker(), err
}

func probeFlashProgram(total int, _ bool) (func(int) error, func(), error) {
	arr, w, err := probeArray(total)
	if err != nil {
		return nil, nil, err
	}
	data := make([]byte, flashPageSize)
	return func(i int) error {
		_, err := arr.Program(w, flash.PPN(i), data, nil)
		return err
	}, nil, nil
}

// programmed returns an array whose first pages pages hold fill.
func programmed(pages int, fill byte) (*flash.Array, *sim.Worker, error) {
	arr, w, err := probeArray(pages)
	if err != nil {
		return nil, nil, err
	}
	data := bytes.Repeat([]byte{fill}, flashPageSize)
	for p := 0; p < pages; p++ {
		if _, err := arr.Program(w, flash.PPN(p), data, nil); err != nil {
			return nil, nil, err
		}
	}
	return arr, w, nil
}

func probeFlashRead(_ int, _ bool) (func(int) error, func(), error) {
	const pages = 1024
	arr, w, err := programmed(pages, 0xA5)
	if err != nil {
		return nil, nil, err
	}
	data, oob := make([]byte, flashPageSize), make([]byte, flashPageSize/16)
	return func(i int) error {
		_, err := arr.ReadInto(w, flash.PPN(i%pages), data, oob)
		return err
	}, nil, nil
}

// deltaLen is one [2×4] delta-record: what a write_delta programs.
var deltaLen = core.NewScheme(2, 4).RecordSize()

func probeFlashDelta(total int, _ bool) (func(int) error, func(), error) {
	// Eight appends per page, each into its own erased (all-ones) run.
	arr, w, err := programmed(total/8+1, 0xFF)
	if err != nil {
		return nil, nil, err
	}
	delta := make([]byte, deltaLen)
	return func(i int) error {
		_, err := arr.ProgramDelta(w, flash.PPN(i/8), (i%8)*deltaLen, delta, 0, nil)
		return err
	}, nil, nil
}

// probeFlashErase cycles over a few blocks: erasing costs the same
// whatever the block holds.
func probeFlashErase(_ int, _ bool) (func(int) error, func(), error) {
	const blocks = 128
	arr, w, err := probeArray(blocks * probePagesPerBlock)
	if err != nil {
		return nil, nil, err
	}
	return func(i int) error {
		_, err := arr.Erase(w, i%blocks)
		return err
	}, nil, nil
}

// --- noftl -------------------------------------------------------------

// probeRegion builds a one-chip region of physPages pages and writes
// logical pages 1..mapped.
func probeRegion(physPages, mapped int, fill byte) (*noftl.Region, *sim.Worker, error) {
	arr, w, err := probeArray(physPages)
	if err != nil {
		return nil, nil, err
	}
	r, err := noftl.Open(arr).CreateRegion(noftl.RegionConfig{
		Name: region, Mode: noftl.ModeSLC, Scheme: core.NewScheme(2, 4),
		BlocksPerChip: arr.Geometry().BlocksPerChip, OverProvision: 0.10,
	})
	if err != nil {
		return nil, nil, err
	}
	data := bytes.Repeat([]byte{fill}, flashPageSize)
	for id := 1; id <= mapped; id++ {
		if err := r.Write(w, core.PageID(id), data, nil); err != nil {
			return nil, nil, err
		}
	}
	return r, w, nil
}

func probeNoFTLRead(_ int, _ bool) (func(int) error, func(), error) {
	const pages = 1024
	r, w, err := probeRegion(2*pages, pages, 0xA5)
	if err != nil {
		return nil, nil, err
	}
	data := make([]byte, flashPageSize)
	return func(i int) error { return r.ReadInto(w, core.PageID(i%pages+1), data, nil) }, nil, nil
}

func probeNoFTLDelta(total int, _ bool) (func(int) error, func(), error) {
	pages := total/8 + 1
	r, w, err := probeRegion(pages+pages/4+256, pages, 0xFF)
	if err != nil {
		return nil, nil, err
	}
	delta := make([]byte, deltaLen)
	return func(i int) error {
		return r.WriteDelta(w, core.PageID(i/8+1), (i%8)*deltaLen, delta, 0, nil)
	}, nil, nil
}

// probeNoFTLWrite times out-of-place overwrites of a region filled to
// util of its physical pages, collector included. At 0.10 a victim
// block holds no valid page and is only erased; at 0.85 the collector
// migrates pages. The device is cycled once before timing so the
// collector is in steady state.
func probeNoFTLWrite(util float64) probeFn {
	return func(int, bool) (func(int) error, func(), error) {
		const phys = 4096
		mapped := int(util * phys)
		r, w, err := probeRegion(phys, mapped, 0xA5)
		if err != nil {
			return nil, nil, err
		}
		data := make([]byte, flashPageSize)
		// A fixed stride visits the pages in a scattered, repeatable order.
		next := func(i int) core.PageID { return core.PageID(i*7919%mapped + 1) }
		for i := 0; i < phys; i++ {
			if err := r.Write(w, next(i), data, nil); err != nil {
				return nil, nil, err
			}
		}
		return func(i int) error { return r.Write(w, next(phys+i), data, nil) }, nil, nil
	}
}

// --- core, page, ecc ---------------------------------------------------

var probeLayout = page.Layout{PageSize: flashPageSize, Scheme: core.NewScheme(2, 4)}

// probePage formats a page full of 100-byte rows.
func probePage() (*page.Page, error) {
	pg, err := page.Format(make([]byte, flashPageSize), probeLayout, 1)
	if err != nil {
		return nil, err
	}
	row := rowSchema.New()
	for {
		if _, err := pg.Insert(row); err != nil {
			return pg, nil // full
		}
	}
}

// bump adds to the balance of the row in slot, as AddField does.
func bump(pg *page.Page, slot int, delta uint64) error {
	old, err := pg.ReadTuple(slot)
	if err != nil {
		return err
	}
	row := append([]byte(nil), old...)
	rowSchema.AddUint(row, fBalance, delta)
	return pg.Update(slot, row)
}

// probeDiff diffs a page against its flushed image with three changed
// 8-byte ranges.
func probeDiff(_ int, _ bool) (func(int) error, func(), error) {
	pg, err := probePage()
	if err != nil {
		return nil, nil, err
	}
	flushed := append([]byte(nil), pg.Buf()...)
	for _, slot := range []int{1, 9, 17} {
		if err := bump(pg, slot, 0x0102030405060708); err != nil {
			return nil, nil, err
		}
	}
	var cs core.ChangeSet
	var rbuf [4]core.ClassRange
	return func(int) error {
		return core.DiffInto(&cs, pg.Buf(), flushed, pg.ClassRanges(rbuf[:0]))
	}, nil, nil
}

// smallChange returns the flushed image of a page and the change set of
// one TPC-B sized update to it: a few low balance bytes plus the page
// LSN.
func smallChange() ([]byte, core.ChangeSet, error) {
	pg, err := probePage()
	if err != nil {
		return nil, core.ChangeSet{}, err
	}
	flushed := append([]byte(nil), pg.Buf()...)
	if err := bump(pg, 3, 0x010203); err != nil {
		return nil, core.ChangeSet{}, err
	}
	pg.SetLSN(0x0102)
	var cs core.ChangeSet
	var rbuf [4]core.ClassRange
	err = core.DiffInto(&cs, pg.Buf(), flushed, pg.ClassRanges(rbuf[:0]))
	return flushed, cs, err
}

// probeDeltaEncode plans and encodes the delta-records of a small change.
func probeDeltaEncode(_ int, _ bool) (func(int) error, func(), error) {
	_, cs, err := smallChange()
	if err != nil {
		return nil, nil, err
	}
	return func(int) error {
		recs, err := probeLayout.Scheme.Plan(cs, 0)
		if err != nil {
			return err
		}
		_, _, err = page.EncodeRecords(probeLayout, 0, recs)
		return err
	}, nil, nil
}

// probeDeltaApply reconstructs the logical page from a physical image
// that carries the delta-records of a small change.
func probeDeltaApply(_ int, _ bool) (func(int) error, func(), error) {
	raw, cs, err := smallChange()
	if err != nil {
		return nil, nil, err
	}
	recs, err := probeLayout.Scheme.Plan(cs, 0)
	if err != nil {
		return nil, nil, err
	}
	off, enc, err := page.EncodeRecords(probeLayout, 0, recs)
	if err != nil {
		return nil, nil, err
	}
	das := probeLayout.DeltaAreaStart()
	area := append([]byte(nil), raw[das:]...)
	copy(area[off-das:], enc)
	return func(int) error {
		// Reconstruct wipes the delta area; put the records back.
		copy(raw[das:], area)
		applied, err := page.Reconstruct(raw, probeLayout)
		if err == nil && applied != len(recs) {
			err = fmt.Errorf("applied %d records, want %d", applied, len(recs))
		}
		return err
	}, nil, nil
}

func probePageUpdate(_ int, _ bool) (func(int) error, func(), error) {
	pg, err := probePage()
	if err != nil {
		return nil, nil, err
	}
	row := rowSchema.New()
	slots := pg.SlotCount()
	return func(i int) error {
		rowSchema.SetUint(row, fBalance, uint64(i))
		return pg.Update(i%slots, row)
	}, nil, nil
}

func probeECC(_ int, _ bool) (func(int) error, func(), error) {
	body := bytes.Repeat([]byte{0x5A}, probeLayout.DeltaAreaStart())
	return func(int) error {
		if len(ecc.Encode(body)) == 0 {
			return fmt.Errorf("ecc: empty code")
		}
		return nil
	}, nil, nil
}

// --- buffer ------------------------------------------------------------

// memStore is a page store with no device behind it, so the pool's own
// cost is what the probe times.
type memStore struct{}

func (memStore) Fetch(_ *sim.Worker, id core.PageID, buf []byte) (int, error) {
	buf[0] = byte(id)
	return 0, nil
}

func (memStore) Flush(_ *sim.Worker, fr *buffer.Frame) error {
	fr.Flushed = append(fr.Flushed[:0], fr.Data...)
	fr.New = false
	return nil
}

// probeBufferGet times Get+Unpin of a clean page: resident (hit), or
// cycling through four times the pool so every Get evicts (miss).
func probeBufferGet(hit bool) probeFn {
	return func(int, bool) (func(int) error, func(), error) {
		const frames = 1024
		pool, err := buffer.New(buffer.Config{Frames: frames, PageSize: flashPageSize, Shards: 8}, memStore{})
		if err != nil {
			return nil, nil, err
		}
		ids := 4 * frames
		if hit {
			ids = frames / 2
		}
		get := func(i int) error {
			fr, err := pool.Get(nil, core.PageID(i%ids+1))
			if err != nil {
				return err
			}
			return pool.Unpin(nil, fr, false, 0)
		}
		for i := 0; i < ids; i++ {
			if err := get(i); err != nil {
				return nil, nil, err
			}
		}
		return get, nil, nil
	}
}

// --- wal ---------------------------------------------------------------

// probeWALAppend appends update records with 8-byte images, the TPC-B
// balance delta.
func probeWALAppend(_ int, _ bool) (func(int) error, func(), error) {
	log := wal.NewLog(0)
	before, after := make([]byte, 8), make([]byte, 8)
	return func(i int) error {
		log.Append(wal.Record{Type: wal.RecUpdate, TxID: 1, Page: core.PageID(i), Op: wal.OpUpdate, Before: before, After: after})
		return nil
	}, nil, nil
}

// probeWALGroupFlush appends a commit record and group-flushes it, with
// no other committer to share the flush.
func probeWALGroupFlush(_ int, _ bool) (func(int) error, func(), error) {
	log := wal.NewLog(0)
	return func(i int) error {
		log.GroupFlush(log.Append(wal.Record{Type: wal.RecCommit, TxID: uint64(i)}))
		return nil
	}, nil, nil
}

// --- engine ------------------------------------------------------------

// probeTxFloor runs the TPC-B script with one client, in process, on
// the buffer-resident database of tpcb-wire: the first step of the
// in-process → wire → cluster staircase. Like the wire script it looks
// nothing up in an index.
func probeTxFloor(_ int, quick bool) (func(int) error, func(), error) {
	e, err := newServedDB(quick)
	if err != nil {
		return nil, nil, err
	}
	d, err := loadTPCB(e.db, e.tl.NewWorker(), servedScale(quick), false)
	if err != nil {
		e.close()
		return nil, nil, err
	}
	c := &embeddedTPCB{d: d, db: e.db, w: e.tl.NewWorker(), gen: newTPCBGen(d.scale, 0, 1, 1)}
	return func(int) error {
		_, err := c.do()
		return err
	}, e.close, nil
}

// probeIndexLookup looks keys up in a buffer-resident OLC index.
func probeIndexLookup(_ int, _ bool) (func(int) error, func(), error) {
	e, err := newFlashDB(flashPagesFor(0), 4096, 1)
	if err != nil {
		return nil, nil, err
	}
	const keys = 64000
	ix, err := e.db.CreateIndex("probe", region)
	for k := uint64(1); err == nil && k <= keys; k++ {
		err = ix.Insert(nil, k, core.RID{Page: core.PageID(k), Slot: 1})
	}
	if err != nil {
		e.close()
		return nil, nil, err
	}
	return func(i int) error {
		_, ok, err := ix.Lookup(nil, uint64(i*7919%keys+1))
		if err == nil && !ok {
			err = fmt.Errorf("index: key missing")
		}
		return err
	}, e.close, nil
}

// --- wire, server ------------------------------------------------------

// probeFrame writes one 64-byte frame into a buffer and reads it back.
func probeFrame(_ int, _ bool) (func(int) error, func(), error) {
	var buf bytes.Buffer
	payload := make([]byte, 64)
	return func(i int) error {
		buf.Reset()
		if err := wire.WriteFrame(&buf, uint64(i), wire.OpPing, payload); err != nil {
			return err
		}
		_, err := wire.ReadFrame(&buf, wire.MaxFrame)
		return err
	}, nil, nil
}

// probePing is a loopback round trip that touches no engine code.
func probePing(_ int, quick bool) (func(int) error, func(), error) {
	s, err := newStandalone(quick)
	if err != nil {
		return nil, nil, err
	}
	conn, err := client.Dial(s.addr, client.Options{})
	if err != nil {
		s.close()
		return nil, nil, err
	}
	return func(int) error { return conn.Ping() }, func() { conn.Close(); s.close() }, nil
}
