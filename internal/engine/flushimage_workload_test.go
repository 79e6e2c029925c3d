package engine_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
	"ipa/internal/workload"
)

// TestFlushedImageWorkloads runs the flushed-image property (see
// TestFlushedImageApplier) under concurrent terminals: a small TPC-B,
// whose field updates patch tuples in place and whose history inserts
// allocate pages, and a key-value mix (kvMix) on an index that starts
// with a single leaf, so the inserts of the load and of the run split
// it level by level. The pool holds a fraction of either database and
// is sharded, with the eager cleaner on, so flushes come from
// evictions, cleaner passes and log reclaims while other terminals
// change the same pages.
func TestFlushedImageWorkloads(t *testing.T) {
	for _, cell := range engine.RegionCells {
		for _, mvcc := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/mvcc=%v", cell.Name, mvcc), func(t *testing.T) {
				db, tl, err := engine.Open(engine.Spec{
					Geometry: flash.Geometry{Chips: 4, BlocksPerChip: 64, PagesPerBlock: 16, PageSize: 1024, Cell: flash.SLC},
					Regions:  []noftl.RegionConfig{cell.Config("main", 64)},
					Options: engine.Options{
						BufferFrames: 24, PoolShards: 4, LogCapacity: 1 << 18, LogReclaimThreshold: 0.4, MVCC: mvcc,
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				if err := db.VerifyFlushedImages(func(err error) { t.Error(err) }); err != nil {
					t.Fatal(err)
				}

				loader := tl.NewWorker()
				terminals := make([]*sim.Worker, 4)
				run := func(wl workload.Workload, txs int) {
					t.Helper()
					for i := range terminals {
						terminals[i] = tl.NewWorker()
						terminals[i].SetNow(loader.Now())
					}
					if runTerminals(t, wl, terminals, txs) == 0 {
						t.Fatalf("%s: nothing committed", wl.Name())
					}
				}

				b := workload.NewTPCB(db, "main", 2, 400)
				if err := b.Load(loader); err != nil {
					t.Fatal(err)
				}
				run(b, 600)

				kv := &kvMix{db: db, records: 400}
				if err := kv.Load(loader); err != nil {
					t.Fatal(err)
				}
				run(kv, 1200)
				if err := db.FlushAll(loader); err != nil {
					t.Fatal(err)
				}

				st := db.Store("main").Stats()
				if flushed := st.FlushesDelta + st.FlushesOOP; flushed < 500 {
					t.Errorf("%d pages flushed; the pool is meant to be too small for the run", flushed)
				}
				if ix := kv.idx.Stats(); ix.Inserts < 500 {
					t.Errorf("%d index inserts", ix.Inserts)
				}
			})
		}
	}
}

// runTerminals runs txs transactions of wl spread over the terminals,
// one goroutine each, and returns how many committed. A transaction that
// loses a no-wait lock race is dropped, as a terminal would drop it; any
// other error fails the test.
func runTerminals(t *testing.T, wl workload.Workload, terminals []*sim.Worker, txs int) int64 {
	var committed atomic.Int64
	var wg sync.WaitGroup
	for i, w := range terminals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7 + i)))
			for n := i; n < txs; n += len(terminals) {
				w.Compute(workload.TxCPUTime)
				_, err := wl.RunOne(w, rng)
				if err != nil && !errors.Is(err, engine.ErrLockConflict) {
					t.Errorf("%s: %v", wl.Name(), err)
					return
				}
				if err == nil {
					committed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return committed.Load()
}

// kvMix is a key-value workload on one table and its index: 40 % point
// reads, 35 % updates, 20 % inserts of fresh keys and 5 % short range
// scans, with keys skewed towards the low end. A key drawn while its
// insert is still in flight is a clean miss.
type kvMix struct {
	db      *engine.DB
	records int
	table   *engine.Table
	idx     engine.Index
	sch     *engine.Schema // key(8) counter(8) filler(84)
	next    atomic.Uint64  // highest key assigned so far
}

func (m *kvMix) Name() string { return "kv" }

func (m *kvMix) Load(w *sim.Worker) error {
	var err error
	if m.sch, err = engine.NewSchema(8, 8, 84); err != nil {
		return err
	}
	if m.table, err = m.db.CreateTable("kv", "main"); err != nil {
		return err
	}
	if m.idx, err = m.db.CreateIndex("kv_pk", "main"); err != nil {
		return err
	}
	for k := 1; k <= m.records; k++ {
		if err := m.insert(w, m.next.Add(1)); err != nil {
			return err
		}
	}
	return nil
}

func (m *kvMix) insert(w *sim.Worker, k uint64) error {
	tx, err := m.db.Begin(w)
	if err != nil {
		return err
	}
	tup := m.sch.New()
	m.sch.SetUint(tup, 0, k)
	rid, err := m.table.Insert(tx, tup)
	if err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	return m.idx.Insert(w, k, rid)
}

func (m *kvMix) RunOne(w *sim.Worker, rng *rand.Rand) (string, error) {
	k := uint64(rng.Int63n(rng.Int63n(int64(m.next.Load()))+1)) + 1
	switch p := rng.Intn(100); {
	case p < 40:
		rid, ok, err := m.idx.Lookup(w, k)
		if err != nil || !ok {
			return "read", err
		}
		_, err = m.table.Read(w, rid)
		return "read", err
	case p < 75:
		rid, ok, err := m.idx.Lookup(w, k)
		if err != nil || !ok {
			return "update", err
		}
		tx, err := m.db.Begin(w)
		if err != nil {
			return "update", err
		}
		cur, err := m.table.Read(w, rid)
		if err == nil {
			m.sch.SetUint(cur, 1, rng.Uint64())
			err = m.table.Update(tx, rid, cur)
		}
		if err != nil {
			tx.Abort()
			return "update", err
		}
		return "update", tx.Commit()
	case p < 95:
		return "insert", m.insert(w, m.next.Add(1))
	default:
		n := 0
		return "scan", m.idx.Range(w, k, ^uint64(0)>>1, func(uint64, core.RID) bool {
			n++
			return n < 20
		})
	}
}
