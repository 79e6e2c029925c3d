package server_test

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"ipa/internal/client"
	"ipa/internal/core"
	"ipa/internal/netload"
	"ipa/internal/repl"
	"ipa/internal/workload"
)

// What a served TPC-B transaction costs in log bytes, read off the
// stats document the way an operator would (STATS op → JSON):
// engine.WAL.AppendedBytes on the leader and repl.bytes_shipped, the
// REPL_APPEND payload bytes, per follower. Three 8-byte balance adds
// are logged and shipped as OpPatch records carrying 8-byte images, so
// the transaction — BEGIN, three patches, a 28-byte history insert,
// COMMIT, END — stays under 520 bytes in both. With whole-tuple images
// for the adds it was about 1 020 appended and 1 140 shipped.
func TestServedTPCBLogAndShipBytes(t *testing.T) {
	cl, err := repl.NewCluster(repl.ClusterConfig{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	lead := cl.Members[0]
	if err := workload.NewTPCB(lead.DB, "data", 2, 200).Load(lead.TL.NewWorker()); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(lead.Addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	drv := netload.NewNetTPCB()
	if err := drv.Init(c); err != nil {
		t.Fatal(err)
	}

	type doc struct {
		Engine struct {
			WAL struct{ AppendedBytes uint64 }
		} `json:"engine"`
		Repl repl.Stats `json:"repl"`
	}
	// settled reads the document once every follower has acked the
	// leader's whole log, so shipped bytes cover what was appended.
	settled := func() doc {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			raw, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			var d doc
			if err := json.Unmarshal(raw, &d); err != nil {
				t.Fatal(err)
			}
			caughtUp := len(d.Repl.Peers) == 2
			for _, p := range d.Repl.Peers {
				caughtUp = caughtUp && p.AckedLSN == d.Repl.HeadLSN
			}
			if caughtUp {
				return d
			}
			if time.Now().After(deadline) {
				t.Fatalf("followers did not catch up: %+v", d.Repl)
			}
		}
	}

	const txs = 300
	rng := rand.New(rand.NewSource(1))
	before := settled()
	for i := 0; i < txs; i++ {
		if _, err := drv.RunOne(c, rng); err != nil {
			t.Fatal(err)
		}
	}
	after := settled()
	appended := float64(after.Engine.WAL.AppendedBytes-before.Engine.WAL.AppendedBytes) / txs
	shipped := float64(after.Repl.BytesShipped-before.Repl.BytesShipped) / txs / 2
	t.Logf("per transaction: %.0f B appended, %.0f B shipped per follower", appended, shipped)
	if appended < 300 || appended > 520 {
		t.Errorf("a served TPC-B transaction appends %.0f B of log, want 300..520", appended)
	}
	if shipped < 300 || shipped > 520 {
		t.Errorf("a served TPC-B transaction ships %.0f B per follower, want 300..520", shipped)
	}
}

// What a served member's log keeps in memory per committed TPC-B
// transaction, on the leader and on both followers:
// wal.Stats.RetainedBytes, the slot arrays or packed records, the image
// arena and the side table. A served member runs no checkpoint (its log
// capacity is 0), so this is what every node gains per commit for as
// long as it runs. Behind the log's head a record keeps its packed
// fields: about 210 B for the transaction's seven records with their
// images. When each record kept a 64-byte slot for life it was 568 B.
func TestServedTPCBLogBytesKept(t *testing.T) {
	cl, err := repl.NewCluster(repl.ClusterConfig{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	lead := cl.Members[0]
	if err := workload.NewTPCB(lead.DB, "data", 2, 200).Load(lead.TL.NewWorker()); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(lead.Addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	drv := netload.NewNetTPCB()
	if err := drv.Init(c); err != nil {
		t.Fatal(err)
	}
	// kept reads every member's retained log bytes once the followers
	// have applied the leader's whole log.
	kept := func() []uint64 {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			var out []uint64
			var heads []uint64
			for _, m := range cl.Members {
				st, err := m.DB.Stats()
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, st.WAL.RetainedBytes)
				heads = append(heads, uint64(st.WAL.Published))
			}
			if heads[1] == heads[0] && heads[2] == heads[0] {
				return out
			}
			if time.Now().After(deadline) {
				t.Fatalf("followers did not catch up: heads %v", heads)
			}
		}
	}

	// Enough transactions for some forty segments, so that the newest
	// few, still hot, weigh little.
	const txs = 3000
	rng := rand.New(rand.NewSource(1))
	before := kept()
	for i := 0; i < txs; i++ {
		if _, err := drv.RunOne(c, rng); err != nil {
			t.Fatal(err)
		}
	}
	after := kept()
	for i := range cl.Members {
		per := float64(after[i]-before[i]) / txs
		t.Logf("member %d: %.0f B of log kept per transaction", i+1, per)
		if per > 250 {
			t.Errorf("member %d keeps %.0f B of log per served TPC-B transaction, want <= 250", i+1, per)
		}
	}
}

// What a follower's buffer pool holds once it has replayed a TPC-B load:
// the leader's heap pages, one frame each (the log rebuilds no index
// page, so the leader's account index is not replayed). The load ends
// with a flush on the leader only, so none of these pages is on a
// follower's flash. Replay pins a page it finds resident, fetches one its
// flash maps and formats one neither holds, so such a page costs no pool
// miss and no second frame. When replay asked the pool to fetch it
// first, the failed load stranded a frame behind the CLOCK hand, and each
// follower held two frames and one miss a page.
func TestServedFollowerFramesMatchLeader(t *testing.T) {
	cl, err := repl.NewCluster(repl.ClusterConfig{N: 3, BufferFrames: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	lead := cl.Members[0]
	if err := workload.NewTPCB(lead.DB, "data", 2, 2000).Load(lead.TL.NewWorker()); err != nil {
		t.Fatal(err)
	}
	head := lead.Node.Stats().HeadLSN
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		caughtUp := true
		for _, m := range cl.Members[1:] {
			caughtUp = caughtUp && m.Node.Stats().AppliedLSN >= head
		}
		if caughtUp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers did not apply the leader's log up to LSN %d", head)
		}
	}
	// The leader's heap pages, as its tables' scans see them.
	heap := map[core.RID]bool{}
	w := lead.TL.NewWorker()
	for _, name := range []string{"tpcb_branch", "tpcb_teller", "tpcb_account", "tpcb_history"} {
		tbl, err := lead.DB.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Scan(w, func(rid core.RID, _ []byte) bool {
			heap[core.RID{Page: rid.Page}] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	frames := uint64(len(heap))
	for _, m := range cl.Members[1:] {
		st, err := m.DB.Stats()
		if err != nil {
			t.Fatal(err)
		}
		var fetched uint64
		for _, s := range st.Stores {
			fetched += s.Fetches
		}
		got := st.Pool.FramesAllocated
		t.Logf("member %d: %d frames for the leader's %d heap pages, %d misses, %d fetches", m.ID, got, frames, st.Pool.Misses, fetched)
		if got*100 > frames*101 || got*100 < frames*99 {
			t.Errorf("member %d holds %d frames for the leader's %d heap pages: want within 1%%", m.ID, got, frames)
		}
		if st.Pool.Misses != fetched {
			t.Errorf("member %d: %d pool misses, %d fetches: replay missed %d pages its flash does not hold",
				m.ID, st.Pool.Misses, fetched, st.Pool.Misses-fetched)
		}
	}
}
