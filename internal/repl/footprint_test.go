package repl

import (
	"runtime"
	"testing"
)

// TestMemberFootprint: the stack every server serves — 8 chips of 8 192
// 1 KiB pages, a pool of 131 072 frames — is sized for what a node may
// come to hold, and a node holds none of it before the first insert.
// The device and the pool on their own are guarded in internal/flash and
// internal/buffer; this is the sum, with the NoFTL region, the page
// tables and the log on top.
func TestMemberFootprint(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	db, _, err := NewMemberDB(MemberSpec{Chips: 8, BlocksPerChip: 256, PageSize: 1024, BufferFrames: 131072})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	held := int64(heap() - before)
	t.Logf("an empty member holds %.1f MiB", float64(held)/(1<<20))
	if held > 8<<20 {
		t.Errorf("an empty member holds %d bytes of heap, want < 8 MiB", held)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Flash.ResidentBytes != 0 || st.Pool.FramesAllocated != 0 {
		t.Errorf("an empty member has %d device bytes resident and %d frames allocated",
			st.Flash.ResidentBytes, st.Pool.FramesAllocated)
	}
}
