package noftl

import (
	"testing"

	"ipa/internal/core"
	"ipa/internal/flash"
)

// The free heap must pop blocks by (erase count, id) — the exact order
// the old linear scan selected — and keep freeIdx consistent.
func TestFreeHeapOrdering(t *testing.T) {
	cs := newChipState(0)
	erases := []uint32{3, 1, 1, 0, 2}
	for i, e := range erases {
		cs.pushFree(&blockMeta{id: i, freeIdx: -1, victIdx: -1}, e)
	}
	wantIDs := []int{3, 1, 2, 4, 0} // erase 0; erase 1 (id tie → 1 before 2); 2; 3
	for _, want := range wantIDs {
		bm := cs.popFree()
		if bm == nil || bm.id != want {
			t.Fatalf("popFree = %+v, want id %d", bm, want)
		}
		if bm.free || bm.freeIdx != -1 {
			t.Fatalf("popped block %d still marked free (idx %d)", bm.id, bm.freeIdx)
		}
	}
	if cs.popFree() != nil {
		t.Error("pop from empty heap returned a block")
	}
}

// The victim heap must track valid-count changes via fixVictim and keep
// the greedy minimum (fewest valid pages, ties by id) at the top.
func TestVictimHeapGreedySelection(t *testing.T) {
	cs := newChipState(0)
	blocks := make([]*blockMeta, 5)
	valids := []int{4, 2, 7, 2, 5}
	for i, v := range valids {
		blocks[i] = &blockMeta{id: i, valid: v, freeIdx: -1, victIdx: -1}
		cs.addVictim(blocks[i])
	}
	if top := cs.victims.peek(); top.id != 1 {
		t.Fatalf("peek = block %d, want 1 (valid 2, lowest id)", top.id)
	}
	// Invalidations reorder the heap.
	blocks[2].valid = 0
	cs.fixVictim(blocks[2])
	if top := cs.victims.peek(); top.id != 2 {
		t.Fatalf("after fix, peek = block %d, want 2 (valid 0)", top.id)
	}
	// Removal keeps the rest ordered.
	cs.removeVictim(blocks[2])
	if blocks[2].victIdx != -1 {
		t.Fatalf("removed block still has victIdx %d", blocks[2].victIdx)
	}
	order := []int{1, 3, 0, 4}
	for _, want := range order {
		got := cs.victims.pop()
		if got == nil || got.id != want {
			t.Fatalf("victim pop = %+v, want id %d", got, want)
		}
	}
}

// Rebuild must work on the sharded layout: Adopt a scanned mapping and
// read everything back.
func TestAdoptRebuildsShardedState(t *testing.T) {
	dev := newDevice(t, flash.SLC, 2, 8, 8, 256)
	r, err := dev.CreateRegion(RegionConfig{
		Name: "d", Mode: ModeSLC, BlocksPerChip: 8, OverProvision: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	capPages := r.LogicalCapacity()
	for round := 0; round < 6; round++ {
		for i := 0; i < capPages; i++ {
			if err := r.Write(nil, core.PageID(i+1), pageOf(dev, byte(round)), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	mapping := make(map[core.PageID]flash.PPN, capPages)
	for i := 0; i < capPages; i++ {
		id := core.PageID(i + 1)
		mapping[id] = mustPPN(t, r, id)
	}
	if err := r.Adopt(mapping); err != nil {
		t.Fatal(err)
	}
	if r.MappedPages() != capPages {
		t.Fatalf("MappedPages = %d, want %d", r.MappedPages(), capPages)
	}
	for i := 0; i < capPages; i++ {
		got, _, err := r.Read(nil, core.PageID(i+1))
		if err != nil || got[0] != 5 {
			t.Fatalf("post-adopt read %d: %v (fill %d)", i, err, got[0])
		}
	}
	// The adopted region must keep collecting: more churn after rebuild.
	for round := 0; round < 6; round++ {
		for i := 0; i < capPages; i++ {
			if err := r.Write(nil, core.PageID(i+1), pageOf(dev, byte(round)), nil); err != nil {
				t.Fatalf("post-adopt churn: %v", err)
			}
		}
	}
	got, _, err := r.Read(nil, 1)
	if err != nil || got[0] != 5 {
		t.Fatalf("post-adopt churn read: %v", err)
	}
}
