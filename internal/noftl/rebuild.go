package noftl

import (
	"fmt"
	"sort"

	"ipa/internal/core"
	"ipa/internal/flash"
	"ipa/internal/sim"
)

// This file implements mapping reconstruction after power loss. NoFTL
// keeps the logical→physical mapping in DBMS memory; after a crash it
// must be rebuilt from flash itself. Because every database page carries
// its page id and PageLSN in the page header (and delta-records carry
// LSN updates), a full scan can re-derive the mapping: for every logical
// page the physical copy with the highest post-reconstruction LSN is the
// current one, older copies are garbage. This is the flash-native
// equivalent of an FTL rebuilding its tables from OOB metadata.
//
// Both entry points are recovery paths and expect a quiesced region: no
// concurrent writers (which are also the region's only collectors).

// PhysicalPage is one programmed page surfaced by ScanPhysical.
type PhysicalPage struct {
	PPN   flash.PPN
	Block int // global block id (lets callers skip whole blocks, e.g. PDL logs)
	Data  []byte
	OOB   []byte
}

// ScanPhysical visits every programmed (non-erased) physical page of the
// region in PPN order, calling fn until it returns false. The raw image
// is passed as stored — delta-records not applied; interpretation is the
// caller's job (it knows the page layout). Data and OOB buffers are
// reused across calls: fn must copy anything it wants to retain.
func (r *Region) ScanPhysical(w *sim.Worker, fn func(p PhysicalPage) bool) error {
	blocks := make([]int, 0, len(r.blockIndex))
	for id := range r.blockIndex {
		blocks = append(blocks, id)
	}
	sort.Ints(blocks)
	arr := r.dev.arr
	data := make([]byte, r.dev.geom.PageSize)
	oob := make([]byte, r.dev.geom.OOBSize)
	for _, b := range blocks {
		for slot := 0; slot < r.usablePagesPerBlock(); slot++ {
			ppn := r.pageSlotToPPN(b, slot)
			if arr.IsErased(ppn) {
				continue
			}
			if _, err := arr.ReadInto(w, ppn, data, oob); err != nil {
				return fmt.Errorf("noftl: scan ppn %d: %w", ppn, err)
			}
			if !fn(PhysicalPage{PPN: ppn, Block: b, Data: data, OOB: oob}) {
				return nil
			}
		}
	}
	return nil
}

// Adopt installs a mapping reconstructed by a scan, replacing the
// region's in-memory metadata: forward and reverse maps, per-block valid
// counts, write points (derived from the highest programmed page of each
// block), free pool and victim heaps. Physical copies not present in the
// mapping are garbage and will be reclaimed by the collector.
func (r *Region) Adopt(mapping map[core.PageID]flash.PPN) error {
	// Validate every target lies in this region, and every id in the
	// table's range (the ids come from page headers read off flash).
	for id, ppn := range mapping {
		if r.blockIndex[r.dev.geom.BlockOf(ppn)] == nil {
			return fmt.Errorf("noftl: adopt page %d: ppn %d outside region %q", id, ppn, r.cfg.Name)
		}
		if id > core.MaxPageID {
			return fmt.Errorf("noftl: adopt page %d: %w", id, core.ErrPageIDRange)
		}
	}
	if len(mapping) > r.logical {
		return fmt.Errorf("%w: adopting %d pages into capacity %d", ErrRegionFull, len(mapping), r.logical)
	}
	// Install the forward map.
	r.l2p.Reset()
	for id, ppn := range mapping {
		e, err := r.l2p.Entry(id)
		if err != nil {
			return err
		}
		e.Store(entryOf(ppn))
	}
	r.mapped.Store(int64(len(mapping)))
	// Re-derive per-chip state from flash.
	arr := r.dev.arr
	usable := r.usablePagesPerBlock()
	for _, c := range r.chips {
		cs := r.byChip[c]
		sim.Lock(&cs.mu)
		cs.reverse = make(map[flash.PPN]core.PageID)
		cs.active = nil
		cs.freePool.reset()
		cs.victims.reset()
		for _, bm := range cs.blocks {
			bm.valid = 0
			bm.active = false
			bm.free = false
			bm.collecting = false
			bm.freeIdx = -1
			bm.victIdx = -1
			bm.next = 0
			for slot := usable - 1; slot >= 0; slot-- {
				if !arr.IsErased(r.pageSlotToPPN(bm.id, slot)) {
					bm.next = slot + 1
					break
				}
			}
		}
		cs.mu.Unlock()
	}
	for id, ppn := range mapping {
		cs := r.chipOf(ppn)
		sim.Lock(&cs.mu)
		cs.reverse[ppn] = id
		r.blockIndex[r.dev.geom.BlockOf(ppn)].valid++
		cs.mu.Unlock()
	}
	// Rebuild the free pool, write points and victim heaps. A partially
	// filled block becomes the chip's write point so its remaining pages
	// are not stranded; everything else occupied is a victim candidate.
	for _, c := range r.chips {
		cs := r.byChip[c]
		sim.Lock(&cs.mu)
		for _, bm := range cs.blocks {
			switch {
			case bm.next == 0:
				cs.pushFree(bm, arr.EraseCount(bm.id))
			case bm.next < usable:
				if cur := cs.active; cur == nil || bm.next < cur.next {
					if cur != nil {
						cur.active = false
						cs.addVictim(cur)
					}
					bm.active = true
					cs.active = bm
				} else {
					cs.addVictim(bm)
				}
			default:
				cs.addVictim(bm)
			}
		}
		cs.mu.Unlock()
	}
	return nil
}
