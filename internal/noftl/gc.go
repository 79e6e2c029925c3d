package noftl

import (
	"errors"
	"fmt"
	"time"

	"ipa/internal/flash"
	"ipa/internal/sim"
)

// This file is the region's garbage collector.
// collectLocked is the single reclamation primitive: the writer that
// finds its chip's free pool at the reserve calls it inline from
// allocLocked and holds the chip lock throughout — the interference the
// paper's Sec. 8 tables measure, and fully deterministic under a
// sequential workload.

// collectLocked reclaims one block on the chip: the cheapest victim
// (fewest valid pages, from the victim heap) is migrated and erased.
// Called with cs.mu held.
func (r *Region) collectLocked(w *sim.Worker, cs *chipState) error {
	victim := cs.victims.peek()
	if victim == nil {
		return fmt.Errorf("%w: no victim on chip %d", ErrNoSpace, cs.chip)
	}
	if victim.valid >= r.usablePagesPerBlock() {
		return fmt.Errorf("%w: best victim fully valid on chip %d", ErrNoSpace, cs.chip)
	}
	moved, lat, err := r.evacuateLocked(w, cs, victim)
	cs.stats.GCPageMigrations += uint64(moved)
	cs.stats.GCTime += lat
	if err != nil {
		return err
	}
	cs.stats.GCErases++
	return nil
}

// evacuateLocked takes bm off the victim heap, migrates every
// still-valid page to the chip's write point, erases bm and returns it to
// the free pool. It reports the pages moved and the device time spent,
// also on an error, after which bm is back on the victim heap with
// whatever pages remain valid. The raw physical image (including any
// programmed delta-records and OOB codes) moves as-is, so the new
// location decodes identically. Called with cs.mu held.
func (r *Region) evacuateLocked(w *sim.Worker, cs *chipState, bm *blockMeta) (moved int, lat time.Duration, err error) {
	cs.removeVictim(bm)
	bm.collecting = true
	restore := func() {
		bm.collecting = false
		cs.addVictim(bm)
	}
	arr := r.dev.arr
	usable := r.usablePagesPerBlock()
	for slot := 0; slot < usable; slot++ {
		ppn := r.pageSlotToPPN(bm.id, slot)
		id, valid := cs.reverse[ppn]
		if !valid {
			continue
		}
		if cur, ok := r.lookup(id); !ok || cur != ppn {
			// Stale copy: a racing first-write re-homed the page to
			// another chip. Drop it instead of resurrecting it.
			delete(cs.reverse, ppn)
			if bm.valid > 0 {
				bm.valid--
			}
			continue
		}
		dst, err := r.allocMigrationTargetLocked(cs)
		if err != nil {
			restore()
			return moved, lat, err
		}
		data, oob := cs.migBuffers(r.dev.geom)
		rlat, err := arr.ReadInto(w, ppn, data, oob)
		if err != nil {
			restore()
			return moved, lat, err
		}
		plat, err := arr.Program(w, dst, data, oob)
		if err != nil {
			restore()
			return moved, lat, err
		}
		lat += rlat + plat
		moved++
		delete(cs.reverse, ppn)
		bm.valid--
		// Re-point the mapping at the copy — unless a racing write
		// already moved the page on, in which case the copy is garbage
		// and its slot simply stays invalid.
		if r.l2p.Lookup(id).CompareAndSwap(entryOf(ppn), entryOf(dst)) {
			cs.reverse[dst] = id
			r.bumpValidLocked(cs, dst)
		}
	}
	elat, err := arr.Erase(w, bm.id)
	if err != nil && !errors.Is(err, flash.ErrWornOut) {
		restore()
		return moved, lat, err
	}
	lat += elat
	bm.collecting = false
	bm.valid = 0
	bm.next = 0
	cs.pushFree(bm, arr.EraseCount(bm.id))
	return moved, lat, nil
}

// allocMigrationTargetLocked returns a destination PPN for a migrated
// page: the next slot of the chip's write point, which migrations share
// with host writes. Victims under evacuation are in the `collecting`
// state and so can never be handed back as a target.
func (r *Region) allocMigrationTargetLocked(cs *chipState) (flash.PPN, error) {
	usable := r.usablePagesPerBlock()
	for {
		act := cs.active
		if act != nil && act.next < usable {
			ppn := r.pageSlotToPPN(act.id, act.next)
			act.next++
			return ppn, nil
		}
		if act != nil {
			r.retireActiveLocked(cs)
		}
		nb := cs.popFree()
		if nb == nil {
			return 0, fmt.Errorf("%w: migration target on chip %d", ErrNoSpace, cs.chip)
		}
		nb.active = true
		nb.next = 0
		nb.valid = 0
		cs.active = nb
	}
}
