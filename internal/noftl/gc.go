package noftl

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"ipa/internal/flash"
	"ipa/internal/sim"
)

// This file is the region's garbage collector and static wear leveler,
// shared by both GC policies. collectLocked is the single reclamation
// primitive: foreground mode calls it inline from allocLocked (holding
// the chip lock throughout, so a sequential workload is fully
// deterministic), background mode calls it from the chip's collector
// goroutine, yielding the chip lock between page migrations so writers
// and readers interleave with an ongoing collection.
//
// Background scheduling is a per-chip watermark scheme:
//
//	idle          freeLen >  softWater    collector parked on its doorbell
//	soft          freeLen <= softWater    collector woken, writers unaffected
//	hard          freeLen <= gcReserve    the writer that hits the floor
//	                                      collects one block inline (a
//	                                      counted GC stall)
//	exhausted     collection failed       collector parks; writers keep
//	                                      using the pool's slack and fail
//	                                      over across chips, surfacing
//	                                      ErrNoSpace only when nothing
//	                                      anywhere is reclaimable
//
// Any page invalidation clears `exhausted` — an invalidation is exactly
// what turns a fully-valid victim into a collectable one.

func (r *Region) backgroundOn() bool {
	return r.cfg.GCPolicy == GCBackground && !r.closed.Load()
}

// wakeCollector rings the chip's doorbell without blocking; a pending
// token already guarantees the collector will re-check the watermark.
func (r *Region) wakeCollector(cs *chipState) {
	select {
	case cs.wake <- struct{}{}:
	default:
	}
}

// startCollectors launches one collector goroutine per chip, each with
// its own sim.Worker so the simulated time its migrations consume lands
// on the chip's timeline like any other I/O issuer.
func (r *Region) startCollectors() {
	r.stop = make(chan struct{})
	tl := r.dev.arr.Timeline()
	for _, c := range r.chips {
		cs := r.byChip[c]
		var w *sim.Worker
		if tl != nil {
			w = tl.NewWorker()
		}
		r.wg.Add(1)
		go r.runCollector(cs, w)
	}
}

// runCollector is the per-chip background collector: parked on the
// doorbell, it collects until the pool is back above the soft watermark
// or nothing can be reclaimed.
func (r *Region) runCollector(cs *chipState, w *sim.Worker) {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case <-cs.wake:
		}
		if w != nil {
			// Start charging simulated time at the chip's current busy
			// horizon: collection occupies the chip after the I/O that is
			// already queued, not retroactively.
			w.SetNow(r.dev.arr.Timeline().BusyUntil(cs.chip))
		}
		for {
			select {
			case <-r.stop:
				return
			default:
			}
			cs.mu.Lock()
			if cs.freeLen() > r.cfg.softWater() || cs.exhausted {
				cs.mu.Unlock()
				break
			}
			err := r.collectLocked(w, cs, true)
			if err != nil && r.retireParkedLocked(cs) {
				err = r.collectLocked(w, cs, true)
			}
			if err != nil {
				// Nothing reclaimable right now: latch it so the collector
				// parks instead of spinning. The next invalidation on the
				// chip clears the latch and rings the doorbell.
				cs.exhausted = true
			}
			cs.mu.Unlock()
			if err != nil {
				break
			}
		}
	}
}

// throttleLocked is the hard-reserve backpressure under background GC:
// the writer that hits the floor rings the collector's doorbell and
// yields the chip for a short, bounded real-time window; if the pool is
// still at the floor afterwards, the writer pays for one reclamation
// pass itself — exactly the foreground path. Every visit is a counted
// GC stall either way.
//
// The wait is a bounded poll on purpose, not a condition variable:
// parking until "a block returns to the pool" has no deadlock-free
// formulation here — a fully compacted chip (every programmed page
// valid) produces no invalidations to wake anyone up, and under
// failover all writers can end up parked on such chips at once. A
// bounded poll always terminates, and the inline fallback makes the
// writer self-sufficient.
func (r *Region) throttleLocked(w *sim.Worker, cs *chipState) error {
	reserve := r.cfg.gcReserve()
	cs.stats.GCStalls++
	t0 := time.Now()
	r.wakeCollector(cs)
	// Gosched, never sleep: an inline collect costs only a few µs of
	// real time, so yielding the scheduler a few times is the most a
	// handoff attempt is ever worth.
	for spin := 0; spin < 64 && cs.freeLen() <= reserve && !cs.exhausted && !r.closed.Load(); spin++ {
		cs.mu.Unlock()
		runtime.Gosched()
		cs.mu.Lock()
	}
	if cs.freeLen() > reserve {
		cs.stats.GCStallTime += time.Since(t0)
		return nil
	}
	err := r.collectLocked(w, cs, false)
	if err != nil && r.retireParkedLocked(cs) {
		// The chip's invalid mass was parked in the full write point or
		// the migration target; both are victims now, so retry.
		err = r.collectLocked(w, cs, false)
	}
	cs.stats.GCStallTime += time.Since(t0)
	if err == nil {
		return nil
	}
	if cs.freeLen() > 1 {
		return nil // unreclaimable right now, but the pool has slack
	}
	if a := cs.active; a != nil && a.next < r.usablePagesPerBlock() {
		return nil // the partial write point still has room
	}
	return err
}

// retireParkedLocked pushes the chip's full write point and its
// migration target into the victim heap when they hold invalid pages.
// GC repacks survivors into fully-valid blocks, so under heavy churn the
// chip's entire invalid mass can sit in these two blocks — which the
// victim heap cannot see — while every heap victim is fully valid;
// retiring them is what turns "unreclaimable" back into progress. The
// migration target is retired even partially programmed (its free tail
// is sacrificed): with all victims full it would never fill up, and its
// invalid pages would be stuck forever. The active is retired only when
// full — a partial active still serves writes. Returns whether anything
// was retired.
func (r *Region) retireParkedLocked(cs *chipState) bool {
	usable := r.usablePagesPerBlock()
	changed := false
	if a := cs.active; a != nil && a.next >= usable && a.valid < usable {
		r.retireActiveLocked(cs)
		changed = true
	}
	if mt := cs.migTarget; mt != nil && mt.valid < mt.next {
		mt.collecting = false
		cs.migTarget = nil
		cs.addVictim(mt)
		changed = true
	}
	return changed
}

// Close stops the region's background collectors. The region stays
// usable afterwards: with the collectors gone, allocation falls back to
// inline collection, the foreground behaviour. Idempotent.
func (r *Region) Close() {
	if r.closed.Swap(true) {
		return
	}
	if r.stop != nil {
		close(r.stop)
	}
	r.wg.Wait()
}

// collectLocked reclaims one block on the chip: the cheapest victim
// (fewest valid pages, from the victim heap) is migrated and erased.
// Called with cs.mu held and returns with it held; when background is
// set, the lock is yielded between page migrations so foreground I/O on
// the chip interleaves with the collection (the victim is parked in the
// `collecting` state, invisible to both heaps, across the gaps).
func (r *Region) collectLocked(w *sim.Worker, cs *chipState, background bool) error {
	victim := r.selectVictimLocked(cs)
	if victim == nil {
		return fmt.Errorf("%w: no victim on chip %d", ErrNoSpace, cs.chip)
	}
	usable := r.usablePagesPerBlock()
	if victim.valid >= usable {
		return fmt.Errorf("%w: best victim fully valid on chip %d", ErrNoSpace, cs.chip)
	}
	cs.removeVictim(victim)
	victim.collecting = true
	restore := func() {
		victim.collecting = false
		cs.addVictim(victim)
	}
	// Migrate every still-valid page. The raw physical image (including
	// any programmed delta-records and OOB codes) moves as-is, so the new
	// location decodes identically.
	arr := r.dev.arr
	for slot := 0; slot < usable; slot++ {
		ppn := r.pageSlotToPPN(victim.id, slot)
		id, valid := cs.reverse[ppn]
		if !valid {
			continue
		}
		if cur, ok := r.lookup(id); !ok || cur != ppn {
			// Stale copy: a racing first-write re-homed the page to
			// another chip. Drop it instead of resurrecting it.
			delete(cs.reverse, ppn)
			if victim.valid > 0 {
				victim.valid--
			}
			continue
		}
		dst, err := r.allocMigrationTargetLocked(cs)
		if err != nil {
			restore()
			return err
		}
		data, oob := cs.migBuffers(r.dev.geom)
		rlat, err := arr.ReadInto(w, ppn, data, oob)
		if err != nil {
			restore()
			return err
		}
		plat, err := arr.Program(w, dst, data, oob)
		if err != nil {
			restore()
			return err
		}
		cs.stats.GCTime += rlat + plat
		cs.stats.GCPageMigrations++
		if background {
			cs.stats.BGPageMigrations++
		}
		delete(cs.reverse, ppn)
		victim.valid--
		// Re-point the mapping at the copy — unless a racing write
		// already moved the page on, in which case the copy is garbage
		// and its slot simply stays invalid.
		if r.l2p.Lookup(id).CompareAndSwap(entryOf(ppn), entryOf(dst)) {
			cs.reverse[dst] = id
			r.bumpValidLocked(cs, dst)
		}
		if background {
			// Yield between page moves: a block's worth of migrations is
			// far too long to stall the chip's foreground I/O for.
			cs.mu.Unlock()
			cs.mu.Lock()
		}
	}
	elat, err := arr.Erase(w, victim.id)
	if err != nil && !errors.Is(err, flash.ErrWornOut) {
		restore()
		return err
	}
	cs.stats.GCTime += elat
	cs.stats.GCErases++
	if background {
		cs.stats.BGErases++
	}
	victim.collecting = false
	victim.valid = 0
	victim.next = 0
	cs.pushFree(victim, arr.EraseCount(victim.id))
	cs.exhausted = false // reclamation works again; un-latch the give-up
	r.maybeLevelLocked(w, cs)
	return nil
}

// selectVictimLocked picks the block the collector evacuates next.
// Greedy is the heap minimum (fewest valid pages, deterministic).
// Cost-benefit scores (1-u)·age/2u (Kawaguchi et al.) over the victim
// queue at collect time — age changes globally between collections, so
// the score cannot live in a heap key and a linear scan is required.
// Ties break on lower block id for determinism.
func (r *Region) selectVictimLocked(cs *chipState) *blockMeta {
	if r.cfg.GCVictim != CostBenefitVictim {
		return cs.victims.peek()
	}
	usable := r.usablePagesPerBlock()
	now := r.tick.Load()
	var best *blockMeta
	var bestScore float64
	for _, bm := range cs.victims.items {
		if bm.valid >= usable {
			continue // migrating it frees nothing
		}
		var score float64
		if bm.valid == 0 {
			score = math.Inf(1) // free reclamation always wins
		} else {
			u := float64(bm.valid) / float64(usable)
			age := float64(now-bm.stamp) + 1
			score = (1 - u) * age / (2 * u)
		}
		if best == nil || score > bestScore || (score == bestScore && bm.id < best.id) {
			best, bestScore = bm, score
		}
	}
	if best == nil {
		// Everything in the queue is fully valid (or the queue is empty):
		// fall through to the heap minimum so collectLocked reports the
		// same ErrNoSpace conditions as the greedy path.
		return cs.victims.peek()
	}
	return best
}

// maybeLevelLocked performs static wear leveling on the chip: if the
// spread between the most- and least-worn blocks exceeds the configured
// delta, the least-worn *occupied* block (cold data pins low-wear blocks)
// is evacuated and erased, returning it to circulation.
func (r *Region) maybeLevelLocked(w *sim.Worker, cs *chipState) {
	if r.cfg.WearDelta <= 0 {
		return
	}
	arr := r.dev.arr
	var coldest *blockMeta
	var maxWear, minWear uint32
	first := true
	for _, bm := range cs.blocks {
		wear := arr.EraseCount(bm.id)
		if first || wear > maxWear {
			maxWear = wear
		}
		if first || wear < minWear {
			minWear = wear
		}
		first = false
		if bm.free || bm.active || bm.collecting {
			continue
		}
		if coldest == nil || arr.EraseCount(bm.id) < arr.EraseCount(coldest.id) {
			coldest = bm
		}
	}
	if coldest == nil || int(maxWear-minWear) <= r.cfg.WearDelta {
		return
	}
	if arr.EraseCount(coldest.id) != minWear {
		return // the least-worn block is already free or active
	}
	// Evacuate the cold block exactly like a GC victim, charging the
	// traffic to the wear-leveling counters. On any failure the block is
	// returned to the victim heap with whatever pages remain valid.
	cs.removeVictim(coldest)
	coldest.collecting = true
	restore := func() {
		coldest.collecting = false
		cs.addVictim(coldest)
	}
	usable := r.usablePagesPerBlock()
	for slot := 0; slot < usable; slot++ {
		ppn := r.pageSlotToPPN(coldest.id, slot)
		id, valid := cs.reverse[ppn]
		if !valid {
			continue
		}
		if cur, ok := r.lookup(id); !ok || cur != ppn {
			delete(cs.reverse, ppn)
			if coldest.valid > 0 {
				coldest.valid--
			}
			continue
		}
		dst, err := r.allocMigrationTargetLocked(cs)
		if err != nil {
			restore()
			return // pool too tight; try again after the next collect
		}
		data, oob := cs.migBuffers(r.dev.geom)
		if _, err := arr.ReadInto(w, ppn, data, oob); err != nil {
			restore()
			return
		}
		if _, err := arr.Program(w, dst, data, oob); err != nil {
			restore()
			return
		}
		cs.stats.WLMigrations++
		delete(cs.reverse, ppn)
		coldest.valid--
		if r.l2p.Lookup(id).CompareAndSwap(entryOf(ppn), entryOf(dst)) {
			cs.reverse[dst] = id
			r.bumpValidLocked(cs, dst)
		}
	}
	if _, err := arr.Erase(w, coldest.id); err != nil && !errors.Is(err, flash.ErrWornOut) {
		restore()
		return
	}
	cs.stats.WLErases++
	coldest.collecting = false
	coldest.valid = 0
	coldest.next = 0
	cs.pushFree(coldest, arr.EraseCount(coldest.id))
}

// allocMigrationTargetLocked returns a destination PPN for a migrated
// page. Victims under evacuation are in the `collecting` state and so
// can never be handed back as a target.
//
// Background-policy regions migrate into a dedicated per-chip target
// block instead of the shared active: writers fill the active during the
// collection's lock-yield gaps, and if the collector competed for the
// same pages it would pop extra free blocks mid-collection — the reserve
// can empty before the victim's erase returns a block, wedging the chip
// with reclaimable victims still on the heap. Foreground regions keep
// the original migrate-into-active behaviour, so the paper experiments
// stay deterministic and bit-identical.
func (r *Region) allocMigrationTargetLocked(cs *chipState) (flash.PPN, error) {
	usable := r.usablePagesPerBlock()
	if r.cfg.GCPolicy == GCBackground {
		if mt := cs.migTarget; mt != nil {
			if mt.next < usable {
				ppn := r.pageSlotToPPN(mt.id, mt.next)
				mt.next++
				return ppn, nil
			}
			// Full: the target becomes an ordinary occupied block.
			mt.collecting = false
			cs.migTarget = nil
			cs.addVictim(mt)
		}
		if nb := cs.popFree(); nb != nil {
			nb.collecting = true
			nb.next = 1
			nb.valid = 0
			cs.migTarget = nb
			return r.pageSlotToPPN(nb.id, 0), nil
		}
		// Pool empty: fall through to the active block as a last resort.
	}
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
