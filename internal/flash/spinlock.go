package flash

import (
	"runtime"
	"sync/atomic"
)

// chipLock is a test-and-test-and-set spinlock with yield backoff. Chip
// shard critical sections are tiny — a charge-rule scan plus a small
// copy, tens of nanoseconds — so parking a goroutine in a futex is never
// the right outcome and the unlock side of a full mutex (an atomic
// add/CAS) costs as much as the work it protects. A spinlock's unlock is
// a plain atomic store, which roughly halves the per-operation locking
// tax on the device hot path. The longest hold is the first program into
// a block on a chip with no freed buffer to reuse (one allocation, a few
// µs on large geometries); the backoff yields the processor after a burst
// of failed probes so waiters degrade to cooperative scheduling rather
// than burning a core.
type chipLock struct {
	v atomic.Uint32
}

func (l *chipLock) Lock() {
	if l.v.CompareAndSwap(0, 1) {
		return
	}
	l.lockSlow()
}

func (l *chipLock) lockSlow() {
	for spins := 0; ; {
		if l.v.Load() == 0 && l.v.CompareAndSwap(0, 1) {
			return
		}
		spins++
		if spins >= 16 {
			spins = 0
			runtime.Gosched()
		}
	}
}

func (l *chipLock) Unlock() {
	l.v.Store(0)
}
