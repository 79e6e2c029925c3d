package sim

import (
	"runtime"
	"sync"
)

// LockYields is how many times Lock and RLock try the lock, yielding the
// processor between attempts, before they block on it. A blocked waiter
// that is woken by the unlock runs again only once its processor's
// thread is woken too: 65 µs at the median on a 2-core virtual machine,
// measured in an execution trace of two TPC-B clients, while the locks
// they wait on are held for 2–20 µs. A failed TryLock and a Gosched on
// an otherwise idle processor take about 0.12 µs there, so 256 attempts
// cover about 30 µs — the typical hold several times over and half a
// wake-up — before the waiter parks as it would have at once.
const LockYields = 256

// TryLocker is a lock that can be tried without blocking: *sync.Mutex,
// or *sync.RWMutex taken exclusively.
type TryLocker interface {
	sync.Locker
	TryLock() bool
}

// Lock acquires l, trying it up to LockYields times and yielding the
// processor between attempts, and then blocking on l.Lock. It changes how
// a waiter waits, not what the lock is: the lock is the same sync type,
// released by its own Unlock, so the race detector, the mutex's
// starvation mode and every lock order stay as they were. A lock nobody
// holds is taken by the first TryLock.
func Lock[L TryLocker](l L) {
	for range LockYields {
		if l.TryLock() {
			return
		}
		runtime.Gosched()
	}
	l.Lock()
}

// TryRLocker is the shared side of a lock that can be tried: *sync.RWMutex.
type TryRLocker interface {
	RLock()
	TryRLock() bool
}

// RLock is Lock for the shared side of an RWMutex.
func RLock[L TryRLocker](l L) {
	for range LockYields {
		if l.TryRLock() {
			return
		}
		runtime.Gosched()
	}
	l.RLock()
}
