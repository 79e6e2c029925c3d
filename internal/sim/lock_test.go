package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Writers exclude writers and readers, readers share, on a Mutex and an
// RWMutex taken through Lock and RLock by more goroutines than there are
// processors, so that waiters both yield and park. Each writer rewrites a
// plain slice that readers check for a torn state; under -race a missing
// happens-before edge between an Unlock and the next acquire is a report.
func TestLockExcludes(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	goroutines := 4*procs + 2
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	t.Run("Mutex", func(t *testing.T) {
		var mu sync.Mutex
		var inside atomic.Int32
		data := make([]int, 8)
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range rounds {
					Lock(&mu)
					if n := inside.Add(1); n != 1 {
						t.Errorf("%d holders of a mutex", n)
					}
					for j := range data {
						data[j] = g*rounds + i
					}
					if i%16 == 0 {
						runtime.Gosched() // hold it across a yield now and then
					}
					for j := range data {
						if data[j] != g*rounds+i {
							t.Errorf("another writer changed the data under the lock")
						}
					}
					inside.Add(-1)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	})
	t.Run("RWMutex", func(t *testing.T) {
		var mu sync.RWMutex
		var writers, readers atomic.Int32
		data := make([]int, 8)
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range rounds {
					if g%2 == 0 {
						Lock(&mu)
						if w, r := writers.Add(1), readers.Load(); w != 1 || r != 0 {
							t.Errorf("a writer inside with %d writers and %d readers", w, r)
						}
						for j := range data {
							data[j] = g*rounds + i
						}
						if i%16 == 0 {
							runtime.Gosched()
						}
						writers.Add(-1)
						mu.Unlock()
						continue
					}
					RLock(&mu)
					readers.Add(1)
					if w := writers.Load(); w != 0 {
						t.Errorf("a reader inside with %d writers", w)
					}
					for j := range data {
						if data[j] != data[0] {
							t.Errorf("a reader saw a torn write: %v", data)
							break
						}
					}
					if i%16 == 0 {
						runtime.Gosched()
					}
					readers.Add(-1)
					mu.RUnlock()
				}
			}()
		}
		wg.Wait()
	})
}

// countingLock counts the attempts a waiter makes and says when it blocks.
type countingLock struct {
	sync.RWMutex
	tries, rtries atomic.Int32
	blocked       chan struct{}
}

func (l *countingLock) TryLock() bool  { l.tries.Add(1); return l.RWMutex.TryLock() }
func (l *countingLock) TryRLock() bool { l.rtries.Add(1); return l.RWMutex.TryRLock() }
func (l *countingLock) Lock()          { close(l.blocked); l.RWMutex.Lock() }
func (l *countingLock) RLock()         { close(l.blocked); l.RWMutex.RLock() }

// A holder that keeps the lock past the waiter's budget: the waiter tries
// LockYields times, then blocks, and acquires the lock once the holder
// releases it.
func TestLockFallsBackToBlocking(t *testing.T) {
	for _, shared := range []bool{false, true} {
		name := map[bool]string{false: "Lock", true: "RLock"}[shared]
		t.Run(name, func(t *testing.T) {
			l := &countingLock{blocked: make(chan struct{})}
			l.RWMutex.Lock()
			acquired := make(chan struct{})
			go func() {
				if shared {
					RLock(l)
					l.RWMutex.RUnlock()
				} else {
					Lock(l)
					l.RWMutex.Unlock()
				}
				close(acquired)
			}()
			<-l.blocked // the waiter has given up yielding and blocks
			tries := l.tries.Load() + l.rtries.Load()
			if tries != LockYields {
				t.Errorf("the waiter tried %d times before it blocked, want %d", tries, LockYields)
			}
			select {
			case <-acquired:
				t.Fatal("the waiter acquired a lock that was held")
			default:
			}
			l.RWMutex.Unlock()
			<-acquired
		})
	}
}

// An uncontended Lock is one TryLock: it neither yields nor blocks.
func TestLockUncontendedTriesOnce(t *testing.T) {
	l := &countingLock{blocked: make(chan struct{})}
	Lock(l)
	l.RWMutex.Unlock()
	RLock(l)
	l.RWMutex.RUnlock()
	if l.tries.Load() != 1 || l.rtries.Load() != 1 {
		t.Errorf("tries %d, %d, want 1 each", l.tries.Load(), l.rtries.Load())
	}
}
