//go:build unix && !race

package flash

import (
	"fmt"
	"runtime"
	"syscall"
)

// Block buffers are anonymous private mappings: the simulated NAND is
// kept out of the Go heap, so the collector neither scans it nor lets
// the heap grow to twice its size before the next cycle. The kernel
// backs a mapping's pages on first touch and takes them all back at
// munmap.
const blockMemOffHeap = true

// blockArena owns every buffer mapped for one chip. The buffers are
// unmapped when the arena is collected, and the arena is reachable for
// as long as its chip is: the shard points at it, and a shard's bytes
// are read and written only between sh.mu.Lock and sh.mu.Unlock, so the
// shard pointer is live across every access (see blockMem). A slice of
// block memory never leaves that critical section, so once the arena is
// unreachable nothing can touch its mappings. The arena points at
// nothing but its mappings: a finalizer on an object in a cycle may
// never run.
type blockArena struct {
	bufs [][]byte
}

func newBlockArena() *blockArena {
	ar := new(blockArena)
	runtime.SetFinalizer(ar, (*blockArena).release)
	return ar
}

// alloc maps an n-byte block buffer. Running out of address space is
// fatal, as it is for make. The caller holds the chip's sh.mu.
func (ar *blockArena) alloc(n int) []byte {
	buf, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("flash: map a %d-byte block: %v", n, err))
	}
	ar.bufs = append(ar.bufs, buf)
	mappedBytes.Add(int64(n))
	return buf
}

// release unmaps every buffer of a collected arena.
func (ar *blockArena) release() {
	for _, buf := range ar.bufs {
		mappedBytes.Add(-int64(len(buf)))
		if err := syscall.Munmap(buf); err != nil {
			panic(fmt.Sprintf("flash: unmap a %d-byte block: %v", len(buf), err))
		}
	}
	ar.bufs = nil
}
