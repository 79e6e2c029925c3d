//go:build race || !unix

package flash

// Block buffers are Go heap objects here. Under the race detector,
// because it watches only addresses inside the Go heap and would stop
// seeing the simulated NAND's bytes in a mapping; elsewhere, because
// the target has no syscall.Mmap.
const blockMemOffHeap = false

// blockArena hands out heap buffers; the collector frees them with the
// Array.
type blockArena struct{}

func newBlockArena() *blockArena { return &blockArena{} }

func (*blockArena) alloc(n int) []byte { return make([]byte, n) }
