package flash

// BlockMemOffHeap reports whether this build maps block buffers outside
// the Go heap (blockmem_mmap.go) or allocates them on it
// (blockmem_heap.go).
const BlockMemOffHeap = blockMemOffHeap

// MappedBlockBytes reads mappedBytes: the block memory of every Array
// in the process that is mapped and not yet unmapped.
func MappedBlockBytes() int64 { return mappedBytes.Load() }
