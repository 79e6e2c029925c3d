package sim

import "sync/atomic"

// Stripes is the number of cells of a Striped value.
const Stripes = 16

// nextStripe deals stripes to workers round-robin as they are created, so
// the workers of one run — a benchmark's clients, created one after the
// other — land on different stripes.
var nextStripe atomic.Uint32

// Striped holds one T per worker stripe, each cell on cache lines of its
// own: a worker updates the cell of its stripe and never writes a line a
// worker on another stripe writes. What one stripe holds is meaningful
// only summed or merged with the others; that is the reader's job (At).
//
// This is how a per-operation counter, recorder or reader lock is kept
// in this repository: a value every operation of every client writes is
// a Striped cell chosen by the operation's worker, never one shared word.
// The cells are not exclusive — workers on one stripe share it, and a nil
// worker uses stripe 0 — so T must be safe for concurrent use by itself
// (atomics, a mutex, a metrics.Latency).
type Striped[T any] struct {
	_     [64]byte
	cells [Stripes]struct {
		v T
		_ [64]byte
	}
}

// Of returns the cell of w's stripe.
func (s *Striped[T]) Of(w *Worker) *T {
	if w == nil {
		return &s.cells[0].v
	}
	return &s.cells[w.stripe].v
}

// At returns cell i, 0 <= i < Stripes.
func (s *Striped[T]) At(i int) *T { return &s.cells[i].v }
