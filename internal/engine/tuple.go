package engine

import (
	"encoding/binary"
	"fmt"
)

// Schema is a fixed-width tuple layout: each field has a byte width.
// OLTP rows in the paper's analysis are dominated by fixed-length numeric
// attributes, whose in-place updates change only a few (usually the
// least-significant) bytes — the property the [N×M] scheme exploits.
type Schema struct {
	widths  []int
	offsets []int
	size    int
}

// NewSchema builds a schema from field widths.
func NewSchema(widths ...int) (*Schema, error) {
	s := &Schema{widths: widths, offsets: make([]int, len(widths))}
	for i, w := range widths {
		if w <= 0 {
			return nil, fmt.Errorf("engine: field %d has width %d", i, w)
		}
		s.offsets[i] = s.size
		s.size += w
	}
	return s, nil
}

// Offset returns the byte offset of field i within a tuple.
func (s *Schema) Offset(i int) int { return s.offsets[i] }

// New allocates a zero tuple.
func (s *Schema) New() []byte { return make([]byte, s.size) }

// GetUint reads field i as a little-endian unsigned integer (width ≤ 8).
func (s *Schema) GetUint(tuple []byte, i int) uint64 {
	off, w := s.offsets[i], s.widths[i]
	var buf [8]byte
	copy(buf[:], tuple[off:off+min(w, 8)])
	return binary.LittleEndian.Uint64(buf[:])
}

// SetUint writes field i as a little-endian unsigned integer. Thanks to
// little-endian order, small increments change only the low-order bytes —
// the paper's observation about numeric OLTP attributes.
func (s *Schema) SetUint(tuple []byte, i int, v uint64) {
	off, w := s.offsets[i], s.widths[i]
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	copy(tuple[off:off+min(w, 8)], buf[:min(w, 8)])
}

// AddUint increments field i by delta (modulo field width).
func (s *Schema) AddUint(tuple []byte, i int, delta uint64) {
	s.SetUint(tuple, i, s.GetUint(tuple, i)+delta)
}

// GetBytes returns a view of field i.
func (s *Schema) GetBytes(tuple []byte, i int) []byte {
	off, w := s.offsets[i], s.widths[i]
	return tuple[off : off+w]
}

// SetBytes copies data into field i (truncating/zero-padding to width).
func (s *Schema) SetBytes(tuple []byte, i int, data []byte) {
	off, w := s.offsets[i], s.widths[i]
	n := copy(tuple[off:off+w], data)
	for j := off + n; j < off+w; j++ {
		tuple[j] = 0
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
