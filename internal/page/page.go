// Package page implements the paper's revised NSM database page layout
// (Sec. 6.1, Figure 4): a classic slotted page — header, tuple body
// growing upward, slot table growing downward — extended with a reserved
// *delta-record area* at the page tail that absorbs small updates as
// In-Place Appends.
//
// Two views of a page exist:
//
//   - the *physical* image as stored on flash: the body as of the last
//     out-of-place write plus zero or more programmed delta-records in
//     the delta area;
//   - the *logical* image the DBMS operates on: the body with all
//     delta-records applied and the delta area reads as erased (0xFF).
//
// Reconstruct converts physical to logical on fetch; the storage manager
// diffs logical images across flushes to create new delta-records.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ipa/internal/core"
)

// HeaderSize is the fixed page header:
//
//	0:8   page id
//	8:16  PageLSN (little-endian, so the frequently-changing low-order
//	      byte sits at a fixed offset — the paper's observation that only
//	      the least-significant LSN bytes change)
//	16:18 flags
//	18:20 slot count
//	20:22 free-space low watermark (end of tuple body)
//	22:24 delta-record area size (the page is self-describing)
//	24:32 next page id (heap file / index chaining)
//	32:40 reserved (zero)
const HeaderSize = 40

// SlotSize is one slot-table entry: tuple offset and length.
const SlotSize = 4

// Page flags.
const (
	FlagLeaf = 1 << iota // index pages: leaf node
	FlagIndex
)

// Errors of the page layer.
var (
	ErrPageFull   = errors.New("page: not enough free space")
	ErrBadSlot    = errors.New("page: slot out of range or deleted")
	ErrTooSmall   = errors.New("page: page size too small for layout")
	ErrCorrupt    = errors.New("page: corrupt page image")
	ErrTupleLarge = errors.New("page: tuple exceeds page capacity")
)

// Layout fixes the geometry of every page of an object: its size and the
// [N×M] scheme that sizes the delta-record area.
type Layout struct {
	PageSize int
	Scheme   core.Scheme
}

// Validate checks that the layout leaves room for at least one small
// tuple.
func (l Layout) Validate() error {
	if err := l.Scheme.Validate(); err != nil {
		return err
	}
	if l.PageSize > 1<<16 {
		return fmt.Errorf("%w: page size %d exceeds 64KB offset space", ErrTooSmall, l.PageSize)
	}
	if l.BodyCapacity() < 16 {
		return fmt.Errorf("%w: %d bytes (page %d, delta area %d)", ErrTooSmall, l.BodyCapacity(), l.PageSize, l.Scheme.AreaSize())
	}
	return nil
}

// DeltaAreaStart is the page offset where the delta-record area begins.
func (l Layout) DeltaAreaStart() int { return l.PageSize - l.Scheme.AreaSize() }

// DeltaSlotOff returns the page offset of delta-record slot i.
func (l Layout) DeltaSlotOff(i int) int {
	return l.DeltaAreaStart() + i*l.Scheme.RecordSize()
}

// BodyCapacity is the space available to tuples and the slot table.
func (l Layout) BodyCapacity() int { return l.DeltaAreaStart() - HeaderSize }

// Page is a view over a logical page image. The zero value is not usable;
// use Format or Attach.
type Page struct {
	buf []byte
	l   Layout
}

// Format initialises buf as an empty page with the given id. The delta
// area is set to the erased state; tuple space is zeroed.
func Format(buf []byte, l Layout, id core.PageID) (*Page, error) {
	if len(buf) != l.PageSize {
		return nil, fmt.Errorf("%w: buffer %d bytes, layout %d", ErrTooSmall, len(buf), l.PageSize)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	for i := range buf {
		buf[i] = 0
	}
	p := &Page{buf: buf, l: l}
	binary.LittleEndian.PutUint64(buf[0:], uint64(id))
	binary.LittleEndian.PutUint16(buf[20:], HeaderSize) // free space starts after header
	binary.LittleEndian.PutUint16(buf[22:], uint16(l.Scheme.AreaSize()))
	wipeErased(buf[l.DeltaAreaStart():])
	return p, nil
}

// Attach wraps an existing logical page image. The view is returned by
// value: it is three words and a layout, attached once per page access
// on every hot path, and a caller that keeps it in a local variable
// pays no heap allocation for it.
func Attach(buf []byte, l Layout) (Page, error) {
	if len(buf) != l.PageSize {
		return Page{}, fmt.Errorf("%w: buffer %d bytes, layout %d", ErrTooSmall, len(buf), l.PageSize)
	}
	if got := int(binary.LittleEndian.Uint16(buf[22:])); got != l.Scheme.AreaSize() {
		return Page{}, fmt.Errorf("%w: delta area %d on page, layout says %d", ErrCorrupt, got, l.Scheme.AreaSize())
	}
	return Page{buf: buf, l: l}, nil
}

// erasedChunk is a run of erased bytes. wipeErased copies it rather than
// storing a byte at a time: every fetch wipes its page's delta area.
var erasedChunk = func() (c [1024]byte) {
	for i := range c {
		c[i] = core.Erased
	}
	return c
}()

// wipeErased sets every byte of b to the erased state.
func wipeErased(b []byte) {
	for len(b) > 0 {
		b = b[copy(b, erasedChunk[:]):]
	}
}

// Buf returns the underlying logical image.
func (p *Page) Buf() []byte { return p.buf }

// Layout returns the page's layout.
func (p *Page) Layout() Layout { return p.l }

// ID returns the page id stored in the header.
func (p *Page) ID() core.PageID {
	return core.PageID(binary.LittleEndian.Uint64(p.buf[0:]))
}

// LSN returns the PageLSN.
func (p *Page) LSN() core.LSN {
	return core.LSN(binary.LittleEndian.Uint64(p.buf[8:]))
}

// SetLSN updates the PageLSN.
func (p *Page) SetLSN(lsn core.LSN) {
	binary.LittleEndian.PutUint64(p.buf[8:], uint64(lsn))
}

// Flags returns the page flags.
func (p *Page) Flags() uint16 { return binary.LittleEndian.Uint16(p.buf[16:]) }

// SetFlags stores the page flags.
func (p *Page) SetFlags(f uint16) { binary.LittleEndian.PutUint16(p.buf[16:], f) }

// SlotCount returns the number of slot-table entries (including deleted).
func (p *Page) SlotCount() int { return int(binary.LittleEndian.Uint16(p.buf[18:])) }

func (p *Page) setSlotCount(n int) { binary.LittleEndian.PutUint16(p.buf[18:], uint16(n)) }

// NextPage returns the chained page id (heap files, index leaves).
func (p *Page) NextPage() core.PageID {
	return core.PageID(binary.LittleEndian.Uint64(p.buf[24:]))
}

// SetNextPage stores the chained page id.
func (p *Page) SetNextPage(id core.PageID) {
	binary.LittleEndian.PutUint64(p.buf[24:], uint64(id))
}

func (p *Page) freeLow() int { return int(binary.LittleEndian.Uint16(p.buf[20:])) }

func (p *Page) setFreeLow(v int) { binary.LittleEndian.PutUint16(p.buf[20:], uint16(v)) }

// slotTableLow is the page offset of the last (lowest) slot entry.
func (p *Page) slotTableLow() int {
	return p.l.DeltaAreaStart() - SlotSize*p.SlotCount()
}

func (p *Page) slotOff(i int) int {
	return p.l.DeltaAreaStart() - SlotSize*(i+1)
}

func (p *Page) slot(i int) (off, length int) {
	so := p.slotOff(i)
	return int(binary.LittleEndian.Uint16(p.buf[so:])), int(binary.LittleEndian.Uint16(p.buf[so+2:]))
}

func (p *Page) setSlot(i, off, length int) {
	so := p.slotOff(i)
	binary.LittleEndian.PutUint16(p.buf[so:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[so+2:], uint16(length))
}

// FreeSpace returns the bytes available for a new tuple including its
// slot entry (contiguous region between body and slot table).
func (p *Page) FreeSpace() int {
	fs := p.slotTableLow() - p.freeLow()
	if fs < 0 {
		return 0
	}
	return fs
}

// ClassRanges appends the page's offset-classification runs to rs and
// returns the result: header and slot table are metadata, the region
// between them is tuple body, and the delta area is skipped. At most four
// ranges are appended, so `var buf [4]core.ClassRange` with
// `p.ClassRanges(buf[:0])` stays allocation-free.
//
// An offset is metadata when off < HeaderSize or slotTableLow ≤ off <
// DeltaAreaStart, and skipped when off ≥ DeltaAreaStart; the runs say so
// sorted, which is what core.DiffInto wants. The slot-table boundary depends on
// the page's current SlotCount, so ranges must be re-derived per diff,
// not cached per layout.
func (p *Page) ClassRanges(rs []core.ClassRange) []core.ClassRange {
	stl := p.slotTableLow()
	das := p.l.DeltaAreaStart()
	if stl < HeaderSize {
		stl = HeaderSize // corrupt slot count: keep ranges well-formed
	}
	rs = append(rs, core.ClassRange{Start: 0, End: HeaderSize, Class: core.ClassMeta})
	if stl > HeaderSize {
		rs = append(rs, core.ClassRange{Start: HeaderSize, End: stl, Class: core.ClassBody})
	}
	if das > stl {
		rs = append(rs, core.ClassRange{Start: stl, End: das, Class: core.ClassMeta})
	}
	if p.l.PageSize > das {
		rs = append(rs, core.ClassRange{Start: das, End: p.l.PageSize, Class: core.ClassSkip})
	}
	return rs
}

// Insert stores a tuple and returns its slot number. Deleted slots are
// reused; the body is compacted if fragmented free space suffices.
func (p *Page) Insert(data []byte) (int, error) {
	if len(data) == 0 || len(data) > p.l.BodyCapacity()-SlotSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrTupleLarge, len(data))
	}
	slot := -1
	for i := 0; i < p.SlotCount(); i++ {
		if _, ln := p.slot(i); ln == 0 {
			slot = i
			break
		}
	}
	need := len(data)
	if slot < 0 {
		need += SlotSize
	}
	if p.FreeSpace() < need {
		if p.reclaimable() >= need {
			p.Compact()
		}
		if p.FreeSpace() < need {
			return 0, fmt.Errorf("%w: need %d, free %d", ErrPageFull, need, p.FreeSpace())
		}
	}
	off := p.freeLow()
	copy(p.buf[off:], data)
	p.setFreeLow(off + len(data))
	if slot < 0 {
		slot = p.SlotCount()
		p.setSlotCount(slot + 1)
	}
	p.setSlot(slot, off, len(data))
	return slot, nil
}

// InsertAt places a tuple at a specific slot number — required by
// physiological redo (replay an insert) and undo (reverse a delete),
// where the slot is dictated by the log record rather than chosen freely.
// The slot must be empty; intermediate slots created by extending the
// table remain deleted.
func (p *Page) InsertAt(slot int, data []byte) error {
	if slot < 0 || slot >= 1<<16 {
		return fmt.Errorf("%w: slot %d", ErrBadSlot, slot)
	}
	if len(data) == 0 || len(data) > p.l.BodyCapacity()-SlotSize {
		return fmt.Errorf("%w: %d bytes", ErrTupleLarge, len(data))
	}
	if slot < p.SlotCount() {
		if _, ln := p.slot(slot); ln != 0 {
			return fmt.Errorf("%w: slot %d occupied", ErrBadSlot, slot)
		}
	}
	grow := 0
	if slot >= p.SlotCount() {
		grow = SlotSize * (slot + 1 - p.SlotCount())
	}
	if p.FreeSpace() < len(data)+grow {
		if p.reclaimable() >= len(data)+grow-p.FreeSpace() {
			p.Compact()
		}
		if p.FreeSpace() < len(data)+grow {
			return fmt.Errorf("%w: need %d, free %d", ErrPageFull, len(data)+grow, p.FreeSpace())
		}
	}
	if slot >= p.SlotCount() {
		old := p.SlotCount()
		p.setSlotCount(slot + 1)
		for i := old; i <= slot; i++ {
			p.setSlot(i, 0, 0)
		}
	}
	off := p.freeLow()
	copy(p.buf[off:], data)
	p.setFreeLow(off + len(data))
	p.setSlot(slot, off, len(data))
	return nil
}

// ReadTuple returns a view of the tuple's bytes (valid until the page is
// modified).
func (p *Page) ReadTuple(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.SlotCount() {
		return nil, fmt.Errorf("%w: slot %d of %d", ErrBadSlot, slot, p.SlotCount())
	}
	off, ln := p.slot(slot)
	if ln == 0 {
		return nil, fmt.Errorf("%w: slot %d deleted", ErrBadSlot, slot)
	}
	if off+ln > p.l.DeltaAreaStart() || off < HeaderSize {
		return nil, fmt.Errorf("%w: slot %d points at [%d,%d)", ErrCorrupt, slot, off, off+ln)
	}
	return p.buf[off : off+ln], nil
}

// Update replaces the tuple in slot. Same-length updates are performed
// strictly in place — the property that makes small updates produce small
// deltas. Length-changing updates relocate the tuple within the page.
func (p *Page) Update(slot int, data []byte) error {
	if slot < 0 || slot >= p.SlotCount() {
		return fmt.Errorf("%w: slot %d of %d", ErrBadSlot, slot, p.SlotCount())
	}
	off, ln := p.slot(slot)
	if ln == 0 {
		return fmt.Errorf("%w: slot %d deleted", ErrBadSlot, slot)
	}
	if len(data) == ln {
		copy(p.buf[off:], data)
		return nil
	}
	if len(data) == 0 || len(data) > p.l.BodyCapacity()-SlotSize {
		return fmt.Errorf("%w: %d bytes", ErrTupleLarge, len(data))
	}
	// Relocate: the old copy becomes garbage, so it counts toward the
	// space a compaction can recover. Check before destroying anything.
	if p.FreeSpace() < len(data) {
		if p.FreeSpace()+p.reclaimable()+ln < len(data) {
			return fmt.Errorf("%w: need %d, free %d", ErrPageFull, len(data), p.FreeSpace())
		}
		p.setSlot(slot, 0, 0)
		p.Compact()
	} else {
		p.setSlot(slot, 0, 0)
	}
	noff := p.freeLow()
	copy(p.buf[noff:], data)
	p.setFreeLow(noff + len(data))
	p.setSlot(slot, noff, len(data))
	return nil
}

// Delete marks the slot as deleted; its space becomes reclaimable by
// Compact. Slot numbers of other tuples are stable.
func (p *Page) Delete(slot int) error {
	if slot < 0 || slot >= p.SlotCount() {
		return fmt.Errorf("%w: slot %d of %d", ErrBadSlot, slot, p.SlotCount())
	}
	if _, ln := p.slot(slot); ln == 0 {
		return fmt.Errorf("%w: slot %d already deleted", ErrBadSlot, slot)
	}
	p.setSlot(slot, 0, 0)
	return nil
}

// reclaimable estimates bytes recoverable by compaction.
func (p *Page) reclaimable() int {
	used := 0
	for i := 0; i < p.SlotCount(); i++ {
		_, ln := p.slot(i)
		used += ln
	}
	return (p.freeLow() - HeaderSize) - used
}

// Compact defragments the tuple body, preserving slot numbers.
func (p *Page) Compact() {
	type ent struct{ slot, off, ln int }
	live := make([]ent, 0, p.SlotCount())
	for i := 0; i < p.SlotCount(); i++ {
		off, ln := p.slot(i)
		if ln != 0 {
			live = append(live, ent{i, off, ln})
		}
	}
	// Stable copy in ascending offset order into a scratch region.
	scratch := make([]byte, 0, p.freeLow()-HeaderSize)
	for i := range live {
		for j := i + 1; j < len(live); j++ {
			if live[j].off < live[i].off {
				live[i], live[j] = live[j], live[i]
			}
		}
	}
	newOffs := make([]int, len(live))
	pos := HeaderSize
	for i, e := range live {
		scratch = append(scratch, p.buf[e.off:e.off+e.ln]...)
		newOffs[i] = pos
		pos += e.ln
	}
	copy(p.buf[HeaderSize:], scratch)
	for i := pos; i < p.freeLow(); i++ {
		p.buf[i] = 0
	}
	p.setFreeLow(pos)
	for i, e := range live {
		p.setSlot(e.slot, newOffs[i], e.ln)
	}
}

// UsedDeltaSlots counts the programmed delta-records in a *physical*
// image by scanning control bytes (records are always appended in slot
// order, so the first erased control byte ends the sequence).
func UsedDeltaSlots(raw []byte, l Layout) int {
	if l.Scheme.Disabled() {
		return 0
	}
	used := 0
	for i := 0; i < l.Scheme.N; i++ {
		off := l.DeltaSlotOff(i)
		if off >= len(raw) || raw[off] == core.Erased {
			break
		}
		used++
	}
	return used
}

// Reconstruct converts a physical page image (fresh from flash) into the
// logical image: delta-records are applied in slot order
// (core.Scheme.ApplyArea: all of them or, if one is corrupt, none) and
// the delta area is reset to the erased state. It returns the number of
// delta-records that were applied.
func Reconstruct(raw []byte, l Layout) (applied int, err error) {
	if len(raw) != l.PageSize {
		return 0, fmt.Errorf("%w: image %d bytes, layout %d", ErrTooSmall, len(raw), l.PageSize)
	}
	das := l.DeltaAreaStart()
	if applied, err = l.Scheme.ApplyArea(raw, das); err != nil {
		return 0, err
	}
	wipeErased(raw[das:])
	return applied, nil
}

// EncodeRecords encodes delta-records destined for slots
// [firstSlot, firstSlot+len(recs)) into a contiguous byte run suitable
// for a single write_delta command, returning the page offset of the run.
func EncodeRecords(l Layout, firstSlot int, recs []core.DeltaRecord) (pageOff int, data []byte, err error) {
	if l.Scheme.Disabled() {
		return 0, nil, core.ErrSchemeOverflow
	}
	if firstSlot < 0 || firstSlot+len(recs) > l.Scheme.N {
		return 0, nil, fmt.Errorf("%w: slots [%d,%d) of N=%d", core.ErrSchemeOverflow, firstSlot, firstSlot+len(recs), l.Scheme.N)
	}
	rs := l.Scheme.RecordSize()
	data = make([]byte, rs*len(recs))
	for i, r := range recs {
		if err := l.Scheme.Encode(r, data[i*rs:(i+1)*rs]); err != nil {
			return 0, nil, err
		}
	}
	return l.DeltaSlotOff(firstSlot), data, nil
}
