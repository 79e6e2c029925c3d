// Package core holds the heart of the In-Place Appends (IPA) approach from
// "From In-Place Updates to In-Place Appends: Revisiting Out-of-Place
// Updates on Flash" (SIGMOD 2017): the [N×M] scheme that sizes and controls
// the delta-record area of a database page, the wire format of
// delta-records, and the diff machinery that turns in-buffer page
// modifications into append-only delta-records.
//
// A delta-record captures the byte-granular changes applied to a database
// page since it was last flushed. Records are appended to a reserved area
// of the page (the delta-record area) and — crucially — programmed onto the
// very same physical flash page via ISPP, avoiding an out-of-place write.
package core

import (
	"errors"
	"fmt"
)

// PageID identifies a logical database page.
type PageID uint64

// InvalidPageID is the zero, never-allocated page id.
const InvalidPageID PageID = 0

// LSN is a log sequence number in the write-ahead log.
type LSN uint64

// RID addresses a tuple: page plus slot within the page.
type RID struct {
	Page PageID
	Slot uint16
}

func (r RID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// IsValid reports whether the RID points at an allocated page.
func (r RID) IsValid() bool { return r.Page != InvalidPageID }

// Common errors of the delta-record machinery.
var (
	// ErrSchemeOverflow is returned when a set of changes does not fit the
	// remaining delta-record budget of a page and therefore requires an
	// out-of-place write.
	ErrSchemeOverflow = errors.New("core: changes exceed [N×M] delta budget")
	// ErrCorruptDelta is returned when a delta-record cannot be decoded.
	ErrCorruptDelta = errors.New("core: corrupt delta-record")
	// ErrBadScheme is returned for invalid [N×M] parameters.
	ErrBadScheme = errors.New("core: invalid [N×M] scheme")
)

// Erased is the byte value of an erased flash cell (all charge removed).
// An empty delta-record slot is recognised by its control byte being
// Erased, which is exactly what an unprogrammed flash region reads as.
const Erased byte = 0xFF

// Scheme is the paper's [N×M] configuration controlling In-Place Appends.
//
//   - N: maximum number of delta-records a page can host between two
//     out-of-place writes (bounded by flash type: MLC tolerates 2-3 ISPP
//     re-programs per page, SLC more).
//   - M: maximum number of changed page-body bytes per delta-record.
//   - V: maximum number of changed page-metadata (header/footer) bytes
//     tracked per delta-record. The paper observes V ≤ 12 for Shore-MT
//     under OLTP workloads.
//
// The zero Scheme ([0×0]) disables IPA entirely: every eviction is an
// out-of-place page write, which is the paper's baseline configuration.
type Scheme struct {
	N int
	M int
	V int
}

// DefaultV is the metadata-byte budget the paper establishes for
// Shore-MT-style slotted pages under OLTP workloads.
const DefaultV = 12

// MaxM is the largest per-record body budget the paper considers
// realistic (LinkBench gross updates, Sec. 8.2).
const MaxM = 125

// NewScheme returns an [N×M] scheme with the paper's default V.
func NewScheme(n, m int) Scheme { return Scheme{N: n, M: m, V: DefaultV} }

// Disabled reports whether the scheme turns IPA off ([0×0]).
func (s Scheme) Disabled() bool { return s.N <= 0 || s.M <= 0 }

// Validate checks the scheme parameters against the format limits:
// offsets are 2 bytes (max 64KB pages), counts fit the control byte.
func (s Scheme) Validate() error {
	if s.Disabled() {
		return nil
	}
	if s.N < 0 || s.M < 0 || s.V < 0 {
		return fmt.Errorf("%w: negative parameter in [%d×%d] V=%d", ErrBadScheme, s.N, s.M, s.V)
	}
	if s.M > MaxM {
		return fmt.Errorf("%w: M=%d exceeds %d", ErrBadScheme, s.M, MaxM)
	}
	if s.V > MaxM {
		return fmt.Errorf("%w: V=%d exceeds %d", ErrBadScheme, s.V, MaxM)
	}
	if s.N > 64 {
		return fmt.Errorf("%w: N=%d exceeds 64", ErrBadScheme, s.N)
	}
	return nil
}

// RecordSize is the on-page size of one delta-record:
// 1 control byte + 3 bytes per body pair + 3 bytes per metadata pair.
func (s Scheme) RecordSize() int {
	if s.Disabled() {
		return 0
	}
	return 1 + 3*s.M + 3*s.V
}

// AreaSize is the reserved delta-record area per page: N × RecordSize.
func (s Scheme) AreaSize() int {
	if s.Disabled() {
		return 0
	}
	return s.N * s.RecordSize()
}

// SpaceOverhead is the fraction of a page of the given size consumed by
// the delta-record area (e.g. 0.022 for [2×3] on 4KB pages).
func (s Scheme) SpaceOverhead(pageSize int) float64 {
	if pageSize <= 0 {
		return 0
	}
	return float64(s.AreaSize()) / float64(pageSize)
}

func (s Scheme) String() string {
	if s.Disabled() {
		return "[0×0]"
	}
	return fmt.Sprintf("[%d×%d]", s.N, s.M)
}

// Pair is one <new_value, offset> modification: the byte at page offset
// Off is replaced by Val when the record is applied.
type Pair struct {
	Off uint16
	Val byte
}

// DeltaRecord is one decoded delta-record: up to M body pairs and up to V
// metadata pairs, applied in order on page fetch.
type DeltaRecord struct {
	Body []Pair // modifications within the page body
	Meta []Pair // modifications within page header/footer (metadata)
}

// Empty reports whether the record carries no modifications.
func (d DeltaRecord) Empty() bool { return len(d.Body) == 0 && len(d.Meta) == 0 }

// Encode serialises the record into dst, which must be exactly
// s.RecordSize() bytes. Unused pair slots are left in the erased state
// (0xFF) so the encoded record can be ISPP-programmed onto an erased
// delta-record slot without charge-decrease violations.
func (s Scheme) Encode(d DeltaRecord, dst []byte) error {
	if s.Disabled() {
		return fmt.Errorf("%w: encode on disabled scheme", ErrBadScheme)
	}
	if len(dst) != s.RecordSize() {
		return fmt.Errorf("%w: dst %d bytes, want %d", ErrBadScheme, len(dst), s.RecordSize())
	}
	if len(d.Body) > s.M {
		return fmt.Errorf("%w: %d body pairs exceed M=%d", ErrSchemeOverflow, len(d.Body), s.M)
	}
	if len(d.Meta) > s.V {
		return fmt.Errorf("%w: %d meta pairs exceed V=%d", ErrSchemeOverflow, len(d.Meta), s.V)
	}
	for i := range dst {
		dst[i] = Erased
	}
	// The control byte records the body-pair count; it must never collide
	// with the erased marker. Counts are ≤ MaxM (125) < 0xFF.
	dst[0] = byte(len(d.Body))
	pos := 1
	for _, p := range d.Body {
		dst[pos] = p.Val
		dst[pos+1] = byte(p.Off >> 8)
		dst[pos+2] = byte(p.Off)
		pos += 3
	}
	// Body region ends after M pairs regardless of how many were used.
	pos = 1 + 3*s.M
	for _, p := range d.Meta {
		dst[pos] = p.Val
		dst[pos+1] = byte(p.Off >> 8)
		dst[pos+2] = byte(p.Off)
		pos += 3
	}
	return nil
}

// SlotPresent reports whether an encoded delta slot holds a record, i.e.
// its control byte has been programmed.
func SlotPresent(slot []byte) bool { return len(slot) > 0 && slot[0] != Erased }

// ApplyArea replays a physical page image's delta-records onto it — the
// decoder of the fetch path. The records sit in the s.N slots of
// s.RecordSize() bytes that start at page[area]; they are applied in slot
// order up to the first erased slot, and their number is returned. Every
// present slot is checked before the first byte changes: a corrupt
// record (body count beyond M, an offset beyond the page) fails the whole
// image with ErrCorruptDelta and leaves it as it was read. The pairs are
// applied straight from the slot bytes, so this allocates nothing.
//
// A pair aimed at page[area:] is skipped: the slots must stay as they
// were validated, and what follows them is not part of the logical image
// (the caller resets it). That also skips the unused metadata pairs,
// whose offset reads 0xFFFF.
func (s Scheme) ApplyArea(page []byte, area int) (applied int, err error) {
	if s.Disabled() {
		return 0, nil
	}
	if area < 0 || area+s.AreaSize() > len(page) {
		return 0, fmt.Errorf("%w: delta area [%d,%d) outside a %d-byte page", ErrBadScheme, area, area+s.AreaSize(), len(page))
	}
	rs := s.RecordSize()
	for ; applied < s.N; applied++ {
		slot := page[area+applied*rs:][:rs]
		if !SlotPresent(slot) {
			break
		}
		n := int(slot[0])
		if n > s.M {
			return 0, fmt.Errorf("%w: body count %d exceeds M=%d", ErrCorruptDelta, n, s.M)
		}
		for pos := 1; pos < 1+3*n; pos += 3 {
			if off := pairOff(slot, pos); off >= len(page) {
				return 0, fmt.Errorf("%w: body offset %d beyond page size %d", ErrCorruptDelta, off, len(page))
			}
		}
		for pos := 1 + 3*s.M; pos < rs; pos += 3 {
			if off := pairOff(slot, pos); off >= len(page) && !metaPairUnused(slot, pos) {
				return 0, fmt.Errorf("%w: meta offset %d beyond page size %d", ErrCorruptDelta, off, len(page))
			}
		}
	}
	for i := 0; i < applied; i++ {
		slot := page[area+i*rs:][:rs]
		applyPairs(page[:area], slot[1:1+3*int(slot[0])])
		applyPairs(page[:area], slot[1+3*s.M:])
	}
	return applied, nil
}

// applyPairs writes the encoded <value, offset> pairs that fall inside
// dst.
func applyPairs(dst, pairs []byte) {
	for pos := 0; pos < len(pairs); pos += 3 {
		if off := pairOff(pairs, pos); off < len(dst) {
			dst[off] = pairs[pos]
		}
	}
}

// pairOff reads the page offset of the encoded pair at pos.
func pairOff(slot []byte, pos int) int { return int(slot[pos+1])<<8 | int(slot[pos+2]) }

// metaPairUnused reports whether a metadata pair was left erased (see
// Decode for why the value byte is part of the test).
func metaPairUnused(slot []byte, pos int) bool {
	return slot[pos] == Erased && slot[pos+1] == Erased && slot[pos+2] == Erased
}

// Decode parses one encoded delta-record slot into its pairs. An erased
// slot decodes to an empty record and present=false. Decode and
// DeltaRecord.Apply are the reference ApplyArea is tested against
// (TestApplyAreaMatchesDecodeApply) and the way to look inside a record;
// the fetch path does not call them.
func (s Scheme) Decode(slot []byte) (d DeltaRecord, present bool, err error) {
	if len(slot) != s.RecordSize() {
		return DeltaRecord{}, false, fmt.Errorf("%w: slot %d bytes, want %d", ErrCorruptDelta, len(slot), s.RecordSize())
	}
	if !SlotPresent(slot) {
		return DeltaRecord{}, false, nil
	}
	n := int(slot[0])
	if n > s.M {
		return DeltaRecord{}, false, fmt.Errorf("%w: body count %d exceeds M=%d", ErrCorruptDelta, n, s.M)
	}
	d.Body = make([]Pair, 0, n)
	pos := 1
	for i := 0; i < n; i++ {
		d.Body = append(d.Body, Pair{
			Val: slot[pos],
			Off: uint16(slot[pos+1])<<8 | uint16(slot[pos+2]),
		})
		pos += 3
	}
	pos = 1 + 3*s.M
	for i := 0; i < s.V; i++ {
		off := uint16(slot[pos+1])<<8 | uint16(slot[pos+2])
		// An unused metadata pair is fully erased; 0xFFFF is not a legal
		// page offset for metadata (metadata lives at the page edges but a
		// 64KB page would place its last byte at 0xFFFF — we therefore
		// require the value byte to also be erased to treat it as absent).
		if off == 0xFFFF && slot[pos] == Erased {
			pos += 3
			continue
		}
		d.Meta = append(d.Meta, Pair{Val: slot[pos], Off: off})
		pos += 3
	}
	return d, true, nil
}

// Apply replays the record onto a page image, replacing changed bytes.
// Offsets beyond the image are reported as corruption.
func (d DeltaRecord) Apply(page []byte) error {
	for _, p := range d.Body {
		if int(p.Off) >= len(page) {
			return fmt.Errorf("%w: body offset %d beyond page size %d", ErrCorruptDelta, p.Off, len(page))
		}
		page[p.Off] = p.Val
	}
	for _, p := range d.Meta {
		if int(p.Off) >= len(page) {
			return fmt.Errorf("%w: meta offset %d beyond page size %d", ErrCorruptDelta, p.Off, len(page))
		}
		page[p.Off] = p.Val
	}
	return nil
}
