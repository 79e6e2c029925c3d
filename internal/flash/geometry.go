// Package flash implements a bit-accurate NAND flash memory model: the
// substrate the paper's In-Place Appends run on.
//
// The model enforces the physics that make IPA possible and out-of-place
// updates otherwise necessary (Sec. 3 of the paper): ISPP programming can
// only *increase* the charge of a cell — i.e. flip bits 1→0 — while only a
// block-granular erase resets cells to the uncharged state (0xFF). Any
// attempted program that would require a 0→1 transition fails with
// ErrBitIncrease, so an incorrect IPA implementation fails loudly, exactly
// as it would corrupt data on real hardware.
//
// SLC and MLC organisations are supported. On MLC every wordline carries
// an LSB and an MSB page; ISPP re-programming (ProgramDelta) is permitted
// only on LSB pages, matching the paper's pSLC and odd-MLC modes
// (Appendix C). Latency, wear and bit-error behaviour are configurable.
package flash

import (
	"fmt"
	"time"
)

// CellType selects the NAND cell organisation.
type CellType int

const (
	// SLC stores one bit per cell; appends are unrestricted.
	SLC CellType = iota
	// MLC stores two bits per cell; each wordline maps to an LSB page and
	// an MSB page, and only LSB pages tolerate ISPP re-programming.
	MLC
)

func (c CellType) String() string {
	switch c {
	case SLC:
		return "SLC"
	case MLC:
		return "MLC"
	default:
		return fmt.Sprintf("CellType(%d)", int(c))
	}
}

// PagesPerWordline returns how many pages share a wordline.
func (c CellType) PagesPerWordline() int {
	switch c {
	case MLC:
		return 2
	default:
		return 1
	}
}

// PPN is a physical page number: a global index over all pages of an
// array, chip-major then block then page-in-block.
type PPN uint64

// Geometry describes the physical organisation of a flash array.
type Geometry struct {
	Chips         int // independent dies; unit of I/O parallelism
	BlocksPerChip int // erase units per chip
	PagesPerBlock int // pages per erase unit (32-256 on real parts)
	PageSize      int // data bytes per page
	OOBSize       int // out-of-band (spare) bytes per page, for ECC

	Cell CellType
}

// Validate checks the geometry for consistency.
func (g Geometry) Validate() error {
	switch {
	case g.Chips <= 0:
		return fmt.Errorf("flash: %d chips", g.Chips)
	case g.BlocksPerChip <= 0:
		return fmt.Errorf("flash: %d blocks per chip", g.BlocksPerChip)
	case g.PagesPerBlock <= 0:
		return fmt.Errorf("flash: %d pages per block", g.PagesPerBlock)
	case g.PagesPerBlock%g.Cell.PagesPerWordline() != 0:
		return fmt.Errorf("flash: %v needs pages per block divisible by %d, got %d",
			g.Cell, g.Cell.PagesPerWordline(), g.PagesPerBlock)
	case g.PageSize <= 0:
		return fmt.Errorf("flash: page size %d", g.PageSize)
	case g.OOBSize < 0:
		return fmt.Errorf("flash: OOB size %d", g.OOBSize)
	}
	return nil
}

// PagesPerChip returns the number of pages on one chip.
func (g Geometry) PagesPerChip() int { return g.BlocksPerChip * g.PagesPerBlock }

// TotalPages returns the number of pages in the whole array.
func (g Geometry) TotalPages() int { return g.Chips * g.PagesPerChip() }

// TotalBlocks returns the number of erase units in the whole array.
func (g Geometry) TotalBlocks() int { return g.Chips * g.BlocksPerChip }

// ChipOf returns the chip holding ppn.
func (g Geometry) ChipOf(p PPN) int { return int(p) / g.PagesPerChip() }

// BlockOf returns the global block index of ppn.
func (g Geometry) BlockOf(p PPN) int { return int(p) / g.PagesPerBlock }

// PageInBlock returns the page index of ppn within its block.
func (g Geometry) PageInBlock(p PPN) int { return int(p) % g.PagesPerBlock }

// FirstPageOfBlock returns the PPN of page 0 of the global block index.
func (g Geometry) FirstPageOfBlock(block int) PPN {
	return PPN(block * g.PagesPerBlock)
}

// IsLSB reports whether ppn is an LSB page. On SLC every page is an LSB
// page. On MLC we model the wordline grouping as the first page of
// each wordline group being LSB (the paper's 2N−1 / 2N+2 numbering has
// the same structure; only the interleaving offset differs).
func (g Geometry) IsLSB(p PPN) bool {
	return g.PageInBlock(p)%g.Cell.PagesPerWordline() == 0
}

// Timing models per-operation latencies. All values are service times at
// the chip; queueing delay comes from the sim.Timeline.
type Timing struct {
	Read       time.Duration // page read (cell array → page register)
	ProgramLSB time.Duration // full-page program of an LSB (or SLC) page
	ProgramMSB time.Duration // full-page program of an MSB page
	Erase      time.Duration // block erase

	// Delta is the ISPP re-program of a small region (write_delta). It is
	// cheaper than a full-page program: fewer cells are pulsed and
	// verified, and the bitline setup covers only the appended region.
	Delta time.Duration

	// TransferPerByte is the channel/bus transfer cost per byte moved
	// between controller and page register.
	TransferPerByte time.Duration
}

// SLCTiming returns typical SLC NAND datasheet latencies.
func SLCTiming() Timing {
	return Timing{
		Read:            25 * time.Microsecond,
		ProgramLSB:      200 * time.Microsecond,
		ProgramMSB:      200 * time.Microsecond,
		Erase:           1500 * time.Microsecond,
		Delta:           80 * time.Microsecond,
		TransferPerByte: 10 * time.Nanosecond, // ~100 MB/s channel
	}
}

// MLCTiming returns typical MLC NAND datasheet latencies; MSB programs are
// several times slower than LSB programs.
func MLCTiming() Timing {
	return Timing{
		Read:            50 * time.Microsecond,
		ProgramLSB:      300 * time.Microsecond,
		ProgramMSB:      1200 * time.Microsecond,
		Erase:           3000 * time.Microsecond,
		Delta:           120 * time.Microsecond,
		TransferPerByte: 10 * time.Nanosecond,
	}
}

// ProgramTime returns the full-page program latency for ppn.
func (g Geometry) ProgramTime(t Timing, p PPN) time.Duration {
	if g.IsLSB(p) {
		return t.ProgramLSB
	}
	return t.ProgramMSB
}

// Standard wear-out limits (program/erase cycles) quoted in Sec. 8.4.
const (
	EnduranceSLC = 100_000
	EnduranceMLC = 10_000
)
