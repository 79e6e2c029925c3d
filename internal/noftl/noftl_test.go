package noftl

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ipa/internal/core"
	"ipa/internal/flash"
)

func newDevice(t testing.TB, cell flash.CellType, chips, blocks, pages, pageSize int) *Device {
	t.Helper()
	g := flash.Geometry{
		Chips: chips, BlocksPerChip: blocks, PagesPerBlock: pages,
		PageSize: pageSize, OOBSize: pageSize / 16, Cell: cell,
	}
	timing := flash.SLCTiming()
	if cell == flash.MLC {
		timing = flash.MLCTiming()
	}
	arr, err := flash.New(flash.Config{Geometry: g, Timing: timing, StrictProgramOrder: true, MaxAppends: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return Open(arr)
}

func pageOf(dev *Device, fill byte) []byte {
	p := bytes.Repeat([]byte{0xFF}, dev.Geometry().PageSize)
	for i := 0; i < 16; i++ {
		p[i] = fill
	}
	return p
}

func TestCreateRegionValidation(t *testing.T) {
	dev := newDevice(t, flash.SLC, 2, 8, 8, 256)
	if _, err := dev.CreateRegion(RegionConfig{Name: "a", Mode: ModePSLC, BlocksPerChip: 2}); err == nil {
		t.Error("pSLC on SLC accepted")
	}
	if _, err := dev.CreateRegion(RegionConfig{Name: "a", Mode: ModeSLC, BlocksPerChip: 0}); err == nil {
		t.Error("zero blocks accepted")
	}
	if _, err := dev.CreateRegion(RegionConfig{Name: "a", Mode: ModeSLC, BlocksPerChip: 9}); !errors.Is(err, ErrNoBlocks) {
		t.Errorf("oversized region: %v", err)
	}
	r, err := dev.CreateRegion(RegionConfig{Name: "a", Mode: ModeSLC, Scheme: core.NewScheme(2, 3), BlocksPerChip: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "a" || r.Mode() != ModeSLC {
		t.Error("region identity wrong")
	}
	if _, err := dev.CreateRegion(RegionConfig{Name: "a", Mode: ModeSLC, BlocksPerChip: 1}); !errors.Is(err, ErrRegionExists) {
		t.Errorf("duplicate region: %v", err)
	}
	// Remaining blocks: 4 per chip.
	if _, err := dev.CreateRegion(RegionConfig{Name: "b", Mode: ModeNone, BlocksPerChip: 4}); err != nil {
		t.Errorf("second region: %v", err)
	}
	if dev.Region("a") != r || dev.Region("zzz") != nil {
		t.Error("Region lookup wrong")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	dev := newDevice(t, flash.SLC, 2, 8, 8, 256)
	r, err := dev.CreateRegion(RegionConfig{Name: "d", Mode: ModeSLC, Scheme: core.NewScheme(2, 3), BlocksPerChip: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := pageOf(dev, 0x11)
	if err := r.Write(nil, 1, want, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := r.Read(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("read-back mismatch")
	}
	if _, _, err := r.Read(nil, 99); !errors.Is(err, ErrUnknownPage) {
		t.Errorf("unknown page read: %v", err)
	}
	s := r.Stats()
	if s.HostReads != 1 || s.OutOfPlaceWrites != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestOverwriteRelocatesAndInvalidates(t *testing.T) {
	dev := newDevice(t, flash.SLC, 1, 8, 8, 256)
	r, _ := dev.CreateRegion(RegionConfig{Name: "d", Mode: ModeSLC, BlocksPerChip: 8})
	if err := r.Write(nil, 1, pageOf(dev, 1), nil); err != nil {
		t.Fatal(err)
	}
	p1, _ := r.PPNOf(1)
	if err := r.Write(nil, 1, pageOf(dev, 2), nil); err != nil {
		t.Fatal(err)
	}
	p2, _ := r.PPNOf(1)
	if p1 == p2 {
		t.Error("overwrite did not relocate (out-of-place rule violated)")
	}
	got, _, _ := r.Read(nil, 1)
	if got[0] != 2 {
		t.Error("read returned stale version")
	}
}

func TestWriteDeltaAppendsInPlace(t *testing.T) {
	dev := newDevice(t, flash.SLC, 1, 8, 8, 256)
	r, _ := dev.CreateRegion(RegionConfig{Name: "d", Mode: ModeSLC, Scheme: core.NewScheme(2, 3), BlocksPerChip: 8})
	img := pageOf(dev, 0xAB) // tail stays erased = delta area
	if err := r.Write(nil, 7, img, nil); err != nil {
		t.Fatal(err)
	}
	before, _ := r.PPNOf(7)
	if !r.CanAppend(7) {
		t.Fatal("CanAppend = false on fresh SLC page")
	}
	if err := r.WriteDelta(nil, 7, 200, []byte{0x01, 0x02}, 0, nil); err != nil {
		t.Fatal(err)
	}
	after, _ := r.PPNOf(7)
	if before != after {
		t.Error("write_delta relocated the page")
	}
	got, _, _ := r.Read(nil, 7)
	if got[200] != 0x01 || got[201] != 0x02 {
		t.Error("delta not visible on read")
	}
	s := r.Stats()
	if s.DeltaWrites != 1 || s.HostWrites() != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.IPAFraction() != 0.5 {
		t.Errorf("IPAFraction = %v", s.IPAFraction())
	}
}

func TestWriteDeltaRejectedWhenDisabled(t *testing.T) {
	dev := newDevice(t, flash.SLC, 1, 8, 8, 256)
	r, _ := dev.CreateRegion(RegionConfig{Name: "d", Mode: ModeNone, BlocksPerChip: 8})
	if err := r.Write(nil, 1, pageOf(dev, 1), nil); err != nil {
		t.Fatal(err)
	}
	if r.CanAppend(1) {
		t.Error("CanAppend = true in ModeNone")
	}
	if err := r.WriteDelta(nil, 1, 0, []byte{0}, 0, nil); !errors.Is(err, ErrNotAppendable) {
		t.Errorf("delta in ModeNone: %v", err)
	}
}

func TestPSLCUsesOnlyLSBPages(t *testing.T) {
	dev := newDevice(t, flash.MLC, 1, 8, 8, 256)
	r, _ := dev.CreateRegion(RegionConfig{Name: "d", Mode: ModePSLC, Scheme: core.NewScheme(2, 4), BlocksPerChip: 8})
	g := dev.Geometry()
	for i := core.PageID(1); i <= 8; i++ {
		if err := r.Write(nil, i, pageOf(dev, byte(i)), nil); err != nil {
			t.Fatal(err)
		}
		ppn, _ := r.PPNOf(i)
		if !g.IsLSB(ppn) {
			t.Errorf("pSLC placed page %d on MSB ppn %d", i, ppn)
		}
		if !r.CanAppend(i) {
			t.Errorf("pSLC page %d not appendable", i)
		}
	}
	// Capacity halves: 8 blocks × 4 usable pages × 0.9 OP.
	usable := float64(8 * 4)
	wantCap := int(usable * 0.9)
	if r.LogicalCapacity() != wantCap {
		t.Errorf("LogicalCapacity = %d", r.LogicalCapacity())
	}
}

func TestOddMLCAppendsOnlyOnLSB(t *testing.T) {
	dev := newDevice(t, flash.MLC, 1, 8, 8, 256)
	r, _ := dev.CreateRegion(RegionConfig{Name: "d", Mode: ModeOddMLC, Scheme: core.NewScheme(2, 4), BlocksPerChip: 8})
	g := dev.Geometry()
	lsb, msb := 0, 0
	for i := core.PageID(1); i <= 8; i++ {
		if err := r.Write(nil, i, pageOf(dev, byte(i)), nil); err != nil {
			t.Fatal(err)
		}
		ppn, _ := r.PPNOf(i)
		if g.IsLSB(ppn) {
			lsb++
			if !r.CanAppend(i) {
				t.Errorf("LSB page %d not appendable", i)
			}
		} else {
			msb++
			if r.CanAppend(i) {
				t.Errorf("MSB page %d appendable", i)
			}
			if err := r.WriteDelta(nil, i, 200, []byte{0}, 0, nil); !errors.Is(err, ErrNotAppendable) {
				t.Errorf("MSB delta: %v", err)
			}
		}
	}
	if lsb != 4 || msb != 4 {
		t.Errorf("lsb=%d msb=%d, want 4/4", lsb, msb)
	}
}

func TestGarbageCollectionReclaimsSpace(t *testing.T) {
	dev := newDevice(t, flash.SLC, 1, 8, 8, 256)
	r, _ := dev.CreateRegion(RegionConfig{
		Name: "d", Mode: ModeSLC, BlocksPerChip: 8, OverProvision: 0.3,
	})
	cap := r.LogicalCapacity()
	// Fill logical capacity, then keep overwriting to force GC.
	for i := 0; i < cap; i++ {
		if err := r.Write(nil, core.PageID(i+1), pageOf(dev, byte(i)), nil); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	for round := 0; round < 10; round++ {
		for i := 0; i < cap; i++ {
			if err := r.Write(nil, core.PageID(i+1), pageOf(dev, byte(round)), nil); err != nil {
				t.Fatalf("round %d page %d: %v", round, i, err)
			}
		}
	}
	s := r.Stats()
	if s.GCErases == 0 {
		t.Error("no GC erases after 10 overwrite rounds")
	}
	// All pages still readable with latest content.
	for i := 0; i < cap; i++ {
		got, _, err := r.Read(nil, core.PageID(i+1))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got[0] != 9 {
			t.Fatalf("page %d holds round %d, want 9", i, got[0])
		}
	}
}

func TestGCMigratesDeltaRecordsIntact(t *testing.T) {
	dev := newDevice(t, flash.SLC, 1, 8, 8, 256)
	r, _ := dev.CreateRegion(RegionConfig{
		Name: "d", Mode: ModeSLC, Scheme: core.NewScheme(2, 3),
		BlocksPerChip: 8, OverProvision: 0.3,
	})
	// Write one page with a delta, then churn others until GC migrates it.
	if err := r.Write(nil, 1, pageOf(dev, 0x55), nil); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteDelta(nil, 1, 200, []byte{0x0F}, 0, nil); err != nil {
		t.Fatal(err)
	}
	origPPN, _ := r.PPNOf(1)
	cap := r.LogicalCapacity()
	for round := 0; round < 12; round++ {
		for i := 2; i <= cap; i++ {
			if err := r.Write(nil, core.PageID(i), pageOf(dev, byte(round)), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	newPPN, _ := r.PPNOf(1)
	if newPPN == origPPN {
		t.Skip("page 1 was never migrated; churn too small")
	}
	got, _, err := r.Read(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[200] != 0x0F || got[0] != 0x55 {
		t.Error("delta or body lost across migration")
	}
}

func TestRegionFull(t *testing.T) {
	dev := newDevice(t, flash.SLC, 1, 4, 4, 256)
	r, _ := dev.CreateRegion(RegionConfig{Name: "d", Mode: ModeSLC, BlocksPerChip: 4, OverProvision: 0.5})
	cap := r.LogicalCapacity()
	for i := 0; i < cap; i++ {
		if err := r.Write(nil, core.PageID(i+1), pageOf(dev, 1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Write(nil, core.PageID(cap+1), pageOf(dev, 1), nil); !errors.Is(err, ErrRegionFull) {
		t.Errorf("write past capacity: %v", err)
	}
	if r.MappedPages() != cap {
		t.Errorf("MappedPages = %d, want %d", r.MappedPages(), cap)
	}
}

func TestFreeInvalidatesPage(t *testing.T) {
	dev := newDevice(t, flash.SLC, 1, 8, 8, 256)
	r, _ := dev.CreateRegion(RegionConfig{Name: "d", Mode: ModeSLC, BlocksPerChip: 8})
	if err := r.Write(nil, 1, pageOf(dev, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Free(1); err != nil {
		t.Fatal(err)
	}
	if r.Contains(1) {
		t.Error("freed page still mapped")
	}
	if _, _, err := r.Read(nil, 1); !errors.Is(err, ErrUnknownPage) {
		t.Errorf("read freed page: %v", err)
	}
	if err := r.Free(1); !errors.Is(err, ErrUnknownPage) {
		t.Errorf("double free: %v", err)
	}
}

func TestMultipleRegionsIsolated(t *testing.T) {
	dev := newDevice(t, flash.MLC, 2, 8, 8, 256)
	hot, err := dev.CreateRegion(RegionConfig{Name: "hot", Mode: ModePSLC, Scheme: core.NewScheme(2, 3), BlocksPerChip: 4})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := dev.CreateRegion(RegionConfig{Name: "cold", Mode: ModeOddMLC, Scheme: core.NewScheme(2, 3), BlocksPerChip: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := hot.Write(nil, 1, pageOf(dev, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := cold.Write(nil, 1, pageOf(dev, 2), nil); err != nil {
		t.Fatal(err)
	}
	h, _, _ := hot.Read(nil, 1)
	c, _, _ := cold.Read(nil, 1)
	if h[0] != 1 || c[0] != 2 {
		t.Error("regions share page ids but returned wrong data")
	}
	hp, _ := hot.PPNOf(1)
	cp, _ := cold.PPNOf(1)
	if dev.Geometry().BlockOf(hp) == dev.Geometry().BlockOf(cp) {
		t.Error("regions share a block")
	}
}

func TestStatsRatios(t *testing.T) {
	s := Stats{OutOfPlaceWrites: 30, DeltaWrites: 70, GCPageMigrations: 50, GCErases: 10}
	if s.HostWrites() != 100 {
		t.Errorf("HostWrites = %d", s.HostWrites())
	}
	if s.IPAFraction() != 0.7 {
		t.Errorf("IPAFraction = %v", s.IPAFraction())
	}
	if s.MigrationsPerHostWrite() != 0.5 {
		t.Errorf("MigrationsPerHostWrite = %v", s.MigrationsPerHostWrite())
	}
	if s.ErasesPerHostWrite() != 0.1 {
		t.Errorf("ErasesPerHostWrite = %v", s.ErasesPerHostWrite())
	}
	var zero Stats
	if zero.IPAFraction() != 0 || zero.MigrationsPerHostWrite() != 0 || zero.ErasesPerHostWrite() != 0 {
		t.Error("zero stats ratios not zero")
	}
}

func TestIPAModeString(t *testing.T) {
	for m, want := range map[IPAMode]string{ModeNone: "none", ModeSLC: "SLC", ModePSLC: "pSLC", ModeOddMLC: "odd-MLC"} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
}

// Heavier randomized churn: interleaved writes, deltas and frees across
// two regions must never lose data.
func TestChurnConsistency(t *testing.T) {
	dev := newDevice(t, flash.SLC, 2, 16, 8, 256)
	r, _ := dev.CreateRegion(RegionConfig{
		Name: "d", Mode: ModeSLC, Scheme: core.NewScheme(2, 3),
		BlocksPerChip: 16, OverProvision: 0.25,
	})
	type state struct {
		fill  byte
		delta byte
		has   bool
	}
	shadow := make(map[core.PageID]*state)
	cap := r.LogicalCapacity()
	n := cap * 20
	for i := 0; i < n; i++ {
		id := core.PageID(i%cap + 1)
		st := shadow[id]
		if st == nil {
			st = &state{}
			shadow[id] = st
		}
		switch i % 5 {
		case 0, 1, 2: // out-of-place write
			fill := byte(i)
			if err := r.Write(nil, id, pageOf(dev, fill), nil); err != nil {
				t.Fatalf("op %d write: %v", i, err)
			}
			st.fill, st.delta, st.has = fill, 0xFF, true
		case 3: // delta append when legal
			if st.has && r.CanAppend(id) && dev.Array().Appends(mustPPN(t, r, id)) < 2 {
				d := byte(i) & st.delta // only clear bits (legal ISPP)
				if err := r.WriteDelta(nil, id, 200, []byte{d}, 0, nil); err != nil {
					t.Fatalf("op %d delta: %v", i, err)
				}
				st.delta = d
			}
		case 4: // verify
			if st.has {
				got, _, err := r.Read(nil, id)
				if err != nil {
					t.Fatalf("op %d read: %v", i, err)
				}
				if got[0] != st.fill {
					t.Fatalf("op %d: page %d fill %d, want %d", i, id, got[0], st.fill)
				}
				if got[200] != st.delta {
					t.Fatalf("op %d: page %d delta %#x, want %#x", i, id, got[200], st.delta)
				}
			}
		}
	}
	if r.Stats().GCErases == 0 {
		t.Log("warning: churn did not trigger GC")
	}
}

func mustPPN(t *testing.T, r *Region, id core.PageID) flash.PPN {
	t.Helper()
	p, ok := r.PPNOf(id)
	if !ok {
		t.Fatalf("page %d unmapped", id)
	}
	return p
}

// Ensure error message quality: wrapped sentinel errors are preserved.
func TestErrorWrapping(t *testing.T) {
	dev := newDevice(t, flash.SLC, 1, 4, 4, 256)
	r, _ := dev.CreateRegion(RegionConfig{Name: "d", Mode: ModeSLC, BlocksPerChip: 4})
	err := r.WriteDelta(nil, 42, 0, []byte{0}, 0, nil)
	if !errors.Is(err, ErrUnknownPage) {
		t.Errorf("unknown page delta: %v", err)
	}
	if msg := fmt.Sprint(err); msg == "" {
		t.Error("empty error message")
	}
}

// A page id beyond core.MaxPageID is nobody's page: every lookup misses,
// and Write and Adopt refuse it without mapping or programming anything.
func TestPageIDBeyondTheBound(t *testing.T) {
	dev := newDevice(t, flash.SLC, 1, 8, 8, 256)
	r, _ := dev.CreateRegion(RegionConfig{Name: "d", Mode: ModeSLC, BlocksPerChip: 8})
	if err := r.Write(nil, 1, pageOf(dev, 1), nil); err != nil {
		t.Fatal(err)
	}
	ppn, _ := r.PPNOf(1)
	for _, id := range []core.PageID{core.MaxPageID + 1, 1 << 40, ^core.PageID(0)} {
		if err := r.Write(nil, id, pageOf(dev, 2), nil); !errors.Is(err, core.ErrPageIDRange) {
			t.Errorf("Write(%d): %v, want ErrPageIDRange", id, err)
		}
		if r.Contains(id) || r.CanAppend(id) {
			t.Errorf("page %d is mapped", id)
		}
		if _, _, err := r.Read(nil, id); !errors.Is(err, ErrUnknownPage) {
			t.Errorf("Read(%d): %v, want ErrUnknownPage", id, err)
		}
		if err := r.Free(id); !errors.Is(err, ErrUnknownPage) {
			t.Errorf("Free(%d): %v, want ErrUnknownPage", id, err)
		}
		if err := r.Adopt(map[core.PageID]flash.PPN{1: ppn, id: ppn + 1}); !errors.Is(err, core.ErrPageIDRange) {
			t.Errorf("Adopt with page %d: %v, want ErrPageIDRange", id, err)
		}
	}
	if got := r.Stats().OutOfPlaceWrites; got != 1 {
		t.Errorf("%d pages programmed, want the one in range", got)
	}
	if r.MappedPages() != 1 || !r.Contains(1) {
		t.Errorf("the refusals disturbed the mapping: %d pages mapped", r.MappedPages())
	}
}
