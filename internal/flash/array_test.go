package flash

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ipa/internal/sim"
)

func testGeom(cell CellType) Geometry {
	return Geometry{
		Chips:         2,
		BlocksPerChip: 4,
		PagesPerBlock: 8,
		PageSize:      256,
		OOBSize:       16,
		Cell:          cell,
	}
}

func newTestArray(t *testing.T, cell CellType) *Array {
	t.Helper()
	cfg := Config{Geometry: testGeom(cell), Timing: SLCTiming(), StrictProgramOrder: true}
	a, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGeometryValidate(t *testing.T) {
	g := testGeom(SLC)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Geometry{
		{},
		{Chips: 1, BlocksPerChip: 1, PagesPerBlock: 3, PageSize: 256, Cell: MLC},
		{Chips: 1, BlocksPerChip: 1, PagesPerBlock: 4, PageSize: 0},
		{Chips: 1, BlocksPerChip: 1, PagesPerBlock: 4, PageSize: 256, OOBSize: -1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid geometry accepted", i)
		}
	}
}

func TestGeometryAddressing(t *testing.T) {
	g := testGeom(SLC)
	if g.TotalPages() != 2*4*8 {
		t.Errorf("TotalPages = %d", g.TotalPages())
	}
	if g.TotalBlocks() != 8 {
		t.Errorf("TotalBlocks = %d", g.TotalBlocks())
	}
	p := PPN(35) // chip 1, block 4, page 3
	if g.ChipOf(p) != 1 {
		t.Errorf("ChipOf = %d", g.ChipOf(p))
	}
	if g.BlockOf(p) != 4 {
		t.Errorf("BlockOf = %d", g.BlockOf(p))
	}
	if g.PageInBlock(p) != 3 {
		t.Errorf("PageInBlock = %d", g.PageInBlock(p))
	}
	if g.FirstPageOfBlock(4) != 32 {
		t.Errorf("FirstPageOfBlock = %d", g.FirstPageOfBlock(4))
	}
}

// readPage reads page p into fresh buffers through ReadInto.
func readPage(a *Array, p PPN) (data, oob []byte, lat time.Duration, err error) {
	data, oob = make([]byte, a.geom.PageSize), make([]byte, a.geom.OOBSize)
	if lat, err = a.ReadInto(nil, p, data, oob); err != nil {
		return nil, nil, 0, err
	}
	return data, oob, lat, nil
}

func TestLSBMapping(t *testing.T) {
	slc := testGeom(SLC)
	for p := PPN(0); p < 8; p++ {
		if !slc.IsLSB(p) {
			t.Errorf("SLC page %d not LSB", p)
		}
	}
	mlc := testGeom(MLC)
	lsb := 0
	for p := PPN(0); p < PPN(mlc.TotalPages()); p++ {
		if mlc.IsLSB(p) {
			lsb++
		}
	}
	if lsb != mlc.TotalPages()/2 {
		t.Errorf("MLC LSB pages = %d, want half of %d", lsb, mlc.TotalPages())
	}
}

func TestFreshDeviceReadsErased(t *testing.T) {
	a := newTestArray(t, SLC)
	data, oob, _, err := readPage(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range data {
		if b != 0xFF {
			t.Fatal("fresh page not erased")
		}
	}
	for _, b := range oob {
		if b != 0xFF {
			t.Fatal("fresh OOB not erased")
		}
	}
	if !a.IsErased(0) {
		t.Error("IsErased = false on fresh page")
	}
}

func TestProgramReadBack(t *testing.T) {
	a := newTestArray(t, SLC)
	want := bytes.Repeat([]byte{0xA5}, 256)
	oobWant := bytes.Repeat([]byte{0x3C}, 16)
	if _, err := a.Program(nil, 5, want, oobWant); err != nil {
		t.Fatal(err)
	}
	data, oob, _, err := readPage(a, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Error("data mismatch")
	}
	if !bytes.Equal(oob, oobWant) {
		t.Error("oob mismatch")
	}
	if a.IsErased(5) {
		t.Error("programmed page reported erased")
	}
}

func TestProgramTwiceFails(t *testing.T) {
	a := newTestArray(t, SLC)
	page := make([]byte, 256)
	if _, err := a.Program(nil, 0, page, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Program(nil, 0, page, nil); !errors.Is(err, ErrNotErased) {
		t.Errorf("second program: %v, want ErrNotErased", err)
	}
}

func TestProgramOrderEnforced(t *testing.T) {
	a := newTestArray(t, MLC)
	page := make([]byte, 256)
	if _, err := a.Program(nil, 3, page, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Program(nil, 1, page, nil); !errors.Is(err, ErrProgramOrder) {
		t.Errorf("out-of-order program: %v, want ErrProgramOrder", err)
	}
	// A different block is unaffected.
	if _, err := a.Program(nil, 8, page, nil); err != nil {
		t.Errorf("other block: %v", err)
	}
}

func TestProgramDeltaAppendsToErasedRegion(t *testing.T) {
	a := newTestArray(t, SLC)
	page := bytes.Repeat([]byte{0xFF}, 256)
	copy(page, []byte("original body"))
	// Delta area [200,256) stays erased in the initial program.
	if _, err := a.Program(nil, 0, page, nil); err != nil {
		t.Fatal(err)
	}
	delta := []byte{0x12, 0x34}
	if _, err := a.ProgramDelta(nil, 0, 200, delta, 0, nil); err != nil {
		t.Fatal(err)
	}
	data, _, _, err := readPage(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if data[200] != 0x12 || data[201] != 0x34 {
		t.Errorf("delta not readable: %#x %#x", data[200], data[201])
	}
	if !bytes.Equal(data[:13], []byte("original body")) {
		t.Error("body disturbed by delta program")
	}
	if a.Appends(0) != 1 {
		t.Errorf("Appends = %d", a.Appends(0))
	}
}

func TestProgramDeltaInitialPartialProgram(t *testing.T) {
	a := newTestArray(t, SLC)
	// A delta into a fully erased page is a legal initial partial program:
	// the page leaves the erased population and MLC/strict program order
	// advances exactly as for Program.
	if _, err := a.ProgramDelta(nil, 2, 0, []byte{0x12, 0x34}, 0, nil); err != nil {
		t.Fatal(err)
	}
	if a.IsErased(2) {
		t.Error("partially programmed page still reported erased")
	}
	data, _, _, err := readPage(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0x12 || data[1] != 0x34 {
		t.Errorf("delta not readable: %#x %#x", data[0], data[1])
	}
	for _, b := range data[2:] {
		if b != 0xFF {
			t.Fatal("rest of page disturbed")
		}
	}
	if a.Appends(2) != 1 {
		t.Errorf("Appends = %d", a.Appends(2))
	}
	// Strict program order: an initial partial program to an earlier page
	// of the same block is now out of order...
	if _, err := a.ProgramDelta(nil, 1, 0, []byte{0x01}, 0, nil); !errors.Is(err, ErrProgramOrder) {
		t.Errorf("out-of-order initial delta: %v, want ErrProgramOrder", err)
	}
	// ...and so is a full program.
	if _, err := a.Program(nil, 1, make([]byte, 256), nil); !errors.Is(err, ErrProgramOrder) {
		t.Errorf("out-of-order program after delta: %v, want ErrProgramOrder", err)
	}
	// A later page is fine, and further appends to the partial page do not
	// advance the order cursor again.
	if _, err := a.ProgramDelta(nil, 2, 2, []byte{0x56}, 0, nil); err != nil {
		t.Errorf("second append to partial page: %v", err)
	}
	if _, err := a.Program(nil, 3, make([]byte, 256), nil); err != nil {
		t.Errorf("next page program: %v", err)
	}
}

func TestProgramDeltaRejectsChargeDecrease(t *testing.T) {
	a := newTestArray(t, SLC)
	page := make([]byte, 256) // all zero: every cell fully charged
	if _, err := a.Program(nil, 0, page, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ProgramDelta(nil, 0, 10, []byte{0x01}, 0, nil); !errors.Is(err, ErrBitIncrease) {
		t.Errorf("charge-decrease delta: %v, want ErrBitIncrease", err)
	}
	// The failed program must not have written anything.
	data, _, _, _ := readPage(a, 0)
	if data[10] != 0 {
		t.Error("failed delta partially applied")
	}
}

func TestProgramDeltaSubsetOverwriteAllowed(t *testing.T) {
	// Correct-and-Refresh style: re-programming identical or
	// charge-increasing data is legal.
	a := newTestArray(t, SLC)
	page := bytes.Repeat([]byte{0xFF}, 256)
	page[0] = 0xF0
	if _, err := a.Program(nil, 0, page, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ProgramDelta(nil, 0, 0, []byte{0xF0}, 0, nil); err != nil {
		t.Errorf("identity reprogram: %v", err)
	}
	if _, err := a.ProgramDelta(nil, 0, 0, []byte{0x30}, 0, nil); err != nil {
		t.Errorf("subset reprogram: %v", err)
	}
	data, _, _, _ := readPage(a, 0)
	if data[0] != 0x30 {
		t.Errorf("byte = %#x, want 0x30", data[0])
	}
}

func TestProgramDeltaMSBRejected(t *testing.T) {
	a := newTestArray(t, MLC)
	page := bytes.Repeat([]byte{0xFF}, 256)
	if _, err := a.Program(nil, 0, page, nil); err != nil { // LSB
		t.Fatal(err)
	}
	if _, err := a.Program(nil, 1, page, nil); err != nil { // MSB
		t.Fatal(err)
	}
	if _, err := a.ProgramDelta(nil, 0, 0, []byte{0x00}, 0, nil); err != nil {
		t.Errorf("LSB delta: %v", err)
	}
	if _, err := a.ProgramDelta(nil, 1, 0, []byte{0x00}, 0, nil); !errors.Is(err, ErrMSBAppend) {
		t.Errorf("MSB delta: %v, want ErrMSBAppend", err)
	}
}

func TestProgramDeltaAppendLimit(t *testing.T) {
	cfg := Config{Geometry: testGeom(SLC), Timing: SLCTiming(), MaxAppends: 2}
	a, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0xFF}, 256)
	if _, err := a.Program(nil, 0, page, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := a.ProgramDelta(nil, 0, i, []byte{0x00}, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.ProgramDelta(nil, 0, 5, []byte{0x00}, 0, nil); !errors.Is(err, ErrAppendLimit) {
		t.Errorf("third append: %v, want ErrAppendLimit", err)
	}
}

func TestProgramDeltaOOB(t *testing.T) {
	a := newTestArray(t, SLC)
	page := bytes.Repeat([]byte{0xFF}, 256)
	if _, err := a.Program(nil, 0, page, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ProgramDelta(nil, 0, 0, nil, 4, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	_, oob, _, _ := readPage(a, 0)
	if oob[4] != 0xAB {
		t.Errorf("oob[4] = %#x", oob[4])
	}
}

func TestEraseResetsBlockAndCountsWear(t *testing.T) {
	a := newTestArray(t, SLC)
	page := make([]byte, 256)
	for p := PPN(0); p < 8; p++ {
		if _, err := a.Program(nil, p, page, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Erase(nil, 0); err != nil {
		t.Fatal(err)
	}
	for p := PPN(0); p < 8; p++ {
		if !a.IsErased(p) {
			t.Errorf("page %d not erased", p)
		}
		data, _, _, _ := readPage(a, p)
		for _, b := range data {
			if b != 0xFF {
				t.Fatalf("page %d holds data after erase", p)
			}
		}
	}
	if a.EraseCount(0) != 1 {
		t.Errorf("EraseCount = %d", a.EraseCount(0))
	}
	// Programming page 0 again must now succeed (order counter reset).
	if _, err := a.Program(nil, 0, page, nil); err != nil {
		t.Errorf("program after erase: %v", err)
	}
	if a.MaxEraseCount() != 1 {
		t.Errorf("MaxEraseCount = %d", a.MaxEraseCount())
	}
}

func TestEraseWornOut(t *testing.T) {
	cfg := Config{Geometry: testGeom(SLC), Timing: SLCTiming(), Endurance: 2}
	a, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := a.Erase(nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Erase(nil, 0); !errors.Is(err, ErrWornOut) {
		t.Errorf("erase past endurance: %v, want ErrWornOut", err)
	}
}

func TestStatsCounting(t *testing.T) {
	a := newTestArray(t, SLC)
	page := bytes.Repeat([]byte{0xFF}, 256)
	a.Program(nil, 0, page, nil)
	a.ProgramDelta(nil, 0, 0, []byte{0x00}, 0, nil)
	readPage(a, 0)
	a.Erase(nil, 0)
	s := a.Stats()
	if s.Programs != 1 || s.DeltaPrograms != 1 || s.Reads != 1 || s.Erases != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.BytesWritten != 256+1 {
		t.Errorf("BytesWritten = %d", s.BytesWritten)
	}
	a.ResetStats()
	if a.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero counters")
	}
}

func TestBoundsChecks(t *testing.T) {
	a := newTestArray(t, SLC)
	if _, _, _, err := readPage(a, PPN(1<<20)); !errors.Is(err, ErrBounds) {
		t.Errorf("read OOB ppn: %v", err)
	}
	if _, err := a.Program(nil, 0, make([]byte, 10), nil); !errors.Is(err, ErrBounds) {
		t.Errorf("short program: %v", err)
	}
	if _, err := a.Erase(nil, 99); !errors.Is(err, ErrBounds) {
		t.Errorf("erase OOB block: %v", err)
	}
	page := bytes.Repeat([]byte{0xFF}, 256)
	a.Program(nil, 0, page, nil)
	if _, err := a.ProgramDelta(nil, 0, 250, make([]byte, 10), 0, nil); !errors.Is(err, ErrBounds) {
		t.Errorf("delta past page end: %v", err)
	}
	if _, err := a.ProgramDelta(nil, 0, 0, nil, 15, make([]byte, 5)); !errors.Is(err, ErrBounds) {
		t.Errorf("oob delta past spare end: %v", err)
	}
}

func TestTimingChargesChip(t *testing.T) {
	tl := sim.NewTimeline(2)
	cfg := Config{Geometry: testGeom(SLC), Timing: SLCTiming()}
	a, err := New(cfg, tl)
	if err != nil {
		t.Fatal(err)
	}
	w := tl.NewWorker()
	page := bytes.Repeat([]byte{0xFF}, 256)
	lat, err := a.Program(w, 0, page, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Timing.ProgramLSB + 256*cfg.Timing.TransferPerByte
	if lat != want {
		t.Errorf("program latency = %v, want %v", lat, want)
	}
	// A read on the same chip queues behind the program; on the other
	// chip it does not.
	w2 := tl.NewWorker()
	latSame, _ := a.ReadInto(w2, 1, nil, nil)
	if latSame <= cfg.Timing.Read {
		t.Errorf("same-chip read latency %v did not include queueing", latSame)
	}
	w3 := tl.NewWorker()
	latOther, _ := a.ReadInto(w3, PPN(testGeom(SLC).PagesPerChip()), nil, nil)
	wantRead := cfg.Timing.Read + time.Duration(256+16)*cfg.Timing.TransferPerByte
	if latOther != wantRead {
		t.Errorf("other-chip read latency = %v, want %v", latOther, wantRead)
	}
}

func TestBitErrorInjectionDeterministic(t *testing.T) {
	cfg := Config{Geometry: testGeom(SLC), Timing: SLCTiming(), BitErrorRate: 1.0, Seed: 7}
	a, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0x00}, 256)
	a.Program(nil, 0, page, nil)
	data, _, _, _ := readPage(a, 0)
	flipped := 0
	for _, b := range data {
		if b != 0 {
			flipped++
		}
	}
	if flipped != 1 {
		t.Errorf("flipped bytes = %d, want exactly 1", flipped)
	}
	if a.Stats().BitErrors != 1 {
		t.Errorf("BitErrors = %d", a.Stats().BitErrors)
	}
	// Stored data must be intact: a second array with rate 0 would see
	// the original; here just check the internal state via a fresh read
	// possibly flipping a different bit but never persisting.
	data2, _, _, _ := readPage(a, 0)
	n2 := 0
	for _, b := range data2 {
		if b != 0 {
			n2++
		}
	}
	if n2 != 1 {
		t.Errorf("second read flipped %d bytes", n2)
	}
}

// Property: after any legal sequence of Program/ProgramDelta, the stored
// bytes of a page equal the bitwise AND of everything programmed onto it
// since the last erase (charge only accumulates).
func TestPropertyChargeOnlyAccumulates(t *testing.T) {
	g := Geometry{Chips: 1, BlocksPerChip: 1, PagesPerBlock: 2, PageSize: 32, OOBSize: 0, Cell: SLC}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, err := New(Config{Geometry: g, Timing: SLCTiming(), MaxAppends: 100}, nil)
		if err != nil {
			return false
		}
		shadow := bytes.Repeat([]byte{0xFF}, 32)
		initial := make([]byte, 32)
		for i := range initial {
			initial[i] = byte(rng.Intn(256)) | 0x0F // leave low bits erased for appends
		}
		if _, err := a.Program(nil, 0, initial, nil); err != nil {
			return false
		}
		for i := range shadow {
			shadow[i] &= initial[i]
		}
		for k := 0; k < 10; k++ {
			off := rng.Intn(32)
			// Legal delta: subset of current bits.
			b := shadow[off] & byte(rng.Intn(256))
			if _, err := a.ProgramDelta(nil, 0, off, []byte{b}, 0, nil); err != nil {
				return false
			}
			shadow[off] &= b
		}
		data, _, _, err := readPage(a, 0)
		if err != nil {
			return false
		}
		return bytes.Equal(data, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
