package noftl

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"ipa/internal/core"
	"ipa/internal/flash"
)

func newPDLRegion(t testing.TB, blocksPerChip int, cfg PDLConfig) (*Region, *DiffLog) {
	t.Helper()
	dev := newDevice(t, flash.SLC, 2, 16, 8, 256)
	r, err := dev.CreateRegion(RegionConfig{
		Name: "pdl", Mode: ModeNone, Storage: StoragePDL,
		BlocksPerChip: blocksPerChip, OverProvision: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dl, err := NewDiffLog(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, dl
}

func csOf(pairs ...core.Pair) *core.ChangeSet {
	return &core.ChangeSet{Body: pairs}
}

func TestRegionConfigValidate(t *testing.T) {
	ok := RegionConfig{Name: "r", BlocksPerChip: 2}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each error names the field at fault.
	bad := []struct {
		rc   RegionConfig
		frag string
	}{
		{RegionConfig{Name: "r", Storage: StoragePDL, Scheme: core.NewScheme(2, 3)}, "Storage pdl requires a disabled Scheme"},
		{RegionConfig{Name: "r", Storage: StoragePDL, Mode: ModeSLC}, "Storage pdl requires Mode none, got SLC"},
		{RegionConfig{Name: "r", Storage: Storage(9)}, "unknown storage 9"},
		{RegionConfig{Name: "r", Scheme: core.Scheme{N: -2, M: 4}}, "negative parameter"},
	}
	for _, c := range bad {
		if err := c.rc.Validate(); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%+v: Validate = %v, want an error containing %q", c.rc, err, c.frag)
		}
	}
}

func TestPDLAppendApplyRoundTrip(t *testing.T) {
	r, dl := newPDLRegion(t, 12, PDLConfig{})
	base := pageOf(r.dev, 0x11)
	if err := r.Write(nil, 7, base, nil); err != nil {
		t.Fatal(err)
	}
	// Two differentials; the second overlaps the first.
	if err := dl.Append(nil, 7, 100, csOf(core.Pair{Off: 20, Val: 0xAA}, core.Pair{Off: 21, Val: 0xBB})); err != nil {
		t.Fatal(err)
	}
	if err := dl.Append(nil, 7, 101, csOf(core.Pair{Off: 21, Val: 0xCC}, core.Pair{Off: 40, Val: 0x01})); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, r.PageSize())
	if err := r.ReadInto(nil, 7, buf, nil); err != nil {
		t.Fatal(err)
	}
	n, err := dl.ApplyTo(nil, 7, buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("applied %d bytes, want 4", n)
	}
	if buf[20] != 0xAA || buf[21] != 0xCC || buf[40] != 0x01 {
		t.Errorf("merge wrong: %#x %#x %#x", buf[20], buf[21], buf[40])
	}
	if !bytes.Equal(buf[:16], base[:16]) {
		t.Error("base bytes disturbed")
	}
	st := dl.Stats()
	if st.Appends != 2 || st.LogBlocks == 0 || st.LiveBytes == 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestPDLRecordTooLarge(t *testing.T) {
	_, dl := newPDLRegion(t, 12, PDLConfig{MaxRecordFraction: 0.1})
	var pairs []core.Pair
	for i := 0; i < 64; i++ { // 64 single-byte runs ≫ 25-byte budget
		pairs = append(pairs, core.Pair{Off: uint16(i * 2), Val: 0x00})
	}
	if err := dl.Append(nil, 1, 1, csOf(pairs...)); !errors.Is(err, ErrPDLRecordTooLarge) {
		t.Errorf("oversized record: %v, want ErrPDLRecordTooLarge", err)
	}
}

func TestPDLInvalidate(t *testing.T) {
	r, dl := newPDLRegion(t, 12, PDLConfig{})
	if err := r.Write(nil, 3, pageOf(r.dev, 0x22), nil); err != nil {
		t.Fatal(err)
	}
	if err := dl.Append(nil, 3, 10, csOf(core.Pair{Off: 30, Val: 0x00})); err != nil {
		t.Fatal(err)
	}
	dl.Invalidate(3)
	buf := make([]byte, r.PageSize())
	if err := r.ReadInto(nil, 3, buf, nil); err != nil {
		t.Fatal(err)
	}
	n, err := dl.ApplyTo(nil, 3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("applied %d bytes after invalidate", n)
	}
	st := dl.Stats()
	if st.LiveBytes != 0 || st.DeadBytes == 0 || st.Invalidated != 1 {
		t.Errorf("stats after invalidate: %+v", st)
	}
}

// appendUntilMerged appends 32-byte differentials to page id until the
// log has merged at least merges blocks: merges run only when an append
// finds no log block with room (MaxBlocksPerChip, or the free pool at
// its reserve).
func appendUntilMerged(t *testing.T, dl *DiffLog, id core.PageID, lsn core.LSN, merges uint64) {
	t.Helper()
	var pairs []core.Pair
	for i := 0; i < 32; i++ {
		pairs = append(pairs, core.Pair{Off: uint16(64 + i), Val: byte(i)})
	}
	for n := 0; dl.Stats().Merges < merges; n++ {
		if n == 1000 {
			t.Fatalf("%d merges after %d appends, want %d: %+v", dl.Stats().Merges, n, merges, dl.Stats())
		}
		if err := dl.Append(nil, id, lsn+core.LSN(n), csOf(pairs...)); err != nil {
			t.Fatalf("append %d: %v", n, err)
		}
	}
}

func TestPDLMergeFoldsDifferentials(t *testing.T) {
	r, dl := newPDLRegion(t, 12, PDLConfig{MaxBlocksPerChip: 1})
	for id := core.PageID(1); id <= 5; id++ {
		if err := r.Write(nil, id, pageOf(r.dev, byte(id)), nil); err != nil {
			t.Fatal(err)
		}
	}
	for id := core.PageID(1); id <= 4; id++ {
		if err := dl.Append(nil, id, core.LSN(id)*10, csOf(core.Pair{Off: 50, Val: byte(id)})); err != nil {
			t.Fatal(err)
		}
	}
	// Pages 1-4's records sit in the first log block of both chips; log
	// pressure from page 5 merges both blocks.
	epoch := dl.Epoch()
	appendUntilMerged(t, dl, 5, 100, 2)
	if dl.Epoch() == epoch {
		t.Error("epoch did not advance across merge")
	}
	if st := dl.Stats(); st.MergedPages < 4 {
		t.Errorf("stats after merge: %+v", st)
	}
	// Differentials are folded into the base images.
	buf := make([]byte, r.PageSize())
	for id := core.PageID(1); id <= 4; id++ {
		if err := r.ReadInto(nil, id, buf, nil); err != nil {
			t.Fatal(err)
		}
		if buf[50] != byte(id) {
			t.Errorf("page %d merge lost delta: %#x", id, buf[50])
		}
		if n, _ := dl.ApplyTo(nil, id, buf); n != 0 {
			t.Errorf("page %d still has %d differential bytes", id, n)
		}
	}
}

func TestPDLMergeReclaimOnPressure(t *testing.T) {
	// One log block per chip: the second block's worth of appends must
	// trigger a merge rather than fail.
	r, dl := newPDLRegion(t, 12, PDLConfig{MaxBlocksPerChip: 1})
	if err := r.Write(nil, 1, pageOf(r.dev, 0x33), nil); err != nil {
		t.Fatal(err)
	}
	var pairs []core.Pair
	for i := 0; i < 32; i++ {
		pairs = append(pairs, core.Pair{Off: uint16(64 + i), Val: byte(i)})
	}
	for lsn := core.LSN(1); lsn <= 200; lsn++ {
		if err := dl.Append(nil, 1, lsn, csOf(pairs...)); err != nil {
			t.Fatalf("append %d: %v", lsn, err)
		}
	}
	st := dl.Stats()
	if st.Merges == 0 {
		t.Errorf("no merges under space pressure: %+v", st)
	}
	buf := make([]byte, r.PageSize())
	if err := r.ReadInto(nil, 1, buf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := dl.ApplyTo(nil, 1, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if buf[64+i] != byte(i) {
			t.Fatalf("byte %d lost across merges: %#x", 64+i, buf[64+i])
		}
	}
}

func TestPDLRebuild(t *testing.T) {
	r, dl := newPDLRegion(t, 12, PDLConfig{})
	base := pageOf(r.dev, 0x44)
	for id := core.PageID(1); id <= 3; id++ {
		if err := r.Write(nil, id, base, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := dl.Append(nil, 1, 11, csOf(core.Pair{Off: 30, Val: 0x01})); err != nil {
		t.Fatal(err)
	}
	if err := dl.Append(nil, 1, 12, csOf(core.Pair{Off: 31, Val: 0x02})); err != nil {
		t.Fatal(err)
	}
	if err := dl.Append(nil, 2, 13, csOf(core.Pair{Off: 32, Val: 0x03})); err != nil {
		t.Fatal(err)
	}
	// Crash: rebuild the region mapping from flash, then the diff log.
	// Page 2's base was "reflushed" at LSN 99 (newer than its record),
	// so its record must be discarded; page 3 has no records.
	mapping := make(map[core.PageID]flash.PPN)
	for id := core.PageID(1); id <= 3; id++ {
		ppn, ok := r.PPNOf(id)
		if !ok {
			t.Fatalf("page %d unmapped", id)
		}
		mapping[id] = ppn
	}
	if err := r.Adopt(mapping); err != nil {
		t.Fatal(err)
	}
	dl2, err := NewDiffLog(r, PDLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	live, err := dl2.Rebuild(nil, map[core.PageID]core.LSN{1: 5, 2: 99, 3: 5})
	if err != nil {
		t.Fatal(err)
	}
	if live != 2 {
		t.Errorf("rebuilt %d live records, want 2", live)
	}
	buf := make([]byte, r.PageSize())
	if err := r.ReadInto(nil, 1, buf, nil); err != nil {
		t.Fatal(err)
	}
	if n, err := dl2.ApplyTo(nil, 1, buf); err != nil || n != 2 {
		t.Fatalf("apply after rebuild: n=%d err=%v", n, err)
	}
	if buf[30] != 0x01 || buf[31] != 0x02 {
		t.Errorf("rebuilt merge wrong: %#x %#x", buf[30], buf[31])
	}
	if n, _ := dl2.ApplyTo(nil, 2, buf); n != 0 {
		t.Errorf("stale record survived rebuild: %d bytes", n)
	}
	if st := dl2.Stats(); st.Rebuilds != 1 || st.LogBlocks == 0 || st.DeadBytes == 0 {
		t.Errorf("rebuild stats: %+v", st)
	}
	// Rebuilt blocks are sealed; new appends claim fresh blocks and the
	// sealed ones are merge victims under log pressure.
	var sealed []*logBlock
	for _, pc := range dl2.chips {
		sealed = append(sealed, pc.blocks...)
	}
	appendUntilMerged(t, dl2, 3, 100, uint64(len(sealed)))
	for _, lb := range sealed {
		if dl2.byBlock[lb.bm.id] == lb {
			t.Errorf("rebuilt log block %d not reclaimed by merges: %+v", lb.bm.id, dl2.Stats())
		}
	}
	if err := r.ReadInto(nil, 1, buf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := dl2.ApplyTo(nil, 1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[30] != 0x01 || buf[31] != 0x02 {
		t.Errorf("page 1 after rebuild+merge: %#x %#x", buf[30], buf[31])
	}
}

// TestPDLApplyToAllocFree pins the read-merge path at zero steady-state
// allocations: the scratch page comes from the DiffLog's pool and the
// ref list is borrowed, not copied.
func TestPDLApplyToAllocFree(t *testing.T) {
	r, dl := newPDLRegion(t, 12, PDLConfig{})
	if err := r.Write(nil, 3, pageOf(r.dev, 0x55), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := dl.Append(nil, 3, core.LSN(i+1), csOf(core.Pair{Off: uint16(i), Val: byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, r.PageSize())
	if err := r.ReadInto(nil, 3, buf, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := dl.ApplyTo(nil, 3, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("ApplyTo allocates %.1f objects per call, want 0", allocs)
	}
	for i := 0; i < 8; i++ {
		if buf[i] != byte(i) {
			t.Fatalf("byte %d lost: %#x", i, buf[i])
		}
	}
}

// TestPDLApplyConcurrentWithAppends races the unlocked read-merge path
// against appends and the merges they force (one log block per chip).
// Readers follow the documented epoch protocol — snapshot epoch, read
// base, ApplyTo, retry on change — and check a monotonicity invariant:
// the writer only ever raises buf[0] per page, so each reader's
// successive consistent images must be non-decreasing. Run under -race
// this is the locking-narrowing's data-race check.
func TestPDLApplyConcurrentWithAppends(t *testing.T) {
	r, dl := newPDLRegion(t, 12, PDLConfig{MaxBlocksPerChip: 1})
	const pages = 4
	for id := core.PageID(1); id <= pages; id++ {
		if err := r.Write(nil, id, pageOf(r.dev, 0x00), nil); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		lsn := core.LSN(0)
		for v := byte(1); v <= 60; v++ {
			for id := core.PageID(1); id <= pages; id++ {
				lsn++
				if err := dl.Append(nil, id, lsn, csOf(core.Pair{Off: 0, Val: v})); err != nil {
					t.Errorf("append page %d val %d: %v", id, v, err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, r.PageSize())
			last := [pages + 1]byte{}
			for i := 0; i < 400; i++ {
				id := core.PageID(i%pages + 1)
				var img byte
				for retry := 0; ; retry++ {
					if retry > 100 {
						t.Errorf("reader %d: page %d never stabilised", g, id)
						return
					}
					e0 := dl.Epoch()
					if err := r.ReadInto(nil, id, buf, nil); err != nil {
						t.Errorf("reader %d read base %d: %v", g, id, err)
						return
					}
					if _, err := dl.ApplyTo(nil, id, buf); err != nil {
						t.Errorf("reader %d apply %d: %v", g, id, err)
						return
					}
					if dl.Epoch() == e0 {
						img = buf[0]
						break
					}
				}
				if img < last[id] {
					t.Errorf("reader %d: page %d went backwards %d -> %d", g, id, last[id], img)
					return
				}
				last[id] = img
			}
		}(g)
	}
	wg.Wait()
	<-done
}
