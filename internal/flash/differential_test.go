package flash

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// refArray is the eager model the array is checked against: every page
// owns its bytes from construction on, and New and Erase fill them with
// 0xFF — how the array itself held them before blocks became lazy. It
// keeps the array's rules (and its per-chip fault-injection streams) and
// none of its addressing: pages are indexed by PPN, blocks by global id.
type refArray struct {
	cfg        Config
	g          Geometry
	data, oob  [][]byte
	programmed []bool
	appends    []int
	lastProg   []int // per global block
	erases     []int
	rng        []*rand.Rand // per chip, seeded as New seeds them
	st         Stats
}

func newRefArray(cfg Config) *refArray {
	g := cfg.Geometry
	r := &refArray{cfg: cfg, g: g, data: make([][]byte, g.TotalPages()), oob: make([][]byte, g.TotalPages()),
		programmed: make([]bool, g.TotalPages()), appends: make([]int, g.TotalPages()),
		lastProg: make([]int, g.TotalBlocks()), erases: make([]int, g.TotalBlocks())}
	for p := range r.data {
		r.data[p] = bytes.Repeat([]byte{0xFF}, g.PageSize)
		r.oob[p] = bytes.Repeat([]byte{0xFF}, g.OOBSize)
	}
	for b := range r.lastProg {
		r.lastProg[b] = -1
	}
	for c := 0; c < g.Chips; c++ {
		r.rng = append(r.rng, rand.New(rand.NewSource(cfg.Seed+int64(uint64(c+1)*0x9E3779B97F4A7C15))))
	}
	return r
}

// needsCharge reports a 0→1 transition somewhere in new over old.
func needsCharge(old, new []byte) bool {
	for i := range new {
		if new[i]&^old[i] != 0 {
			return true
		}
	}
	return false
}

func (r *refArray) inOrder(p PPN) bool {
	return !r.cfg.StrictProgramOrder || r.g.PageInBlock(p) > r.lastProg[r.g.BlockOf(p)]
}

func (r *refArray) read(p PPN) (data, oob []byte) {
	data, oob = bytes.Clone(r.data[p]), bytes.Clone(r.oob[p])
	r.st.Reads++
	r.st.BytesRead += uint64(r.g.PageSize + r.g.OOBSize)
	if rng := r.rng[r.g.ChipOf(p)]; r.cfg.BitErrorRate > 0 && rng.Float64() < r.cfg.BitErrorRate {
		bit := rng.Intn(r.g.PageSize * 8)
		data[bit/8] ^= 1 << (bit % 8)
		r.st.BitErrors++
	}
	return data, oob
}

func (r *refArray) program(p PPN, data, oob []byte) error {
	switch {
	case r.programmed[p]:
		return ErrNotErased
	case !r.inOrder(p):
		return ErrProgramOrder
	}
	copy(r.data[p], data)
	copy(r.oob[p], oob)
	r.programmed[p], r.appends[p], r.lastProg[r.g.BlockOf(p)] = true, 0, r.g.PageInBlock(p)
	r.st.Programs++
	r.st.BytesWritten += uint64(len(data))
	return nil
}

func (r *refArray) programDelta(p PPN, off int, delta []byte, oobOff int, oobDelta []byte) error {
	switch {
	case !r.g.IsLSB(p):
		return ErrMSBAppend
	case r.appends[p] >= r.cfg.DefaultMaxAppends():
		return ErrAppendLimit
	case !r.programmed[p] && !r.inOrder(p):
		return ErrProgramOrder
	case needsCharge(r.data[p][off:], delta), needsCharge(r.oob[p][oobOff:], oobDelta):
		return ErrBitIncrease
	}
	if !r.programmed[p] {
		r.programmed[p], r.lastProg[r.g.BlockOf(p)] = true, r.g.PageInBlock(p)
	}
	copy(r.data[p][off:], delta)
	copy(r.oob[p][oobOff:], oobDelta)
	r.appends[p]++
	r.st.DeltaPrograms++
	r.st.BytesWritten += uint64(len(delta) + len(oobDelta))
	if rng := r.rng[r.g.ChipOf(p)]; r.cfg.InterferenceRate > 0 && r.g.Cell != SLC && rng.Float64() < r.cfg.InterferenceRate {
		if n := p + 1; int(n) < r.g.TotalPages() && r.g.BlockOf(n) == r.g.BlockOf(p) && !r.g.IsLSB(n) && r.programmed[n] && len(delta) > 0 {
			bit := rng.Intn(len(delta) * 8)
			r.data[n][off+bit/8] &^= 1 << (bit % 8)
			r.st.Interference++
		}
	}
	return nil
}

func (r *refArray) erase(block int) error {
	for p := r.g.FirstPageOfBlock(block); p < r.g.FirstPageOfBlock(block+1); p++ {
		r.data[p] = bytes.Repeat([]byte{0xFF}, r.g.PageSize)
		r.oob[p] = bytes.Repeat([]byte{0xFF}, r.g.OOBSize)
		r.programmed[p], r.appends[p] = false, 0
	}
	r.lastProg[block] = -1
	r.erases[block]++
	r.st.Erases++
	if r.erases[block] > r.cfg.endurance() {
		return ErrWornOut
	}
	return nil
}

var errReprogramErased = errors.New("reprogram of an erased page")

func (r *refArray) reprogram(p PPN, data, oob []byte) error {
	switch {
	case !r.programmed[p]:
		return errReprogramErased
	case needsCharge(r.data[p], data), needsCharge(r.oob[p], oob):
		return ErrBitIncrease
	}
	copy(r.data[p], data)
	copy(r.oob[p], oob)
	r.st.Refreshes++
	r.st.BytesWritten += uint64(len(data) + len(oob))
	return nil
}

// leak follows the array in one thing the eager bytes alone would not
// give: an erased page leaks nothing and draws nothing.
func (r *refArray) leak(p PPN, n int) int {
	leaked := 0
	for try := 0; r.programmed[p] && try < 64*n && leaked < n; try++ {
		if bit := r.rng[r.g.ChipOf(p)].Intn(r.g.PageSize * 8); r.data[p][bit/8]>>(bit%8)&1 == 0 {
			r.data[p][bit/8] |= 1 << (bit % 8)
			leaked++
		}
	}
	r.st.LeakedBits += uint64(leaked)
	return leaked
}

// resident is what Stats.ResidentBytes must read: whole blocks, those with
// a programmed page.
func (r *refArray) resident() uint64 {
	var n uint64
	for b := 0; b < r.g.TotalBlocks(); b++ {
		for p := r.g.FirstPageOfBlock(b); p < r.g.FirstPageOfBlock(b+1); p++ {
			if r.programmed[p] {
				n += uint64(r.g.PagesPerBlock * (r.g.PageSize + r.g.OOBSize))
				break
			}
		}
	}
	return n
}

// sameError compares an array error with the model's: both nil, or the
// array's wraps the model's sentinel (a reprogram of an erased page has
// none and matches any error).
func sameError(got, want error) bool {
	if want == nil || got == nil {
		return got == want
	}
	return want == errReprogramErased || errors.Is(got, want)
}

// TestDifferentialAgainstEagerModel drives seeded scripts of every device
// operation against the array and the eager model and compares every byte
// read, every error and the counters. The geometries cover both
// addressing paths (power-of-two and odd pages per chip and per block);
// blocks are erased and filled again throughout, so stale buffers from the
// free list are met in every state.
func TestDifferentialAgainstEagerModel(t *testing.T) {
	cases := []Config{
		{Geometry: Geometry{Chips: 2, BlocksPerChip: 4, PagesPerBlock: 8, PageSize: 64, OOBSize: 8, Cell: SLC},
			StrictProgramOrder: true, MaxAppends: 4, Endurance: 12, BitErrorRate: 0.2},
		{Geometry: Geometry{Chips: 3, BlocksPerChip: 3, PagesPerBlock: 8, PageSize: 64, OOBSize: 8, Cell: MLC},
			StrictProgramOrder: true, InterferenceRate: 0.5, BitErrorRate: 0.1},
		{Geometry: Geometry{Chips: 2, BlocksPerChip: 5, PagesPerBlock: 6, PageSize: 48, OOBSize: 4, Cell: TLC},
			InterferenceRate: 0.3},
		{Geometry: Geometry{Chips: 1, BlocksPerChip: 3, PagesPerBlock: 4, PageSize: 32, OOBSize: 0, Cell: SLC},
			MaxAppends: 2},
	}
	for ci, cfg := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			cfg.Seed = seed
			cfg.Timing = SLCTiming()
			t.Run(fmt.Sprintf("%v-%d/seed=%d", cfg.Geometry.Cell, ci, seed), func(t *testing.T) {
				runDifferentialScript(t, cfg, rand.New(rand.NewSource(seed*977)), 6000)
			})
		}
	}
}

func runDifferentialScript(t *testing.T, cfg Config, rng *rand.Rand, steps int) {
	arr, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefArray(cfg)
	g := cfg.Geometry
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	// chargeOnly derives a legal program image from the stored one.
	chargeOnly := func(stored []byte) []byte {
		b := randBytes(len(stored))
		for i := range b {
			b[i] &= stored[i]
		}
		return b
	}
	data, oob := make([]byte, g.PageSize), make([]byte, g.OOBSize)
	for step := 0; step < steps; step++ {
		p := PPN(rng.Intn(g.TotalPages()))
		if rng.Intn(3) > 0 {
			// Mostly the next page of its block, so blocks fill up under
			// strict program order too.
			blk := g.BlockOf(p)
			if next := ref.lastProg[blk] + 1; next < g.PagesPerBlock {
				p = g.FirstPageOfBlock(blk) + PPN(next)
			}
		}
		var op string
		var got, want error
		switch k := rng.Intn(20); {
		case k < 6:
			op = "read"
			_, got = arr.ReadInto(nil, p, data, oob)
			wantData, wantOOB := ref.read(p)
			if got == nil && (!bytes.Equal(data, wantData) || !bytes.Equal(oob, wantOOB)) {
				t.Fatalf("step %d: read of ppn %d differs from the model", step, p)
			}
		case k < 10:
			op = "program"
			img, spare := randBytes(g.PageSize), randBytes(rng.Intn(g.OOBSize+1))
			if rng.Intn(4) == 0 {
				spare = nil
			}
			_, got = arr.Program(nil, p, img, spare)
			want = ref.program(p, img, spare)
		case k < 15:
			op = "delta"
			off := rng.Intn(g.PageSize)
			n := rng.Intn(g.PageSize - off + 1)
			oobOff := rng.Intn(g.OOBSize + 1)
			oobN := rng.Intn(g.OOBSize - oobOff + 1)
			delta, oobDelta := chargeOnly(ref.data[p][off:off+n]), chargeOnly(ref.oob[p][oobOff:oobOff+oobN])
			if rng.Intn(8) == 0 {
				delta = randBytes(n) // most likely needs a charge decrease
			}
			_, got = arr.ProgramDelta(nil, p, off, delta, oobOff, oobDelta)
			want = ref.programDelta(p, off, delta, oobOff, oobDelta)
		case k < 16:
			op = "erase"
			_, got = arr.Erase(nil, g.BlockOf(p))
			want = ref.erase(g.BlockOf(p))
		case k < 18:
			op = "reprogram"
			img, spare := chargeOnly(ref.data[p]), chargeOnly(ref.oob[p])
			if rng.Intn(6) == 0 {
				img = randBytes(g.PageSize)
			}
			_, got = arr.Reprogram(nil, p, img, spare)
			want = ref.reprogram(p, img, spare)
		default:
			op = "leak"
			n := 1 + rng.Intn(4)
			leaked, err := arr.InjectLeak(p, n)
			if wantLeaked := ref.leak(p, n); err != nil || leaked != wantLeaked {
				t.Fatalf("step %d: leak on ppn %d = %d, %v; model %d", step, p, leaked, err, wantLeaked)
			}
		}
		if !sameError(got, want) {
			t.Fatalf("step %d: %s on ppn %d: error %v, model %v", step, op, p, got, want)
		}
		if arr.IsErased(p) == ref.programmed[p] || arr.Appends(p) != ref.appends[p] {
			t.Fatalf("step %d: after %s ppn %d erased=%v appends=%d, model programmed=%v appends=%d",
				step, op, p, arr.IsErased(p), arr.Appends(p), ref.programmed[p], ref.appends[p])
		}
	}
	want := ref.st
	want.ResidentBytes = ref.resident()
	if got := arr.Stats(); got != want {
		t.Errorf("stats %+v\nmodel %+v", got, want)
	}
	// Every page once more, injection off the table: what is stored, not
	// what a noisy read returns.
	for p := PPN(0); int(p) < g.TotalPages(); p++ {
		sh, lp := arr.shardOf(p)
		if sh.state[lp] == pageErased {
			continue
		}
		page, spare := arr.storedPage(sh, lp)
		if !bytes.Equal(page, ref.data[p]) || !bytes.Equal(spare, ref.oob[p]) {
			t.Fatalf("stored image of ppn %d differs from the model", p)
		}
	}
}
