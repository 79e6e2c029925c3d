package ipl

import (
	"sort"

	"ipa/internal/core"
	"ipa/internal/trace"
)

// IPAConfig parameterises the In-Place Appends replay model used in the
// IPL comparison (same flash geometry as the IPL configuration, plus the
// [N×M] scheme and a page-mapped out-of-place store with greedy GC).
type IPAConfig struct {
	Scheme              core.Scheme
	PhysPagesPerLogical int     // 4 (8KB logical / 2KB physical)
	LogicalPerEraseUnit int     // logical pages per erase unit: 16 (no log region)
	OverProvision       float64 // default 0.10
	MetaBudgetPerRecord int     // V; defaults to Scheme.V
}

func (c IPAConfig) withDefaults() IPAConfig {
	if c.PhysPagesPerLogical == 0 {
		c.PhysPagesPerLogical = 4
	}
	if c.LogicalPerEraseUnit == 0 {
		c.LogicalPerEraseUnit = 16
	}
	if c.OverProvision <= 0 {
		c.OverProvision = 0.10
	}
	if c.MetaBudgetPerRecord == 0 {
		c.MetaBudgetPerRecord = c.Scheme.V
	}
	return c
}

// IPAResult carries the Table 2 metrics for the IPA side.
type IPAResult struct {
	Fetches        int
	Evictions      int
	DeltaWrites    int
	OutOfPlace     int
	GCMigrations   int
	Erases         int
	PhysReads      int
	PhysWrites     int
	WriteAmplific  float64
	ReadAmplific   float64
	ReservedSpaceF float64
}

// IPAModel replays a trace under In-Place Appends with a lightweight
// page-mapped flash (counting model: block occupancy and validity, no
// data).
type IPAModel struct {
	cfg IPAConfig
	res IPAResult

	// per logical page: delta records already appended
	used map[core.PageID]int
	// mapping: logical page → (block, slot); blocks hold logical pages.
	loc     map[core.PageID]int // block index
	blocks  []ipaBlock
	free    []int // free block ids
	active  int   // current write block, -1 none
	actUsed int
}

type ipaBlock struct {
	valid  int
	filled int
}

// NewIPAModel sizes the model to fit the trace's page population with
// the configured over-provisioning.
func NewIPAModel(cfg IPAConfig, pages int) *IPAModel {
	cfg = cfg.withDefaults()
	needBlocks := int(float64(pages)/float64(cfg.LogicalPerEraseUnit)/(1-cfg.OverProvision)) + 4
	m := &IPAModel{
		cfg:    cfg,
		used:   make(map[core.PageID]int),
		loc:    make(map[core.PageID]int),
		blocks: make([]ipaBlock, needBlocks),
		active: -1,
	}
	for i := range m.blocks {
		m.free = append(m.free, i)
	}
	return m
}

// Replay consumes the whole trace.
func (m *IPAModel) Replay(t *trace.Trace) IPAResult {
	for _, e := range t.Events() {
		switch e.Kind {
		case trace.EvFetch:
			m.res.Fetches++
			m.res.PhysReads += m.cfg.PhysPagesPerLogical
		case trace.EvEvict:
			m.evict(e)
		}
	}
	m.finish()
	return m.res
}

func (m *IPAModel) evict(e trace.Event) {
	m.res.Evictions++
	if !e.New {
		if m.tryDelta(e) {
			return
		}
	}
	m.writeOutOfPlace(e.Page)
}

// tryDelta checks the [N×M] budget for the accumulated changes.
func (m *IPAModel) tryDelta(e trace.Event) bool {
	s := m.cfg.Scheme
	if s.Disabled() {
		return false
	}
	if _, mapped := m.loc[e.Page]; !mapped {
		return false
	}
	used := m.used[e.Page]
	net := int(e.Net)
	meta := int(e.Gross) - net
	if meta < 0 {
		meta = 0
	}
	if !s.FitsBudget(net, meta, used) {
		return false
	}
	need := (net + s.M - 1) / s.M
	if mv := (meta + s.V - 1) / max1(s.V); s.V > 0 && mv > need {
		need = mv
	}
	if need == 0 {
		need = 1
	}
	m.used[e.Page] = used + need
	m.res.DeltaWrites++
	m.res.PhysWrites++ // one partial/ISPP program
	return true
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// writeOutOfPlace relocates the logical page, invalidating the old copy
// and running greedy GC when the free pool runs low.
func (m *IPAModel) writeOutOfPlace(p core.PageID) {
	if old, ok := m.loc[p]; ok {
		m.blocks[old].valid--
	}
	blk := m.allocSlot()
	m.loc[p] = blk
	m.blocks[blk].valid++
	m.used[p] = 0
	m.res.OutOfPlace++
	m.res.PhysWrites += m.cfg.PhysPagesPerLogical
}

// allocSlot returns a block with room for one logical page, collecting
// when the free pool is at its reserve and reusing any write point the
// collector installs. If the pool is truly exhausted (over-subscribed
// model), capacity grows by one block rather than failing.
func (m *IPAModel) allocSlot() int {
	for attempt := 0; ; attempt++ {
		if m.active >= 0 && m.actUsed < m.cfg.LogicalPerEraseUnit {
			m.actUsed++
			m.blocks[m.active].filled++
			return m.active
		}
		if len(m.free) <= 2 && attempt < 2*len(m.blocks) {
			m.collect()
			if m.active >= 0 && m.actUsed < m.cfg.LogicalPerEraseUnit {
				continue
			}
		}
		if len(m.free) == 0 {
			m.blocks = append(m.blocks, ipaBlock{})
			m.free = append(m.free, len(m.blocks)-1)
		}
		m.active = m.free[0]
		m.free = m.free[1:]
		m.actUsed = 0
		m.blocks[m.active] = ipaBlock{}
	}
}

// collect erases the fullest-garbage block, migrating its valid pages.
func (m *IPAModel) collect() {
	victim := -1
	for i := range m.blocks {
		if i == m.active || m.blocks[i].filled == 0 || contains(m.free, i) {
			continue
		}
		if victim < 0 || m.blocks[i].valid < m.blocks[victim].valid {
			victim = i
		}
	}
	if victim < 0 {
		return
	}
	// Migrate valid pages: they move to the active/new blocks.
	migrating := make([]core.PageID, 0)
	for p, b := range m.loc {
		if b == victim {
			migrating = append(migrating, p)
		}
	}
	sort.Slice(migrating, func(i, j int) bool { return migrating[i] < migrating[j] })
	m.res.GCMigrations += len(migrating)
	m.res.PhysReads += len(migrating) * m.cfg.PhysPagesPerLogical
	m.res.PhysWrites += len(migrating) * m.cfg.PhysPagesPerLogical
	m.blocks[victim] = ipaBlock{}
	m.res.Erases++
	victimReused := false
	for _, p := range migrating {
		blk := m.allocMigration(victim)
		if blk == victim {
			victimReused = true
		}
		m.loc[p] = blk
		m.blocks[blk].valid++
		// Delta records move verbatim with the raw image; budget intact.
	}
	if !victimReused {
		m.free = append(m.free, victim)
	}
}

// allocMigration places one migrated page, preferring the active block
// and free blocks; as a last resort it reuses the just-erased victim
// (valid pages were read out before the erase was counted).
func (m *IPAModel) allocMigration(victim int) int {
	if m.active >= 0 && m.actUsed < m.cfg.LogicalPerEraseUnit {
		m.actUsed++
		m.blocks[m.active].filled++
		return m.active
	}
	if len(m.free) > 0 {
		m.active = m.free[0]
		m.free = m.free[1:]
	} else {
		m.active = victim
	}
	m.actUsed = 1
	m.blocks[m.active] = ipaBlock{filled: 1}
	return m.active
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// finish computes the Appendix B ratios for IPA:
//
//	WA = (deltas·1 + oop·4 + migrations·4) / (evictions·4)
//	RA = (fetches·4 + migrations·4) / (fetches·4)
func (m *IPAModel) finish() {
	c := m.cfg
	if m.res.Evictions > 0 {
		m.res.WriteAmplific = float64(m.res.DeltaWrites+
			(m.res.OutOfPlace+m.res.GCMigrations)*c.PhysPagesPerLogical) /
			float64(m.res.Evictions*c.PhysPagesPerLogical)
	}
	if m.res.Fetches > 0 {
		m.res.ReadAmplific = float64((m.res.Fetches+m.res.GCMigrations)*c.PhysPagesPerLogical) /
			float64(m.res.Fetches*c.PhysPagesPerLogical)
	}
	// IPA reserves only the delta-record area of each page.
	m.res.ReservedSpaceF = c.Scheme.SpaceOverhead(8192)
}
