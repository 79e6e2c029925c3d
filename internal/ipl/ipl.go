// Package ipl implements the In-Page Logging baseline of Lee & Moon
// (SIGMOD'07) in the exact configuration the paper uses for its
// comparison (Sec. 8.3, Appendix B):
//
//   - 8KB logical database pages;
//   - SLC flash with 2KB physical pages, 64 per erase unit, 512B
//     partial writes;
//   - 15 logical pages plus an 8KB log region per erase unit;
//   - one 512B in-memory log sector per logical page;
//   - blocking merges when a log region fills: the whole erase unit
//     (15 pages + log) is read to the host, merged, and written to a
//     fresh erase unit.
//
// The companion IPAModel replays the same trace under In-Place Appends
// with a page-mapped flash and greedy garbage collection, producing the
// read/write amplification and erase counts of Table 2.
package ipl

import (
	"ipa/internal/core"
	"ipa/internal/trace"
)

// Config fixes the IPL geometry. The zero value selects the paper's
// settings.
type Config struct {
	PhysPagesPerLogical int // 8KB logical / 2KB physical = 4
	LogicalPerEraseUnit int // 15
	LogRegionBytes      int // 8192
	LogSectorBytes      int // 512 (partial-write unit)
	RecordOverhead      int // log-record header bytes per update
}

func (c Config) withDefaults() Config {
	if c.PhysPagesPerLogical == 0 {
		c.PhysPagesPerLogical = 4
	}
	if c.LogicalPerEraseUnit == 0 {
		c.LogicalPerEraseUnit = 15
	}
	if c.LogRegionBytes == 0 {
		c.LogRegionBytes = 8192
	}
	if c.LogSectorBytes == 0 {
		c.LogSectorBytes = 512
	}
	if c.RecordOverhead == 0 {
		c.RecordOverhead = 8
	}
	return c
}

// Result carries the Table 2 metrics.
type Result struct {
	Fetches        int
	Evictions      int
	Merges         int
	SectorFlushes  int // in-memory log sector spills (imlog_full)
	Erases         int
	PhysReads      int // 2KB physical page reads
	PhysWrites     int // 2KB physical page writes (partial writes count 1)
	WriteAmplific  float64
	ReadAmplific   float64
	ReservedSpaceF float64 // fraction of flash reserved (log region)
}

// eraseUnit tracks one IPL erase unit's log region.
type eraseUnit struct {
	logUsed int
}

// Simulator replays a trace under In-Page Logging.
type Simulator struct {
	cfg   Config
	units map[int]*eraseUnit
	// in-memory log sector fill per logical page
	sector map[core.PageID]int
	res    Result
}

// NewSimulator creates an IPL simulator.
func NewSimulator(cfg Config) *Simulator {
	return &Simulator{
		cfg:    cfg.withDefaults(),
		units:  make(map[int]*eraseUnit),
		sector: make(map[core.PageID]int),
	}
}

// unitOf maps a logical page to its erase unit (IPL co-locates a page
// with its log region; placement is static).
func (s *Simulator) unitOf(p core.PageID) *eraseUnit {
	id := int(uint64(p) / uint64(s.cfg.LogicalPerEraseUnit))
	u := s.units[id]
	if u == nil {
		u = &eraseUnit{}
		s.units[id] = u
	}
	return u
}

// Replay consumes the whole trace.
func (s *Simulator) Replay(t *trace.Trace) Result {
	for _, e := range t.Events() {
		switch e.Kind {
		case trace.EvFetch:
			s.fetch(e.Page)
		case trace.EvEvict:
			s.evict(e)
		}
	}
	s.finish()
	return s.res
}

// fetch: the logical page (4 physical pages) plus the erase unit's whole
// log region (another 4) must be read to re-create the current version.
func (s *Simulator) fetch(p core.PageID) {
	s.res.Fetches++
	s.res.PhysReads += 2 * s.cfg.PhysPagesPerLogical
}

// evict: log records for the accumulated changes spill to the log
// region; a full log region forces a blocking merge first.
func (s *Simulator) evict(e trace.Event) {
	s.res.Evictions++
	if e.New {
		// First write of a fresh page: written in place into its unit.
		s.res.PhysWrites += s.cfg.PhysPagesPerLogical
		return
	}
	u := s.unitOf(e.Page)
	bytes := int(e.Gross) + s.cfg.RecordOverhead
	fill := s.sector[e.Page] + bytes
	// Sector spills while filling count as imlog_full flushes; the final
	// (possibly partial) sector flushes because of the eviction itself.
	for fill > s.cfg.LogSectorBytes {
		s.flushSector(u)
		s.res.SectorFlushes++
		fill -= s.cfg.LogSectorBytes
	}
	s.flushSector(u)
	s.sector[e.Page] = 0
	_ = fill
}

// flushSector writes one 512B partial write into the unit's log region,
// merging first if the region is full.
func (s *Simulator) flushSector(u *eraseUnit) {
	if u.logUsed+s.cfg.LogSectorBytes > s.cfg.LogRegionBytes {
		s.merge(u)
	}
	u.logUsed += s.cfg.LogSectorBytes
	s.res.PhysWrites++ // partial write costs one physical write
}

// merge: read the whole erase unit to the host (15 logical pages + log
// region), apply the logs, write the 15 pages to a fresh unit, erase.
func (s *Simulator) merge(u *eraseUnit) {
	s.res.Merges++
	s.res.PhysReads += (s.cfg.LogicalPerEraseUnit + 1) * s.cfg.PhysPagesPerLogical
	s.res.PhysWrites += s.cfg.LogicalPerEraseUnit * s.cfg.PhysPagesPerLogical
	s.res.Erases++
	u.logUsed = 0
}

// finish computes the Appendix B amplification ratios.
func (s *Simulator) finish() {
	c := s.cfg
	if s.res.Evictions > 0 {
		s.res.WriteAmplific = float64(s.res.PhysWrites) / float64(s.res.Evictions*c.PhysPagesPerLogical)
	}
	if s.res.Fetches > 0 {
		s.res.ReadAmplific = float64(s.res.PhysReads) / float64(s.res.Fetches*c.PhysPagesPerLogical)
	}
	total := (c.LogicalPerEraseUnit + 1) * c.PhysPagesPerLogical
	s.res.ReservedSpaceF = float64(c.PhysPagesPerLogical) / float64(total)
}
