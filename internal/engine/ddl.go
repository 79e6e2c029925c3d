package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ipa/internal/core"
	"ipa/internal/noftl"
)

// Exec runs a DDL statement in the dialect of the paper's Figure 3:
//
//	CREATE REGION rgIPA (MAX_CHIPS=8, MAX_SIZE=512M, BLOCKS_PER_CHIP=64,
//	                     IPA_MODE=pSLC, SCHEME=2x4, OVERPROVISION=10)
//	CREATE TABLESPACE tsIPA (REGION=rgIPA)
//	CREATE TABLE T (TABLESPACE=tsIPA)
//	CREATE INDEX T_pk (TABLESPACE=tsIPA)
//
// Keys and keywords are case-insensitive; a tablespace is a named alias
// for a region (the paper couples regions to existing logical storage
// structures precisely so that DBAs see only familiar DDL). MAX_SIZE
// accepts K/M/G suffixes and is translated into BLOCKS_PER_CHIP using
// the device geometry; an explicit BLOCKS_PER_CHIP wins.
func (db *DB) Exec(stmt string) error {
	fields := strings.Fields(strings.TrimSuffix(strings.TrimSpace(stmt), ";"))
	if len(fields) < 3 || !strings.EqualFold(fields[0], "CREATE") {
		return fmt.Errorf("engine: unsupported statement %q", stmt)
	}
	kind := strings.ToUpper(fields[1])
	name := fields[2]
	// The options clause is everything inside the outermost parentheses.
	opts, err := parseOptions(stmt)
	if err != nil {
		return err
	}
	switch kind {
	case "REGION":
		if err := checkOptionKeys("REGION", name, opts,
			"IPA_MODE", "SCHEME", "STORAGE", "MAX_CHIPS", "BLOCKS_PER_CHIP",
			"MAX_SIZE", "OVERPROVISION", "GC_VICTIM"); err != nil {
			return err
		}
		return db.execCreateRegion(name, opts)
	case "TABLESPACE":
		if err := checkOptionKeys("TABLESPACE", name, opts, "REGION"); err != nil {
			return err
		}
		return db.execCreateTablespace(name, opts)
	case "TABLE":
		if err := checkOptionKeys("TABLE", name, opts, "TABLESPACE", "REGION"); err != nil {
			return err
		}
		region, err := db.resolveTablespace(opts)
		if err != nil {
			return err
		}
		_, err = db.CreateTable(name, region)
		return err
	case "INDEX":
		if err := checkOptionKeys("INDEX", name, opts, "TABLESPACE", "REGION"); err != nil {
			return err
		}
		region, err := db.resolveTablespace(opts)
		if err != nil {
			return err
		}
		_, err = db.CreateIndex(name, region)
		return err
	default:
		return fmt.Errorf("engine: unsupported CREATE %s", kind)
	}
}

// checkOptionKeys rejects unknown option keys instead of silently
// ignoring them (a typoed STORAGE=... must not quietly fall back to the
// default scheme). The first unknown key in sorted order is reported,
// so the error is deterministic.
func checkOptionKeys(kind, name string, opts map[string]string, allowed ...string) error {
	var unknown []string
	for k := range opts {
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	return fmt.Errorf("engine: unknown option %s in CREATE %s %s", unknown[0], kind, name)
}

// parseOptions extracts KEY=VALUE pairs from "(... , ...)".
func parseOptions(stmt string) (map[string]string, error) {
	open := strings.Index(stmt, "(")
	if open < 0 {
		return map[string]string{}, nil
	}
	close := strings.LastIndex(stmt, ")")
	if close < open {
		return nil, fmt.Errorf("engine: unbalanced parentheses in %q", stmt)
	}
	out := make(map[string]string)
	for _, part := range strings.Split(stmt[open+1:close], ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("engine: bad option %q", part)
		}
		out[strings.ToUpper(strings.TrimSpace(kv[0]))] = strings.TrimSpace(kv[1])
	}
	return out, nil
}

func (db *DB) execCreateRegion(name string, opts map[string]string) error {
	rc := noftl.RegionConfig{Name: name}
	geom := db.dev.Geometry()

	if v, ok := opts["IPA_MODE"]; ok {
		m, err := parseIPAMode(v)
		if err != nil {
			return err
		}
		rc.Mode = m
	}
	if v, ok := opts["SCHEME"]; ok {
		s, err := parseScheme(v)
		if err != nil {
			return err
		}
		rc.Scheme = s
	}
	if v, ok := opts["STORAGE"]; ok {
		st, err := parseStorage(v)
		if err != nil {
			return err
		}
		rc.Storage = st
	}
	chips := geom.Chips
	if v, ok := opts["MAX_CHIPS"]; ok {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return fmt.Errorf("engine: bad MAX_CHIPS %q", v)
		}
		if n < chips {
			chips = n
		}
	}
	if chips < geom.Chips {
		rc.Chips = make([]int, chips)
		for i := range rc.Chips {
			rc.Chips[i] = i
		}
	}
	switch {
	case opts["BLOCKS_PER_CHIP"] != "":
		n, err := strconv.Atoi(opts["BLOCKS_PER_CHIP"])
		if err != nil || n < 1 {
			return fmt.Errorf("engine: bad BLOCKS_PER_CHIP %q", opts["BLOCKS_PER_CHIP"])
		}
		rc.BlocksPerChip = n
	case opts["MAX_SIZE"] != "":
		bytes, err := parseSize(opts["MAX_SIZE"])
		if err != nil {
			return err
		}
		perBlock := int64(geom.PagesPerBlock) * int64(geom.PageSize)
		blocks := int(bytes / (int64(chips) * perBlock))
		if blocks < 1 {
			blocks = 1
		}
		rc.BlocksPerChip = blocks
	default:
		return fmt.Errorf("engine: region %s needs MAX_SIZE or BLOCKS_PER_CHIP", name)
	}
	if v, ok := opts["OVERPROVISION"]; ok {
		pct, err := strconv.ParseFloat(v, 64)
		if err != nil || pct <= 0 || pct >= 90 {
			return fmt.Errorf("engine: bad OVERPROVISION %q", v)
		}
		rc.OverProvision = pct / 100
	}
	if v, ok := opts["GC_VICTIM"]; ok {
		gv, err := parseGCVictim(v)
		if err != nil {
			return err
		}
		rc.GCVictim = gv
	}
	if _, err := db.dev.CreateRegion(rc); err != nil {
		return err
	}
	_, err := db.AttachRegion(name)
	return err
}

// parseIPAMode reads an IPA_MODE value.
func parseIPAMode(v string) (noftl.IPAMode, error) {
	switch strings.ToLower(v) {
	case "none", "off":
		return noftl.ModeNone, nil
	case "slc":
		return noftl.ModeSLC, nil
	case "pslc":
		return noftl.ModePSLC, nil
	case "odd-mlc", "oddmlc", "odd_mlc":
		return noftl.ModeOddMLC, nil
	default:
		return 0, fmt.Errorf("engine: unknown IPA_MODE %q (want NONE, SLC, PSLC or ODD-MLC)", v)
	}
}

// parseStorage reads a STORAGE value selecting the region's
// write-reduction scheme.
func parseStorage(v string) (noftl.Storage, error) {
	switch strings.ToLower(v) {
	case "ipa":
		return noftl.StorageIPA, nil
	case "pdl":
		return noftl.StoragePDL, nil
	case "oop":
		return 0, fmt.Errorf("engine: STORAGE %q is not a scheme: create the region without SCHEME, which writes every page out of place", v)
	default:
		return 0, fmt.Errorf("engine: unknown STORAGE %q (want IPA or PDL)", v)
	}
}

// parseGCVictim reads a GC_VICTIM value selecting the victim policy.
func parseGCVictim(v string) (noftl.GCVictim, error) {
	switch strings.ToLower(v) {
	case "greedy":
		return noftl.GreedyVictim, nil
	case "cost-benefit", "costbenefit", "cost_benefit":
		return noftl.CostBenefitVictim, nil
	default:
		return 0, fmt.Errorf("engine: unknown GC_VICTIM %q (want GREEDY or COST-BENEFIT)", v)
	}
}

// parseScheme reads "NxM" or "NxMxV".
func parseScheme(v string) (core.Scheme, error) {
	parts := strings.Split(strings.ToLower(v), "x")
	if len(parts) != 2 && len(parts) != 3 {
		return core.Scheme{}, fmt.Errorf("engine: bad SCHEME %q (want NxM)", v)
	}
	nums := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return core.Scheme{}, fmt.Errorf("engine: bad SCHEME %q: %v", v, err)
		}
		nums[i] = n
	}
	s := core.NewScheme(nums[0], nums[1])
	if len(nums) == 3 {
		s.V = nums[2]
	}
	if err := s.Validate(); err != nil {
		return core.Scheme{}, err
	}
	return s, nil
}

// parseSize reads "512M"-style sizes.
func parseSize(v string) (int64, error) {
	v = strings.ToUpper(strings.TrimSpace(v))
	mult := int64(1)
	switch {
	case strings.HasSuffix(v, "K"):
		mult, v = 1<<10, v[:len(v)-1]
	case strings.HasSuffix(v, "M"):
		mult, v = 1<<20, v[:len(v)-1]
	case strings.HasSuffix(v, "G"):
		mult, v = 1<<30, v[:len(v)-1]
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("engine: bad size %q", v)
	}
	return n * mult, nil
}

func (db *DB) execCreateTablespace(name string, opts map[string]string) error {
	region, ok := opts["REGION"]
	if !ok {
		return fmt.Errorf("engine: tablespace %s needs REGION=...", name)
	}
	db.catMu.Lock()
	defer db.catMu.Unlock()
	if db.dev.Region(region) == nil {
		return fmt.Errorf("%w: %q", ErrNoRegion, region)
	}
	if db.tablespaces == nil {
		db.tablespaces = make(map[string]string)
	}
	if _, dup := db.tablespaces[name]; dup {
		return fmt.Errorf("engine: tablespace %q already exists", name)
	}
	db.tablespaces[name] = region
	return nil
}

// resolveTablespace maps a TABLESPACE= (or REGION=) option to a region
// name.
func (db *DB) resolveTablespace(opts map[string]string) (string, error) {
	if r, ok := opts["REGION"]; ok {
		return r, nil
	}
	ts, ok := opts["TABLESPACE"]
	if !ok {
		return "", fmt.Errorf("engine: need TABLESPACE= or REGION=")
	}
	db.catMu.Lock()
	defer db.catMu.Unlock()
	region, ok := db.tablespaces[ts]
	if !ok {
		return "", fmt.Errorf("engine: no tablespace %q", ts)
	}
	return region, nil
}
