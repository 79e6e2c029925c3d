package noftl

import "fmt"

// Storage selects the write-reduction scheme a region's pages are
// flushed with. The zero value is StorageIPA: whether deltas are
// actually appended is governed by the region's IPA Mode/Scheme, and a
// region on the disabled [0×0] scheme is the paper's out-of-place
// baseline — every update flush rewrites the whole page.
type Storage int

const (
	// StorageIPA flushes via in-place appends into the page's delta area
	// when the update fits (the paper's scheme), falling back to an
	// out-of-place write otherwise.
	StorageIPA Storage = iota
	// StoragePDL flushes page differentials out-of-place into dedicated
	// per-chip log blocks (Page-Differential Logging); the base page is
	// rewritten only on merge or when the differential is too large.
	StoragePDL
)

func (s Storage) String() string {
	switch s {
	case StorageIPA:
		return "ipa"
	case StoragePDL:
		return "pdl"
	default:
		return fmt.Sprintf("Storage(%d)", int(s))
	}
}

// GCVictim selects the collector's victim policy. The zero value keeps
// the greedy min-valid heap (deterministic, the paper's experiments
// depend on it); CostBenefitVictim scores (1-u)·age/2u at collect time
// (Kawaguchi et al.), preferring cold mostly-invalid blocks.
type GCVictim int

const (
	// GreedyVictim picks the block with the fewest valid pages.
	GreedyVictim GCVictim = iota
	// CostBenefitVictim maximises (1-u)·age/2u where u is the valid-page
	// utilisation and age the time since the block last lost a page.
	CostBenefitVictim
)

func (v GCVictim) String() string {
	switch v {
	case GreedyVictim:
		return "greedy"
	case CostBenefitVictim:
		return "cost-benefit"
	default:
		return fmt.Sprintf("GCVictim(%d)", int(v))
	}
}

// Validate checks the internal consistency of the configuration. A PDL
// region must not carry an IPA page layout: PDL's merge-on-read writes
// raw base images that stale delta slots would corrupt on reconstruct.
func (rc RegionConfig) Validate() error {
	if err := rc.Scheme.Validate(); err != nil {
		return err
	}
	switch rc.Storage {
	case StorageIPA:
	case StoragePDL:
		if !rc.Scheme.Disabled() {
			return fmt.Errorf("noftl: region %q: STORAGE=%v requires a disabled IPA scheme (no delta area)", rc.Name, rc.Storage)
		}
		if rc.Mode != ModeNone {
			return fmt.Errorf("noftl: region %q: STORAGE=%v requires IPA_MODE none, got %v", rc.Name, rc.Storage, rc.Mode)
		}
	default:
		return fmt.Errorf("noftl: region %q: unknown storage %d", rc.Name, int(rc.Storage))
	}
	switch rc.GCVictim {
	case GreedyVictim, CostBenefitVictim:
	default:
		return fmt.Errorf("noftl: region %q: unknown GC victim policy %d", rc.Name, int(rc.GCVictim))
	}
	return nil
}
