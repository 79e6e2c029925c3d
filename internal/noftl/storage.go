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
			return fmt.Errorf("noftl: region %q: Storage %v requires a disabled Scheme (no delta area)", rc.Name, rc.Storage)
		}
		if rc.Mode != ModeNone {
			return fmt.Errorf("noftl: region %q: Storage %v requires Mode none, got %v", rc.Name, rc.Storage, rc.Mode)
		}
	default:
		return fmt.Errorf("noftl: region %q: unknown storage %d", rc.Name, int(rc.Storage))
	}
	return nil
}
