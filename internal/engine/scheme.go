package engine

import (
	"errors"
	"fmt"

	"ipa/internal/buffer"
	"ipa/internal/core"
	"ipa/internal/ecc"
	"ipa/internal/noftl"
	"ipa/internal/page"
	"ipa/internal/sim"
)

// StorageScheme is the pluggable write-reduction scheme behind a
// PageStore's flush path. The paper's Table 1 frames IPA as one point
// in a design space; this interface makes the whole row selectable per
// region: how an update flush is served given the page's differential,
// how a logical page is completed on read, and what the scheme did.
//
// FlushUpdate serves an update flush of an existing page (the caller
// has already diffed the frame against its last flushed image; cs is
// non-empty). On success it must leave fr's flush bookkeeping
// (MarkFlushed, UsedSlots, New) consistent with how the page was
// written. Materialize folds any scheme-held state (e.g. PDL
// differential records) into the base image read from flash; it
// returns the number of bytes applied. Epoch pairs with Materialize:
// a reader snapshots the epoch before reading the base page and
// retries when it changed, catching scheme-internal reorganisations
// (PDL merges) that fold state into base images concurrently.
// Invalidate drops scheme-held state for a page whose base image no
// longer needs it (page freed or fully rewritten).
type StorageScheme interface {
	Kind() noftl.Storage
	FlushUpdate(w *sim.Worker, fr *buffer.Frame, cs *core.ChangeSet) (FlushKind, error)
	Materialize(w *sim.Worker, id core.PageID, buf []byte) (int, error)
	Epoch() uint64
	Invalidate(id core.PageID)
	Stats() SchemeStats
}

// SchemeStats reports which scheme a store runs and the scheme's own
// counters (only PDL keeps state outside the region today).
type SchemeStats struct {
	Storage noftl.Storage
	PDL     noftl.PDLStats // zero unless Storage == StoragePDL
}

// oopScheme always rewrites the full page out of place — the baseline
// every write-reduction scheme is measured against.
type oopScheme struct{ s *PageStore }

func (o oopScheme) Kind() noftl.Storage { return noftl.StorageOOP }

func (o oopScheme) FlushUpdate(w *sim.Worker, fr *buffer.Frame, cs *core.ChangeSet) (FlushKind, error) {
	if err := o.s.writeOutOfPlace(w, fr); err != nil {
		return 0, err
	}
	return FlushOutOfPlace, nil
}

func (o oopScheme) Materialize(w *sim.Worker, id core.PageID, buf []byte) (int, error) {
	return 0, nil
}

func (o oopScheme) Epoch() uint64             { return 0 }
func (o oopScheme) Invalidate(id core.PageID) {}
func (o oopScheme) Stats() SchemeStats        { return SchemeStats{Storage: noftl.StorageOOP} }

// ipaScheme is the paper's scheme: plan [N×M×V] delta-records for the
// differential and ISPP-program them into the delta area of the page's
// current physical location, falling back to an out-of-place write when
// the differential overflows the budget. Materialisation happens inside
// page.Reconstruct on the raw image (the records travel with the page),
// so Materialize/Epoch/Invalidate are no-ops here.
type ipaScheme struct{ s *PageStore }

func (a ipaScheme) Kind() noftl.Storage { return noftl.StorageIPA }

func (a ipaScheme) FlushUpdate(w *sim.Worker, fr *buffer.Frame, cs *core.ChangeSet) (FlushKind, error) {
	s := a.s
	if s.region.CanAppend(fr.ID) {
		recs, perr := s.layout.Scheme.Plan(*cs, fr.UsedSlots)
		if perr == nil && len(recs) > 0 {
			if err := s.writeDelta(w, fr, recs); err == nil {
				return FlushDelta, nil
			} else if !errors.Is(err, noftl.ErrNotAppendable) {
				return 0, err
			}
			// Not appendable after all (e.g. chip budget raced out):
			// fall through to the out-of-place path.
		} else if perr != nil && perr != core.ErrSchemeOverflow {
			return 0, perr
		}
	}
	if err := s.writeOutOfPlace(w, fr); err != nil {
		return 0, err
	}
	return FlushOutOfPlace, nil
}

func (a ipaScheme) Materialize(w *sim.Worker, id core.PageID, buf []byte) (int, error) {
	return 0, nil
}

func (a ipaScheme) Epoch() uint64             { return 0 }
func (a ipaScheme) Invalidate(id core.PageID) {}
func (a ipaScheme) Stats() SchemeStats        { return SchemeStats{Storage: noftl.StorageIPA} }

// pdlScheme is Page-Differential Logging: the differential is appended
// as one record to a per-chip log block (noftl.DiffLog) and folded into
// the base image on read. Oversized differentials and log-space
// exhaustion fall back to a full out-of-place write, which first drops
// the page's outstanding records — the fallback ordering matters, see
// FlushUpdate.
type pdlScheme struct {
	s  *PageStore
	dl *noftl.DiffLog
}

func (p pdlScheme) Kind() noftl.Storage { return noftl.StoragePDL }

func (p pdlScheme) FlushUpdate(w *sim.Worker, fr *buffer.Frame, cs *core.ChangeSet) (FlushKind, error) {
	s := p.s
	pg, err := page.Attach(fr.Data, s.layout)
	if err != nil {
		return 0, err
	}
	err = p.dl.Append(w, fr.ID, pg.LSN(), cs)
	if err == nil {
		fr.MarkFlushed()
		return FlushDelta, nil
	}
	if !errors.Is(err, noftl.ErrPDLRecordTooLarge) && !errors.Is(err, noftl.ErrPDLNoSpace) {
		return 0, err
	}
	// Fall back to a full rewrite. Invalidate BEFORE the write: a merge
	// serialised behind the log's mutex could otherwise fold the page's
	// old records over the fresh base image and resurrect stale bytes.
	p.dl.Invalidate(fr.ID)
	if err := s.writeOutOfPlace(w, fr); err != nil {
		return 0, err
	}
	return FlushOutOfPlace, nil
}

func (p pdlScheme) Materialize(w *sim.Worker, id core.PageID, buf []byte) (int, error) {
	return p.dl.ApplyTo(w, id, buf)
}

func (p pdlScheme) Epoch() uint64 { return p.dl.Epoch() }

func (p pdlScheme) Invalidate(id core.PageID) { p.dl.Invalidate(id) }

func (p pdlScheme) Stats() SchemeStats {
	return SchemeStats{Storage: noftl.StoragePDL, PDL: p.dl.Stats()}
}

// newScheme builds the store's scheme implementation for the region's
// configured storage, creating the DiffLog for PDL regions.
func (s *PageStore) newScheme(kind noftl.Storage) (StorageScheme, error) {
	switch kind {
	case noftl.StorageIPA:
		return ipaScheme{s: s}, nil
	case noftl.StorageOOP:
		return oopScheme{s: s}, nil
	case noftl.StoragePDL:
		dl, err := noftl.NewDiffLog(s.region, noftl.PDLConfig{EncodeOOB: s.pdlOOB()})
		if err != nil {
			return nil, err
		}
		s.dl = dl
		return pdlScheme{s: s, dl: dl}, nil
	default:
		return nil, fmt.Errorf("engine: unknown storage %d", int(kind))
	}
}

// Storage returns the scheme the store flushes with.
func (s *PageStore) Storage() noftl.Storage { return s.scheme.Kind() }

// pdlOOB returns the DiffLog's OOB encoder hook: merged base images get
// the same body ECC an out-of-place flush would attach.
func (s *PageStore) pdlOOB() func([]byte) []byte {
	if !s.useECC {
		return nil
	}
	return func(data []byte) []byte {
		return ecc.Encode(data[:s.sect.BodyLen])
	}
}
