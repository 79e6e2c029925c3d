package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/sim"
)

// TPCB implements the TPC-B banking benchmark (Appendix A.0.1): one
// Account_Update transaction that modifies a numeric balance (4 bytes
// net) in each of Branch, Teller and Account, and appends a History row
// (~20 bytes net). The 1:10:AccountsPerBranch cardinality and the random
// account access give the paper's update-size profile: 50–90% of update
// I/Os change exactly 4 bytes of net data.
type TPCB struct {
	DB *engine.DB
	// Region for each table; AccountRegion may differ to exercise
	// selective IPA ("3 from 4 tables in TPC-B").
	Region string

	Branches          int
	AccountsPerBranch int

	// Zipfian skews the account choice (ZipfS steepness, default 1.1
	// when zero) instead of TPC-B's uniform draw — the hot-account
	// contention the HTAP audit uses to provoke no-wait aborts.
	Zipfian bool
	ZipfS   float64

	branch, teller, account, history *engine.Table
	accountIdx                       engine.Index

	branchRIDs []core.RID
	tellerRIDs []core.RID

	schAcct *engine.Schema // aid(4) bid(4) balance(8) filler(84)
	schCtl  *engine.Schema // id(4) bid(4) balance(8) filler(84)
	schHist *engine.Schema // aid(4) tid(4) bid(4) delta(8) time(8)

	// zipfs caches one Zipf generator per terminal RNG (rand.Zipf is
	// not safe for concurrent use; seeding from the terminal's rng keeps
	// runs deterministic per terminal).
	zipfs sync.Map // *rand.Rand -> *Zipf
}

// NewTPCB constructs a driver; Load must be called before RunOne.
func NewTPCB(db *engine.DB, region string, branches, accountsPerBranch int) *TPCB {
	schAcct, _ := engine.NewSchema(4, 4, 8, 84)
	schCtl, _ := engine.NewSchema(4, 4, 8, 84)
	schHist, _ := engine.NewSchema(4, 4, 4, 8, 8)
	return &TPCB{
		DB: db, Region: region,
		Branches: branches, AccountsPerBranch: accountsPerBranch,
		schAcct: schAcct, schCtl: schCtl, schHist: schHist,
	}
}

// Name implements Workload.
func (b *TPCB) Name() string { return "TPC-B" }

// Accounts returns the total number of accounts.
func (b *TPCB) Accounts() int { return b.Branches * b.AccountsPerBranch }

// Load creates and populates the four tables.
func (b *TPCB) Load(w *sim.Worker) error {
	db := b.DB
	var err error
	if b.branch, err = db.CreateTable("tpcb_branch", b.Region); err != nil {
		return err
	}
	if b.teller, err = db.CreateTable("tpcb_teller", b.Region); err != nil {
		return err
	}
	if b.account, err = db.CreateTable("tpcb_account", b.Region); err != nil {
		return err
	}
	if b.history, err = db.CreateTable("tpcb_history", b.Region); err != nil {
		return err
	}
	if b.accountIdx, err = db.CreateIndex("tpcb_account_pk", b.Region); err != nil {
		return err
	}
	for i := 0; i < b.Branches; i++ {
		tup := b.schCtl.New()
		b.schCtl.SetUint(tup, 0, uint64(i+1))
		b.schCtl.SetUint(tup, 2, 1_000_000)
		rid, err := insertRow(db, w, b.branch, tup)
		if err != nil {
			return fmt.Errorf("load branch %d: %w", i, err)
		}
		b.branchRIDs = append(b.branchRIDs, rid)
		for t := 0; t < 10; t++ {
			tt := b.schCtl.New()
			b.schCtl.SetUint(tt, 0, uint64(i*10+t+1))
			b.schCtl.SetUint(tt, 1, uint64(i+1))
			b.schCtl.SetUint(tt, 2, 100_000)
			trid, err := insertRow(db, w, b.teller, tt)
			if err != nil {
				return fmt.Errorf("load teller: %w", err)
			}
			b.tellerRIDs = append(b.tellerRIDs, trid)
		}
	}
	// Accounts, batch-committed for load speed.
	tx, err := db.Begin(w)
	if err != nil {
		return err
	}
	for a := 0; a < b.Accounts(); a++ {
		tup := b.schAcct.New()
		aid := uint64(a + 1)
		b.schAcct.SetUint(tup, 0, aid)
		b.schAcct.SetUint(tup, 1, uint64(a/b.AccountsPerBranch+1))
		b.schAcct.SetUint(tup, 2, 10_000)
		rid, err := b.account.Insert(tx, tup)
		if err != nil {
			tx.Abort()
			return fmt.Errorf("load account %d: %w", a, err)
		}
		if err := b.accountIdx.Insert(w, aid, rid); err != nil {
			tx.Abort()
			return err
		}
		if a%2000 == 1999 {
			if err := tx.Commit(); err != nil {
				return err
			}
			if tx, err = db.Begin(w); err != nil {
				return err
			}
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	return db.FlushAll(w)
}

// pickAccount draws an account id, uniform by default or Zipfian when
// configured.
func (b *TPCB) pickAccount(rng *rand.Rand) uint64 {
	if b.Zipfian {
		zi, ok := b.zipfs.Load(rng)
		if !ok {
			s := b.ZipfS
			if s == 0 {
				s = 1.1
			}
			zi, _ = b.zipfs.LoadOrStore(rng, NewZipf(rng, s, uint64(b.Accounts())))
		}
		return zi.(*Zipf).Next() + 1
	}
	return uint64(rng.Intn(b.Accounts()) + 1)
}

// RunOne executes one Account_Update transaction.
func (b *TPCB) RunOne(w *sim.Worker, rng *rand.Rand) (string, error) {
	db := b.DB
	aid := b.pickAccount(rng)
	tellerIdx := rng.Intn(len(b.tellerRIDs))
	branchIdx := tellerIdx / 10
	delta := uint64(rng.Intn(16_000_000) + 1) // spans the 4 low-order balance bytes

	arid, ok, err := b.accountIdx.Lookup(w, aid)
	if err != nil {
		return "Account_Update", err
	}
	if !ok {
		return "Account_Update", fmt.Errorf("tpcb: account %d missing", aid)
	}
	tx, err := db.Begin(w)
	if err != nil {
		return "Account_Update", err
	}
	// Account balance += delta (4-8 net bytes; small delta touches the
	// low-order bytes only). Read under the tuple lock so the
	// read-modify-write is atomic against concurrent terminals.
	cur, err := b.account.ReadLocked(tx, arid)
	if err != nil {
		tx.Abort()
		return "Account_Update", err
	}
	b.schAcct.AddUint(cur, 2, delta)
	if err := b.account.Update(tx, arid, cur); err != nil {
		tx.Abort()
		return "Account_Update", err
	}
	// Teller and branch balances.
	for i, rid := range []core.RID{b.tellerRIDs[tellerIdx], b.branchRIDs[branchIdx]} {
		tbl := b.teller
		if i == 1 {
			tbl = b.branch
		}
		row, err := tbl.ReadLocked(tx, rid)
		if err != nil {
			tx.Abort()
			return "Account_Update", err
		}
		b.schCtl.AddUint(row, 2, delta)
		if err := tbl.Update(tx, rid, row); err != nil {
			tx.Abort()
			return "Account_Update", err
		}
	}
	// History append (~24 bytes net on a fresh-page slot).
	h := b.schHist.New()
	b.schHist.SetUint(h, 0, aid)
	b.schHist.SetUint(h, 1, uint64(tellerIdx+1))
	b.schHist.SetUint(h, 2, uint64(branchIdx+1))
	b.schHist.SetUint(h, 3, delta)
	b.schHist.SetUint(h, 4, simNow(w))
	if _, err := b.history.Insert(tx, h); err != nil {
		tx.Abort()
		return "Account_Update", err
	}
	return "Account_Update", tx.Commit()
}
