package main

import (
	"testing"

	"ipa/internal/flash"
	"ipa/internal/repl"
)

// Both stacks ipaserver can serve — standalone and cluster member — come
// from the one builder and are the stack the benchmark measures: a
// sharded pool, MVCC on (BEGIN_SNAPSHOT is answered rather than refused
// with ErrMVCCDisabled), the same flash geometry and the same
// over-provisioning. Only Options.Replicated tells them apart.
func TestServedStacksAnswerBeginSnapshot(t *testing.T) {
	type shape struct {
		geom    flash.Geometry
		logical int // region capacity in pages: geometry less over-provisioning
	}
	shapes := map[bool]shape{}
	for _, member := range []bool{false, true} {
		name := "standalone"
		if member {
			name = "member"
		}
		t.Run(name, func(t *testing.T) {
			db, tl, err := buildEngine(4096, 16, 1, 200, true, member)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if db.Replicated() != member {
				t.Errorf("Replicated = %v, want %v", db.Replicated(), member)
			}
			if got := db.Pool().Shards(); got != repl.DefaultPoolShards {
				t.Errorf("pool shards = %d, want %d", got, repl.DefaultPoolShards)
			}
			snap, err := db.BeginSnapshot(tl.NewWorker())
			if err != nil {
				t.Fatalf("BeginSnapshot: %v", err)
			}
			if err := snap.Commit(); err != nil {
				t.Fatal(err)
			}
			region := db.Device().Region("data")
			if region.Scheme().Disabled() {
				t.Error("data region has IPA off")
			}
			shapes[member] = shape{db.Device().Geometry(), region.LogicalCapacity()}
		})
	}
	if shapes[false] != shapes[true] {
		t.Errorf("standalone serves %+v, a member %+v", shapes[false], shapes[true])
	}
	if g := shapes[true].geom; g.PagesPerBlock != repl.PagesPerBlock {
		t.Errorf("blocks of %d pages, sized for %d", g.PagesPerBlock, repl.PagesPerBlock)
	}
}

// -ipa=false reaches the standalone region as [0×0].
func TestStandaloneWithoutIPA(t *testing.T) {
	db, _, err := buildEngine(4096, 16, 1, 200, false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if s := db.Device().Region("data").Scheme(); !s.Disabled() {
		t.Errorf("scheme = %v, want disabled", s)
	}
}
