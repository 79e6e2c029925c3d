package main

import (
	"testing"

	"ipa/internal/engine"
	"ipa/internal/repl"
	"ipa/internal/sim"
)

// Both stacks ipaserver can serve — standalone and cluster member — are
// the stack the benchmark measures: a sharded pool, and MVCC on, so
// BEGIN_SNAPSHOT is answered rather than refused with ErrMVCCDisabled.
func TestServedStacksAnswerBeginSnapshot(t *testing.T) {
	builds := map[string]func() (*engine.DB, *sim.Timeline, error){
		"standalone": func() (*engine.DB, *sim.Timeline, error) { return buildStack(4096, 16, 1, 200, true) },
		"member":     func() (*engine.DB, *sim.Timeline, error) { return buildMember(4096, 16, 1, 200) },
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			db, tl, err := build()
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
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
		})
	}
}
