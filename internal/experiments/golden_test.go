package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestGoldenDeterminism pins rendered experiment output to its hash.
// "all" is every experiment of the id table at -quick scale, what
// `ipabench -exp all -quick` prints: a changed hash means some table
// moved. table1 and table9, the two most sensitive to the flush path
// (update-size percentiles and the TPC-C buffer sweep), are pinned on
// their own to localise a change: their hashes date from before the
// pluggable-scheme redesign, and the default STORAGE=ipa path must stay
// byte-identical — a change there altered eviction order, flush
// decisions or GC behaviour, not just plumbing.
func TestGoldenDeterminism(t *testing.T) {
	render := func(id string) (string, error) {
		if id == "all" {
			return All(quick)
		}
		tbl, err := ByID(id, quick)
		if err != nil {
			return "", err
		}
		return tbl.Render(), nil
	}
	golden := []struct{ id, want string }{
		{"table1", "6e09482a15d22293122826b5ad98f169b5472fd008df1022585efa5fef3172c2"},
		{"table9", "2118d6ff8cede64a690ef05194fb2e4b5b635c0cac7d44cce3d88df43ca820ab"},
		{"all", "04a5617b2e9e5d1e239b1344820cdc8bef8ce08cfc857ac0250b625da342a2da"},
	}
	for _, g := range golden {
		t.Run(g.id, func(t *testing.T) {
			out, err := render(g.id)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%x", sha256.Sum256([]byte(out)))
			if got != g.want {
				t.Errorf("%s render hash = %s, want %s (default-scheme output changed)", g.id, got, g.want)
			}
		})
	}
}
