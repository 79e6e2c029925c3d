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
// their own to localise a change: their hashes were last regenerated
// when the rig moved to the one B+tree, and the default STORAGE=ipa path
// must stay byte-identical — a change there altered eviction order,
// flush decisions or GC behaviour, not just plumbing.
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
		{"table1", "5df47d4515557a50c6070ac1d3cd7b2541f78f2ae1d41aa0cc770d2f7719c514"},
		{"table9", "501ac5bf22752575646bc69ea587ed6a4adb7b218157a227494a460c9341e820"},
		{"all", "216480b6fce89f07d90955a8ca98df3cb8bbf799791965984a3600596f06f9f8"},
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
