package experiments

import (
	"fmt"
	"strings"
)

// table is every experiment, in the order `ipabench -list` prints and
// `-exp all` runs them. All, ByID, IDs and through them cmd/ipabench and
// the root BenchmarkExperiment read this one list. Every entry reports
// simulated time from a fixed seed, so its rendered output is
// byte-identical from run to run; wall-clock measurements belong to
// bench/, not here.
var table = []struct {
	id  string
	run func(Params) (*Table, error)
}{
	{"table1", Table1}, {"table2", Table2}, {"table3", Table3},
	{"table4", Table4}, {"table5", Table5}, {"table6", Table6},
	{"table7", Table7}, {"table8", Table8}, {"table9", Table9},
	{"table10", Table10}, {"table11", Table11},
	{"fig1", Fig1}, {"fig6", Fig6}, {"fig7", Fig7}, {"fig8", Fig8},
	{"fig9", Fig9}, {"fig10", Fig10}, {"longevity", Longevity},
	{"schemes", Schemes},
}

// IDs lists the experiment identifiers in table order.
func IDs() []string {
	ids := make([]string, len(table))
	for i, e := range table {
		ids[i] = e.id
	}
	return ids
}

// All runs every experiment and concatenates the rendered tables.
func All(p Params) (string, error) {
	var b strings.Builder
	for _, e := range table {
		t, err := e.run(p)
		if err != nil {
			return b.String(), fmt.Errorf("%s: %w", e.id, err)
		}
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// ByID runs one experiment by its identifier.
func ByID(id string, p Params) (*Table, error) {
	for _, e := range table {
		if e.id == id {
			return e.run(p)
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q", id)
}
