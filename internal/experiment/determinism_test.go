package experiment

import (
	"runtime"
	"strings"
	"testing"

	"samnet/internal/report"
)

// serialize flattens an artifact into one comparable string: every table,
// rendered, in order.
func serialize(a *report.Artifact) string {
	var b strings.Builder
	for _, t := range a.Tables {
		b.WriteString(t.Markdown())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestExperimentsDeterministicAcrossWorkers is the runner's contract proven
// at the experiment layer: a fixed grid produces bitwise-identical artifacts
// for parallel in {1, 4, GOMAXPROCS}. A sweep over one experiment of each
// kind keeps the test fast while exercising every porting pattern (Map,
// MapGrid, serial folds).
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	levels := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, id := range []string{"table1", "table2", "fig5", "fig15", "detection", "loss", "pdr"} {
		d, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var want string
			for _, w := range levels {
				got := serialize(d.Run(Config{Runs: 4, Seed: 2005, Workers: w}))
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Errorf("workers=%d produced different output than workers=%d:\n%s\n--- vs ---\n%s",
						w, levels[0], got, want)
				}
			}
		})
	}
}
