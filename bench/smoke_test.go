package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// repro workload re-executes itself for its cold starts.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "-cold-start") {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestMiniatureWorkloads runs every workload for a second, untraced and
// traced, with every output check on, and checks the result line reports
// exactly the metrics BENCHMARK.json declares for that mode.
func TestMiniatureWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := runWorkload(w, pinnedSeed, time.Second, traced, out)
			var buf bytes.Buffer
			r.print(&buf)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			declared := endToEnd
			if traced {
				declared = perLayer
			}
			var want, got []string
			for _, m := range declared {
				want = append(want, m.name)
				if v, ok := res.Metrics[m.name]; ok && v.Unit != m.unit {
					t.Errorf("%s: %s reported in %s, declared in %s", w, m.name, v.Unit, m.unit)
				}
			}
			for name := range res.Metrics {
				got = append(got, name)
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v reports %v, declares %v", w, traced, got, want)
			}
			if traced {
				if _, err := os.Stat(tracePath(out, w)); err != nil {
					t.Errorf("%s: no trace file: %v", w, err)
				}
			}
		}
	}
}

// TestPinnedDigests renders every repro artifact at the pinned seed with
// one worker; the benchmark checks the same digests with every worker, so
// together they pin serial-versus-parallel byte identity.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both repro sweeps")
	}
	for _, w := range []string{"repro-paper", "repro-arms"} {
		spec := reproSpecs[w]
		s, ok := sweep(spec.ids, spec.runs, pinnedSeed, 1)
		if !ok {
			t.Fatalf("%s cannot draw its inputs at seed %d", w, pinnedSeed)
		}
		for i, id := range spec.ids {
			if want := pinned.Digests[w][id]; s.digests[i] != want {
				t.Errorf("%s %s: sha256 %s, pinned %s", w, id, s.digests[i], want)
			}
		}
	}
}
