package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSchema keeps BENCHMARK.json and the metrics the program reports in
// step, within the limits the file format sets.
func TestSchema(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; want 1-16 and 1-128", len(b.EndToEnd), len(b.PerLayer))
	}
	seen := map[string]bool{}
	for _, w := range b.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or bad why", w.Name)
		}
		seen[w.Name] = true
	}
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", declared, workloads)
	}

	setup := false
	for i, m := range b.EndToEnd {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("end-to-end %q: bad or repeated name or unit %q", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %q: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		if i >= len(endToEnd) || endToEnd[i].name != m.Name || endToEnd[i].unit != m.Unit ||
			endToEnd[i].better != m.Better || endToEnd[i].bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, endToEnd[min(i, len(endToEnd)-1)])
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range b.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup || len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("want setup_s in s, lower; and %d end-to-end metrics, have %d", len(endToEnd), len(b.EndToEnd))
	}
	for i, m := range b.PerLayer {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer %q: bad or repeated name or unit %q", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if i >= len(perLayer) || perLayer[i].name != m.Name || perLayer[i].unit != m.Unit || perLayer[i].direction() != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, perLayer[min(i, len(perLayer)-1)])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) == 0 || len(b.Command) == 0 {
		t.Errorf("run_seconds %d, paths %v, command %v", b.RunSeconds, b.Paths, b.Command)
	}
}
