package experiment

import (
	"fmt"
	"sort"

	"samnet/internal/report"
)

// Definition names one reproducible experiment.
type Definition struct {
	ID    string
	Kind  string // "table", "figure" or "extension"
	Title string
	Run   func(Config) *report.Artifact
}

// Registry lists every experiment in presentation order: the paper's two
// tables, its eleven figures, then the extensions.
var Registry = []Definition{
	{"table1", "table", "Table I — % of routes affected by wormhole attack", Table1},
	{"table2", "table", "Table II — overhead of route discovery", Table2},
	{"fig5", "figure", "Fig 5 — PMF of n/N, normal vs attack", Fig5},
	{"fig6", "figure", "Fig 6 — p_max of 1-tier networks", Fig6},
	{"fig7", "figure", "Fig 7 — phi of 1-tier networks", Fig7},
	{"fig8", "figure", "Fig 8 — p_max and phi, 10x6 uniform, 10-hop tunnel", Fig8},
	{"fig9", "figure", "Fig 9 — a network with random topology", Fig9},
	{"fig10", "figure", "Fig 10 — p_max of random topologies", Fig10},
	{"fig11", "figure", "Fig 11 — p_max of cluster systems, 1- vs 2-tier", Fig11},
	{"fig12", "figure", "Fig 12 — phi of cluster systems, 1- vs 2-tier", Fig12},
	{"fig13", "figure", "Fig 13 — p_max, MR vs DSR routes", Fig13},
	{"fig14", "figure", "Fig 14 — phi, MR vs DSR routes", Fig14},
	{"fig15", "figure", "Fig 15 — p_max under no/one/two wormholes", Fig15},
	{"detection", "extension", "End-to-end SAM detection rates", Detection},
	{"leash", "extension", "SAM vs geographic packet leash", LeashCompare},
	{"protocols", "extension", "SAM across MR/DSR/AOMDV/MDSR route sets", Protocols},
	{"rushing", "extension", "Route statistics under a rushing attack", Rushing},
	{"loss", "extension", "Wormhole signature under channel loss", Loss},
	{"mobility", "extension", "SAM under random-waypoint mobility", Mobility},
	{"blackhole", "extension", "Early-reply blackhole: cached DSR vs MR", Blackhole},
	{"adaptive", "extension", "Adaptive vs frozen profile on a drifting network", Adaptive},
	{"roc", "extension", "Detector operating curve (threshold sweep)", ROC},
	{"pdr", "extension", "Packet delivery ratio: oblivious vs detected vs isolated", PDR},
	{"verifyloop", "extension", "Closed-loop IDS: detect, probe, isolate, re-route", VerifyLoop},
	{"rocmatrix", "extension", "ROC matrix: detector family vs. adversary family", ROCMatrix},
}

// ByID returns the experiment definition with the given id.
func ByID(id string) (Definition, error) {
	for _, d := range Registry {
		if d.ID == id {
			return d, nil
		}
	}
	ids := make([]string, len(Registry))
	for i, d := range Registry {
		ids[i] = d.ID
	}
	sort.Strings(ids)
	return Definition{}, fmt.Errorf("experiment: unknown id %q (known: %v)", id, ids)
}
