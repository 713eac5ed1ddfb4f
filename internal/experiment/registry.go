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
	series("fig6", "Fig 6 — p_max of 1-tier networks", "Figure 6 — p_max of 1-tier networks (MR)", pmaxOf, oneTierCols,
		"Paper shape: cluster attack clearly above cluster normal; the 6-hop uniform tunnel is too short to separate as cleanly."),
	series("fig7", "Fig 7 — phi of 1-tier networks", "Figure 7 — phi of 1-tier networks (MR)", phiOf, oneTierCols,
		"phi = 0 marks the paper's special case: two links tied at the maximum "+
			"(attackers aligned with source or destination row/column)."),
	{"fig8", "figure", "Fig 8 — p_max and phi, 10x6 uniform, 10-hop tunnel", Fig8},
	{"fig9", "figure", "Fig 9 — a network with random topology", Fig9},
	series("fig10", "Fig 10 — p_max of random topologies", "Figure 10 — p_max of networks with random topology (MR)", pmaxOf, randomCols,
		"Paper shape: p_max alone separates attack from normal on random topologies "+
			"(the paper does not plot phi here, and phi is indeed uninformative)."),
	series("fig11", "Fig 11 — p_max of cluster systems, 1- vs 2-tier", "Figure 11 — p_max of cluster systems, 1-tier vs 2-tier (MR)", pmaxOf, tierCols,
		"Paper shape: attack above normal at both ranges; the attack stays effective "+
			"as long as the tunnel is much longer than the transmission range."),
	series("fig12", "Fig 12 — phi of cluster systems, 1- vs 2-tier", "Figure 12 — phi of cluster systems, 1-tier vs 2-tier (MR)", phiOf, tierCols,
		"Known deviation: in this reconstruction the 2-tier normal phi is elevated by "+
			"grid-parity bottlenecks of ideal unit-disk ranges, so the paper's phi ordering "+
			"holds at 1-tier but not 2-tier; p_max (Fig 11) separates at both."),
	series("fig13", "Fig 13 — p_max, MR vs DSR routes", "Figure 13 — p_max of 1-tier cluster, MR vs DSR routes", pmaxOf, protocolCols,
		"Paper shape: p_max separates for both protocols — statistical detection also "+
			"works on routes from protocols other than MR."),
	series("fig14", "Fig 14 — phi, MR vs DSR routes", "Figure 14 — phi of 1-tier cluster, MR vs DSR routes", phiOf, protocolCols,
		"Paper shape: phi keeps its character for MR but not for DSR — DSR's few routes "+
			"make the gap statistic unreliable."),
	series("fig15", "Fig 15 — p_max under no/one/two wormholes", "Figure 15 — p_max under no/one/two wormhole attacks (1-tier cluster, MR)", pmaxOf, wormholeCols,
		"Paper shape: p_max much higher in both attacked systems than normal; variance "+
			"grows with the number of wormholes (tunnels compete for routes)."),
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
