package experiment

import (
	"fmt"
	"strconv"

	"samnet/internal/report"
	"samnet/internal/topology"
)

// statFn extracts the plotted statistic from a run.
type statFn func(RunResult) float64

func pmaxOf(r RunResult) float64 { return r.Stats.PMax }
func phiOf(r RunResult) float64  { return r.Stats.Phi }

// seriesTable renders one figure panel: per-run values of one statistic for
// each column's condition, plus a mean row — the tabular equivalent of the
// paper's scatter plots.
func seriesTable(cfg Config, title string, fn statFn, cols []column, notes ...string) *report.Table {
	results, headers := runColumns(cfg, cols)
	return perRunTable(&report.Table{Title: title, Headers: headers, Notes: notes}, results,
		func(r RunResult) string { return report.F(fn(r)) },
		"mean", func(rs []RunResult) string { return report.F(mean(rs, fn)) })
}

// series is the registry row of a figure that plots one statistic per run
// and condition: one seriesTable, headed heading, over the columns cols
// returns. Each call of the experiment calls cols once, so a builder it
// makes lives only as long as that call.
func series(id, title, heading string, fn statFn, cols func() []column, notes ...string) Definition {
	return Definition{id, "figure", title, func(cfg Config) *report.Artifact {
		t := seriesTable(cfg.withDefaults(), heading, fn, cols(), notes...)
		return &report.Artifact{ID: id, Kind: "figure", Tables: []*report.Table{t}}
	}}
}

// Fig5 reproduces Figure 5: the PMF of the per-link relative frequency n/N
// for a single 1-tier cluster run, normal system versus system under
// wormhole attack.
func Fig5(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	both := RunConditions(cfg, []Condition{
		clusterCond(1, 0, mrProtocol, "MR"),
		clusterCond(1, 1, mrProtocol, "MR"),
	})
	normal, attacked := both[0][0], both[1][0]

	const bins = 25 // 4% resolution over [0,1]
	pN := normal.Stats.PMF(bins)
	pA := attacked.Stats.PMF(bins)

	t := &report.Table{
		Title:   "Figure 5 — PMF of n/N (single run, 1-tier cluster, MR)",
		Headers: []string{"Bin center", "Normal mass", "Attack mass"},
		Notes: []string{
			fmt.Sprintf("Normal: max relative frequency %.1f%% over %d distinct links.",
				100*normal.Stats.PMax, len(normal.Stats.ByLink)),
			fmt.Sprintf("Attack: max relative frequency %.1f%% (link %v, the tunnel), isolated from the rest of the mass.",
				100*attacked.Stats.PMax, attacked.Stats.MaxLink),
			"Paper shape: normal max ~9%, attacked max >15% and far apart from the other links.",
		},
	}
	for i := 0; i < bins; i++ {
		if pN.Counts[i] == 0 && pA.Counts[i] == 0 {
			continue
		}
		t.AddRow(report.F(pN.BinCenter(i)), report.F(pN.Prob(i)), report.F(pA.Prob(i)))
	}
	return &report.Artifact{ID: "fig5", Kind: "figure", Tables: []*report.Table{t}}
}

// Fig8 reproduces Figure 8: p_max and phi on the 10x6 uniform grid whose
// attack link spans 10 hops.
func Fig8(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	cols := []column{
		{"Normal", uniformCond(10, 6, 1, 0, mrProtocol, "MR")},
		{"Attack", uniformCond(10, 6, 1, 1, mrProtocol, "MR")},
	}
	tp := seriesTable(cfg, "Figure 8a — p_max, 10x6 uniform grid (10-hop tunnel, MR)", pmaxOf, cols,
		"Paper shape: with the longer tunnel both statistics separate on the uniform topology too.")
	tphi := seriesTable(cfg, "Figure 8b — phi, 10x6 uniform grid (10-hop tunnel, MR)", phiOf, cols)
	return &report.Artifact{ID: "fig8", Kind: "figure", Tables: []*report.Table{tp, tphi}}
}

// Fig9 reproduces Figure 9: one drawn random topology — node coordinates and
// roles.
func Fig9(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	net := topology.Random(topology.RandomConfig{Wormholes: 1}, topoRNG(cfg.Seed, 0))
	attackers := net.Attackers()
	srcs := make(map[topology.NodeID]bool)
	for _, id := range net.SrcPool {
		srcs[id] = true
	}
	dsts := make(map[topology.NodeID]bool)
	for _, id := range net.DstPool {
		dsts[id] = true
	}
	t := &report.Table{
		Title:   "Figure 9 — A random topology (node placement)",
		Headers: []string{"Node", "X", "Y", "Role", "Degree"},
		Notes: []string{
			fmt.Sprintf("%d nodes in a %.0fx%.0f area, radio range %.1f; attacker pair tunnel spans %d hops.",
				net.Topo.N(), 15.0, 15.0, net.Topo.Radius(), net.TunnelSpan(0)),
		},
	}
	for i := 0; i < net.Topo.N(); i++ {
		id := topology.NodeID(i)
		role := "relay"
		switch {
		case attackers[id]:
			role = "attacker"
		case srcs[id]:
			role = "source pool"
		case dsts[id]:
			role = "destination pool"
		}
		p := net.Topo.Pos(id)
		t.AddRow(strconv.Itoa(i), report.F2(p.X), report.F2(p.Y), role, strconv.Itoa(net.Topo.Degree(id)))
	}
	return &report.Artifact{ID: "fig9", Kind: "figure", Tables: []*report.Table{t}}
}
