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
	t := &report.Table{Title: title, Headers: headers, Notes: notes}
	means := make([]float64, len(cols))
	for run := 0; run < cfg.Runs; run++ {
		row := []string{strconv.Itoa(run + 1)}
		for i := range cols {
			v := fn(results[i][run])
			means[i] += v
			row = append(row, report.F(v))
		}
		t.AddRow(row...)
	}
	row := []string{"mean"}
	for i := range means {
		row = append(row, report.F(means[i]/float64(cfg.Runs)))
	}
	t.AddRow(row...)
	return t
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

// Fig6 reproduces Figure 6: p_max of 1-tier cluster and uniform networks
// under MR, normal versus attacked, per run.
func Fig6(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	t := seriesTable(cfg, "Figure 6 — p_max of 1-tier networks (MR)", pmaxOf, oneTierCols,
		"Paper shape: cluster attack clearly above cluster normal; the 6-hop uniform tunnel is too short to separate as cleanly.",
	)
	return &report.Artifact{ID: "fig6", Kind: "figure", Tables: []*report.Table{t}}
}

// Fig7 reproduces Figure 7: phi for the same four conditions as Fig6.
func Fig7(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	t := seriesTable(cfg, "Figure 7 — phi of 1-tier networks (MR)", phiOf, oneTierCols,
		"phi = 0 marks the paper's special case: two links tied at the maximum "+
			"(attackers aligned with source or destination row/column).",
	)
	return &report.Artifact{ID: "fig7", Kind: "figure", Tables: []*report.Table{t}}
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

// Fig10 reproduces Figure 10: p_max on random topologies (fresh placement
// per run), normal versus attacked.
func Fig10(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	build := buildRandom(2) // one builder, so the columns share each draw
	t := seriesTable(cfg, "Figure 10 — p_max of networks with random topology (MR)", pmaxOf,
		[]column{
			{"Normal", newCond("random", build, 0, mrProtocol, "MR")},
			{"Attack", newCond("random", build, 1, mrProtocol, "MR")},
		},
		"Paper shape: p_max alone separates attack from normal on random topologies "+
			"(the paper does not plot phi here, and phi is indeed uninformative).",
	)
	return &report.Artifact{ID: "fig10", Kind: "figure", Tables: []*report.Table{t}}
}

// Fig11 reproduces Figure 11: p_max of cluster systems at 1-tier and 2-tier
// transmission ranges.
func Fig11(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	t := seriesTable(cfg, "Figure 11 — p_max of cluster systems, 1-tier vs 2-tier (MR)", pmaxOf, tierCols,
		"Paper shape: attack above normal at both ranges; the attack stays effective "+
			"as long as the tunnel is much longer than the transmission range.",
	)
	return &report.Artifact{ID: "fig11", Kind: "figure", Tables: []*report.Table{t}}
}

// Fig12 reproduces Figure 12: phi for the same conditions as Fig11.
func Fig12(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	t := seriesTable(cfg, "Figure 12 — phi of cluster systems, 1-tier vs 2-tier (MR)", phiOf, tierCols,
		"Known deviation: in this reconstruction the 2-tier normal phi is elevated by "+
			"grid-parity bottlenecks of ideal unit-disk ranges, so the paper's phi ordering "+
			"holds at 1-tier but not 2-tier; p_max (Fig 11) separates at both.",
	)
	return &report.Artifact{ID: "fig12", Kind: "figure", Tables: []*report.Table{t}}
}

// Fig13 reproduces Figure 13: p_max computed from MR routes versus DSR
// routes on the 1-tier cluster.
func Fig13(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	t := seriesTable(cfg, "Figure 13 — p_max of 1-tier cluster, MR vs DSR routes", pmaxOf, protocolCols,
		"Paper shape: p_max separates for both protocols — statistical detection also "+
			"works on routes from protocols other than MR.",
	)
	return &report.Artifact{ID: "fig13", Kind: "figure", Tables: []*report.Table{t}}
}

// Fig14 reproduces Figure 14: phi for the same conditions as Fig13.
func Fig14(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	t := seriesTable(cfg, "Figure 14 — phi of 1-tier cluster, MR vs DSR routes", phiOf, protocolCols,
		"Paper shape: phi keeps its character for MR but not for DSR — DSR's few routes "+
			"make the gap statistic unreliable.",
	)
	return &report.Artifact{ID: "fig14", Kind: "figure", Tables: []*report.Table{t}}
}

// Fig15 reproduces Figure 15: p_max under zero, one and two simultaneous
// wormhole attacks on the 1-tier cluster.
func Fig15(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	t := seriesTable(cfg, "Figure 15 — p_max under no/one/two wormhole attacks (1-tier cluster, MR)", pmaxOf,
		[]column{
			{"No wormhole", clusterCond(1, 0, mrProtocol, "MR")},
			{"One wormhole", clusterCond(1, 1, mrProtocol, "MR")},
			{"Two wormholes", clusterCond(1, 2, mrProtocol, "MR")},
		},
		"Paper shape: p_max much higher in both attacked systems than normal; variance "+
			"grows with the number of wormholes (tunnels compete for routes).",
	)
	return &report.Artifact{ID: "fig15", Kind: "figure", Tables: []*report.Table{t}}
}
