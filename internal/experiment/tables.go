package experiment

import (
	"strconv"

	"samnet/internal/report"
)

// Table1 reproduces Table I: the percentage of obtained routes affected by
// the wormhole, per run, for MR and DSR on the cluster and uniform
// topologies (one active wormhole, 1-tier).
func Table1(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	results, headers := runColumns(cfg, tableCols)

	t := &report.Table{
		Title:   "Table I — Percentage of routes affected by wormhole attack",
		Headers: headers,
		Notes: []string{
			"Paper shape: all cluster-topology routes affected (100%) for both protocols; " +
				"uniform topology lower, with MR no worse than DSR.",
		},
	}
	avg := make([]float64, len(tableCols))
	for run := 0; run < cfg.Runs; run++ {
		row := []string{strconv.Itoa(run + 1)}
		for i := range tableCols {
			a := results[i][run].Affected
			avg[i] += a
			row = append(row, report.Pct(a))
		}
		t.AddRow(row...)
	}
	row := []string{"avg"}
	for i := range tableCols {
		row = append(row, report.Pct(avg[i]/float64(cfg.Runs)))
	}
	t.AddRow(row...)
	return &report.Artifact{ID: "table1", Kind: "table", Tables: []*report.Table{t}}
}

// Table2 reproduces Table II: route-discovery overhead (total transmissions
// plus receptions at all nodes) per run for MR and DSR, same setups as
// Table I.
func Table2(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	results, headers := runColumns(cfg, tableCols)

	t := &report.Table{
		Title:   "Table II — Overhead of route discovery (tx+rx at all nodes)",
		Headers: headers,
		Notes: []string{
			"Paper shape: MR overhead is more than twice DSR's on average, justified by " +
				"needing a new discovery only when all paths break.",
		},
	}
	sums := make([]int64, len(tableCols))
	for run := 0; run < cfg.Runs; run++ {
		row := []string{strconv.Itoa(run + 1)}
		for i := range tableCols {
			ov := results[i][run].Overhead
			sums[i] += ov
			row = append(row, report.D(ov))
		}
		t.AddRow(row...)
	}
	row := []string{"avg"}
	for i := range tableCols {
		row = append(row, report.D(sums[i]/int64(cfg.Runs)))
	}
	t.AddRow(row...)

	ratio := &report.Table{
		Title:   "Table II (companion) — MR/DSR overhead ratio",
		Headers: []string{"Topology", "MR avg", "DSR avg", "Ratio"},
	}
	clusterRatio := float64(sums[0]) / float64(sums[1])
	uniformRatio := float64(sums[2]) / float64(sums[3])
	ratio.AddRow("Cluster", report.D(sums[0]/int64(cfg.Runs)), report.D(sums[1]/int64(cfg.Runs)), report.F2(clusterRatio))
	ratio.AddRow("Uniform", report.D(sums[2]/int64(cfg.Runs)), report.D(sums[3]/int64(cfg.Runs)), report.F2(uniformRatio))
	return &report.Artifact{ID: "table2", Kind: "table", Tables: []*report.Table{t, ratio}}
}
