package experiment

import "samnet/internal/report"

func affectedOf(r RunResult) float64 { return r.Affected }
func overheadOf(r RunResult) int64   { return r.Overhead }

// Table1 reproduces Table I: the percentage of obtained routes affected by
// the wormhole, per run, for MR and DSR on the cluster and uniform
// topologies (one active wormhole, 1-tier).
func Table1(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	results, headers := runColumns(cfg, tableCols())
	t := perRunTable(&report.Table{
		Title:   "Table I — Percentage of routes affected by wormhole attack",
		Headers: headers,
		Notes: []string{
			"Paper shape: all cluster-topology routes affected (100%) for both protocols; " +
				"uniform topology lower, with MR no worse than DSR.",
		},
	}, results, func(r RunResult) string { return report.Pct(r.Affected) },
		"avg", func(rs []RunResult) string { return report.Pct(mean(rs, affectedOf)) })
	return &report.Artifact{ID: "table1", Kind: "table", Tables: []*report.Table{t}}
}

// Table2 reproduces Table II: route-discovery overhead (total transmissions
// plus receptions at all nodes) per run for MR and DSR, same setups as
// Table I. Averages are integer sums divided by the run count, as the paper
// prints them.
func Table2(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	results, headers := runColumns(cfg, tableCols())
	avg := func(rs []RunResult) int64 { return sum(rs, overheadOf) / int64(len(rs)) }
	t := perRunTable(&report.Table{
		Title:   "Table II — Overhead of route discovery (tx+rx at all nodes)",
		Headers: headers,
		Notes: []string{
			"Paper shape: MR overhead is more than twice DSR's on average, justified by " +
				"needing a new discovery only when all paths break.",
		},
	}, results, func(r RunResult) string { return report.D(r.Overhead) },
		"avg", func(rs []RunResult) string { return report.D(avg(rs)) })

	ratios := &report.Table{
		Title:   "Table II (companion) — MR/DSR overhead ratio",
		Headers: []string{"Topology", "MR avg", "DSR avg", "Ratio"},
	}
	for i, topo := range []string{"Cluster", "Uniform"} {
		mr, dsr := results[2*i], results[2*i+1]
		ratios.AddRow(topo, report.D(avg(mr)), report.D(avg(dsr)),
			report.F2(ratio(sum(mr, overheadOf), sum(dsr, overheadOf))))
	}
	return &report.Artifact{ID: "table2", Kind: "table", Tables: []*report.Table{t, ratios}}
}
