package experiment

import (
	"samnet/internal/report"
	"samnet/internal/sam"
)

// ROC sweeps the detector's sensitivity (the z-score ramp) and reports the
// detection/false-alarm trade-off on the cluster workload — the operating
// curve a deployment would use to pick thresholds. The paper fixes one
// operating point implicitly; this makes the whole curve visible.
func ROC(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()

	// More evaluation runs than the default 10 make the rates legible.
	evalCfg := cfg
	if evalCfg.Runs < 20 {
		evalCfg.Runs = 20
	}

	normal := RunCondition(evalCfg, clusterCond(1, 0, mrProtocol, "MR"))
	attacked := RunCondition(evalCfg, clusterCond(1, 1, mrProtocol, "MR"))

	// Train on a disjoint workload stream.
	profile := trainProfile(cfg, "roc", 7, clusterCond(1, 0, mrProtocol, "MR").stats)

	t := &report.Table{
		Title:   "Extension — detector operating curve (1-tier cluster, MR)",
		Headers: []string{"Sensitivity (z-ramp)", "Detection rate", "False-alarm rate", "Mean lambda gap"},
		Notes: []string{
			"Each row is one detector configuration: a verdict other than 'normal' counts as " +
				"a detection (attacked runs) or a false alarm (normal runs).",
			"The mean lambda gap (normal minus attacked) is threshold-independent evidence of " +
				"separation.",
		},
	}
	sweeps := []struct {
		name      string
		zLow, zHi float64
	}{
		{"z 0.5-1.5 (aggressive)", 0.5, 1.5},
		{"z 1.0-2.5", 1.0, 2.5},
		{"z 1.5-4.0 (default)", 1.5, 4.0},
		{"z 2.5-5.0", 2.5, 5.0},
		{"z 4.0-8.0 (conservative)", 4.0, 8.0},
	}
	for _, sw := range sweeps {
		det := sam.NewDetector(profile, sam.DetectorConfig{ZLow: sw.zLow, ZHigh: sw.zHi})
		flagged := func(r RunResult) bool { return det.Evaluate(r.Stats).Decision != sam.Normal }
		lambda := func(r RunResult) float64 { return det.Evaluate(r.Stats).Lambda }
		t.AddRow(sw.name,
			report.Pct(rate(attacked, flagged)),
			report.Pct(rate(normal, flagged)),
			report.F((sum(normal, lambda)-sum(attacked, lambda))/float64(evalCfg.Runs)),
		)
	}
	return &report.Artifact{ID: "roc", Kind: "extension", Tables: []*report.Table{t}}
}
