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
		var tp, fp int
		var lamN, lamA float64
		for i := 0; i < evalCfg.Runs; i++ {
			va := det.Evaluate(attacked[i].Stats)
			lamA += va.Lambda
			if va.Decision != sam.Normal {
				tp++
			}
			vn := det.Evaluate(normal[i].Stats)
			lamN += vn.Lambda
			if vn.Decision != sam.Normal {
				fp++
			}
		}
		n := float64(evalCfg.Runs)
		t.AddRow(sw.name,
			report.Pct(float64(tp)/n),
			report.Pct(float64(fp)/n),
			report.F((lamN-lamA)/n),
		)
	}
	return &report.Artifact{ID: "roc", Kind: "extension", Tables: []*report.Table{t}}
}
