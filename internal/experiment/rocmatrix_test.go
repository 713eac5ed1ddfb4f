package experiment

// ROC-matrix regression tests: the arms-race claims are golden-pinned (which
// adversaries degrade which detectors, and that the hybrid's recovery costs
// no normal-condition false alarms), the matrix is proven bitwise-identical
// across worker counts, and the adaptive attacker's throttle is pinned to
// actually hold the observed p_max under the trained alarm level — the
// property the scenario is named for. Measured values at seed 2005, 30 runs,
// are noted inline; bands leave slack for tie-break-level refactors.

import (
	"testing"
)

func rocMatrixRowsByName(t *testing.T, cfg Config) map[string]rocMatrixRow {
	t.Helper()
	rows := rocMatrixRows(cfg)
	out := make(map[string]rocMatrixRow, len(rows))
	for _, r := range rows {
		out[r.Scenario] = r
	}
	return out
}

// TestGoldenROCMatrix pins the arms race. SAM alone (and the PMF detector)
// keeps the paper's near-perfect detection of the classic and latent
// wormholes, but degrades hard against the relay chain (measured 3%), the
// adaptive throttler (30%) and reply forgery (43%). The hybrid recovers all
// three (70% / 83% / 100%) while flagging exactly the same normal runs the
// PMF component already flagged — the side channels are free of their own
// false alarms.
func TestGoldenROCMatrix(t *testing.T) {
	rows := rocMatrixRowsByName(t, Config{Runs: 30})

	// Baselines stay detected by everything: classic and latent wormholes
	// keep the frequency spike the paper measures.
	for _, name := range []string{"classic/MR", "latent/MR"} {
		inBand(t, name+" SAM", rows[name].SAM, 0.85, 1.0)
		inBand(t, name+" hybrid", rows[name].Hybrid, 0.95, 1.0)
	}
	inBand(t, "classic/MR mean p_max", rows["classic/MR"].MeanPMax, 0.13, 0.21)
	inBand(t, "normal/MR mean p_max", rows["normal/MR"].MeanPMax, 0.05, 0.11)

	// The arms race: at least these attack classes defeat the frequency
	// statistic and are recovered by the hybrid's side channels.
	degraded := []struct {
		name             string
		samMax, hybridLo float64
	}{
		{"chain/MR", 0.20, 0.50},    // measured SAM 0.03, hybrid 0.70 (ByDelay)
		{"adaptive/MR", 0.50, 0.65}, // measured SAM 0.30, hybrid 0.83 (ByNeighbor+ByDelay)
		{"forge/DSR", 0.60, 0.90},   // measured SAM 0.43, hybrid 1.00 (ByNeighbor+ByDelay)
	}
	for _, d := range degraded {
		r := rows[d.name]
		inBand(t, d.name+" SAM (degraded)", r.SAM, 0.0, d.samMax)
		inBand(t, d.name+" hybrid (recovered)", r.Hybrid, d.hybridLo, 1.0)
		if r.Hybrid < r.SAM+0.3 {
			t.Errorf("%s: hybrid %.2f does not meaningfully recover over SAM %.2f",
				d.name, r.Hybrid, r.SAM)
		}
	}

	// Recovery must be free: on the normal rows the hybrid's extra channels
	// stay silent, so its false-alarm rate sits in the same band as the
	// components' (measured 0.13 MR, 0.20 DSR) and adds at most one run over
	// the PMF component alone.
	for _, name := range []string{"normal/MR", "normal/DSR"} {
		r := rows[name]
		inBand(t, name+" hybrid false alarms", r.Hybrid, 0.0, 0.25)
		if r.Hybrid > r.PMF+0.034 {
			t.Errorf("%s: hybrid false-alarm rate %.2f exceeds PMF's %.2f — "+
				"the side channels are misfiring on normal traffic", name, r.Hybrid, r.PMF)
		}
		inBand(t, name+" z channel silent", r.Channels[2], 0, 0)
		inBand(t, name+" neighbor channel silent", r.Channels[3], 0, 0)
		inBand(t, name+" delay channel silent", r.Channels[4], 0, 0)
	}
}

// TestROCMatrixDeterministicAcrossWorkers proves the matrix honors the
// runner contract at the worker counts the issue names: 1, 4 and 8 produce
// bitwise-identical artifacts (training included).
func TestROCMatrixDeterministicAcrossWorkers(t *testing.T) {
	var want string
	for _, w := range []int{1, 4, 8} {
		got := serialize(ROCMatrix(Config{Runs: 4, Seed: 2005, Workers: w}))
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d produced different output than workers=1:\n%s\n--- vs ---\n%s",
				w, got, want)
		}
	}
}

// TestROCMatrixAdaptiveThrottleHoldsPMax pins the adaptive attacker to its
// contract: the request budget plus slowed tunnel keep the observed mean
// p_max under the trained hard-alarm level (profile mean + ZHigh sigmas, the
// level where SAM's risk saturates), which the un-throttled classic wormhole
// clearly crosses on the same workload.
func TestROCMatrixAdaptiveThrottleHoldsPMax(t *testing.T) {
	cfg := Config{Runs: 30}.withDefaults()
	profile := rocMatrixProfile(cfg, "MR")
	rows := rocMatrixRowsByName(t, cfg)

	// The detector floors sigma at minStd (0.02) before thresholding;
	// mirror that here.
	std := profile.PMax.Std
	if std < 0.02 {
		std = 0.02
	}
	alarm := profile.PMax.Mean + 4*std // DetectorConfig default ZHigh

	adaptive, classic := rows["adaptive/MR"], rows["classic/MR"]
	if adaptive.MeanPMax >= alarm {
		t.Errorf("adaptive mean p_max %.4f breaches the trained alarm level %.4f: the throttle failed",
			adaptive.MeanPMax, alarm)
	}
	if classic.MeanPMax <= profile.PMax.Mean+1.5*std {
		t.Errorf("classic mean p_max %.4f never leaves the normal band (mean %.4f, std %.4f): "+
			"the workload cannot witness the throttle's effect", classic.MeanPMax, profile.PMax.Mean, std)
	}
	if adaptive.MeanPMax >= classic.MeanPMax {
		t.Errorf("adaptive mean p_max %.4f is not below classic's %.4f", adaptive.MeanPMax, classic.MeanPMax)
	}
}
