package experiment

// Golden reproduction tests: the paper-shape claims in Table I, Table II,
// and Figures 6/7 are asserted at the default configuration (seed 2005,
// 10 runs), so paper fidelity is regression-guarded rather than eyeballed.
// Each assertion states the paper's qualitative claim; the numeric bands are
// the seed values measured at the default seed with slack for refactors
// that legitimately perturb tie-breaking (a band violation means the
// simulated physics changed, not just an implementation detail).

import "testing"

func inBand(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %.4f, want within [%.4f, %.4f]", name, got, lo, hi)
	}
}

// TestGoldenTable1 asserts Table I: on the cluster topology every obtained
// route crosses the tunnel (100% for both MR and DSR); on the 6x6 uniform
// grid the fraction is substantially lower but far from zero.
func TestGoldenTable1(t *testing.T) {
	cfg := Config{}.withDefaults()

	clusterMR := mean(RunCondition(cfg, clusterCond(1, 1, mrProtocol, "MR")), affectedOf)
	clusterDSR := mean(RunCondition(cfg, clusterCond(1, 1, dsrProtocol, "DSR")), affectedOf)
	uniformMR := mean(RunCondition(cfg, uniformCond(6, 6, 1, 1, mrProtocol, "MR")), affectedOf)
	uniformDSR := mean(RunCondition(cfg, uniformCond(6, 6, 1, 1, dsrProtocol, "DSR")), affectedOf)

	// Paper: "all the routes obtained are affected by the wormhole attack"
	// on the cluster topology.
	inBand(t, "cluster MR affected", clusterMR, 0.999, 1.0)
	inBand(t, "cluster DSR affected", clusterDSR, 0.999, 1.0)
	// Paper: uniform topology is affected less; measured 0.425 (MR) and
	// 0.475 (DSR) at the default seed.
	inBand(t, "uniform MR affected", uniformMR, 0.20, 0.80)
	inBand(t, "uniform DSR affected", uniformDSR, 0.20, 0.80)
}

// TestGoldenTable2 asserts Table II's claim that MR's route-discovery
// overhead is more than twice DSR's, on both topologies. Measured ratios at
// the default seed: 2.52 (cluster) and 2.53 (uniform).
func TestGoldenTable2(t *testing.T) {
	cfg := Config{}.withDefaults()
	overhead := func(r RunResult) float64 { return float64(r.Overhead) }

	clusterMR := mean(RunCondition(cfg, clusterCond(1, 1, mrProtocol, "MR")), overhead)
	clusterDSR := mean(RunCondition(cfg, clusterCond(1, 1, dsrProtocol, "DSR")), overhead)
	uniformMR := mean(RunCondition(cfg, uniformCond(6, 6, 1, 1, mrProtocol, "MR")), overhead)
	uniformDSR := mean(RunCondition(cfg, uniformCond(6, 6, 1, 1, dsrProtocol, "DSR")), overhead)

	inBand(t, "cluster MR/DSR overhead ratio", clusterMR/clusterDSR, 2.0, 3.2)
	inBand(t, "uniform MR/DSR overhead ratio", uniformMR/uniformDSR, 2.0, 3.2)
}

// TestGoldenFig6Fig7 asserts the Figure 6/7 separation on the 1-tier
// cluster: under attack p_max roughly doubles (measured 0.079 -> 0.162) and
// phi jumps an order of magnitude (measured 0.010 -> 0.167). It also
// asserts the paper's negative result: the 6-hop uniform tunnel is too
// short for a clean p_max separation.
func TestGoldenFig6Fig7(t *testing.T) {
	cfg := Config{}.withDefaults()

	clusterNormal := RunCondition(cfg, clusterCond(1, 0, mrProtocol, "MR"))
	clusterAttack := RunCondition(cfg, clusterCond(1, 1, mrProtocol, "MR"))
	uniformNormal := RunCondition(cfg, uniformCond(6, 6, 1, 0, mrProtocol, "MR"))
	uniformAttack := RunCondition(cfg, uniformCond(6, 6, 1, 1, mrProtocol, "MR"))

	pmaxNormal := mean(clusterNormal, pmaxOf)
	pmaxAttack := mean(clusterAttack, pmaxOf)
	inBand(t, "cluster normal mean p_max", pmaxNormal, 0.05, 0.11)
	inBand(t, "cluster attack mean p_max", pmaxAttack, 0.13, 0.21)
	if pmaxAttack < 1.7*pmaxNormal {
		t.Errorf("cluster p_max jump %.4f -> %.4f is below the paper's ~2x separation",
			pmaxNormal, pmaxAttack)
	}

	phiNormal := mean(clusterNormal, phiOf)
	phiAttack := mean(clusterAttack, phiOf)
	inBand(t, "cluster normal mean phi", phiNormal, 0.0, 0.05)
	inBand(t, "cluster attack mean phi", phiAttack, 0.10, 0.30)

	// Negative result: the short uniform tunnel does not separate cleanly.
	uPmaxNormal := mean(uniformNormal, pmaxOf)
	uPmaxAttack := mean(uniformAttack, pmaxOf)
	if uPmaxAttack > 1.5*uPmaxNormal {
		t.Errorf("uniform 6x6 p_max separates too cleanly (%.4f -> %.4f): "+
			"the paper's short-tunnel caveat no longer reproduces", uPmaxNormal, uPmaxAttack)
	}
}
