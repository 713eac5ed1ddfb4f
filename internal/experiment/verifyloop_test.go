package experiment

import "testing"

// TestGoldenVerifyLoop pins the closed-loop claim at the default
// configuration: the blackhole destroys delivery, the probe protocol
// condemns the tunnel, and isolation-aware rediscovery recovers delivery
// toward the pre-attack baseline. Measured at seed 2005 / 10 runs:
// cluster MR 1.00 -> 0.00 -> 1.00 (10/10 condemned), cluster DSR
// 1.00 -> 0.00 -> 0.86 (10/10), uniform MR 1.00 -> 0.58 -> 0.76 (3/10),
// uniform DSR 1.00 -> 0.54 -> 0.92 (5/10). Bands carry slack for refactors
// that legitimately perturb tie-breaking; a violation means the loop's
// physics changed.
func TestGoldenVerifyLoop(t *testing.T) {
	rows := verifyLoopRows(Config{})
	if len(rows) != 4 {
		t.Fatalf("got %d scenario rows, want 4", len(rows))
	}
	byName := map[string]verifyLoopRow{}
	for _, r := range rows {
		byName[r.Scenario] = r

		// Universal claims: a clean network delivers everything, and
		// isolation never makes delivery worse than the oblivious regime.
		inBand(t, r.Scenario+" pre-attack PDR", r.PDR[0], 0.999, 1.0)
		if r.PDR[2] < r.PDR[1] {
			t.Errorf("%s: post-isolation PDR %.4f below under-attack %.4f",
				r.Scenario, r.PDR[2], r.PDR[1])
		}
	}

	// Cluster: every route crosses the tunnel (Table I), so the blackhole
	// zeroes delivery, every run's probes condemn, and rediscovery around
	// the isolated pair restores most of the baseline.
	for _, name := range []string{"cluster-1tier/MR", "cluster-1tier/DSR"} {
		r := byName[name]
		inBand(t, name+" under-attack PDR", r.PDR[1], 0.0, 0.05)
		inBand(t, name+" post-isolation PDR", r.PDR[2], 0.70, 1.0)
		if r.Condemned < 8 {
			t.Errorf("%s: condemned %d/10 runs, want >= 8", name, r.Condemned)
		}
	}

	// Uniform grid: the short tunnel hurts less and separates less (the
	// paper's caveat), so detection fires on only some runs — but the runs
	// it does catch still lift the aggregate.
	for _, name := range []string{"uniform6x6/MR", "uniform6x6/DSR"} {
		r := byName[name]
		inBand(t, name+" under-attack PDR", r.PDR[1], 0.30, 0.80)
		inBand(t, name+" post-isolation PDR", r.PDR[2], 0.60, 1.0)
		if r.Condemned < 1 {
			t.Errorf("%s: condemned %d/10 runs, want >= 1", name, r.Condemned)
		}
	}
}

// TestVerifyLoopDeterminism proves the closed loop rides the runner
// contract: the rendered artifact is bitwise identical for every worker
// count, per-run isolation state and probe traffic included.
func TestVerifyLoopDeterminism(t *testing.T) {
	d, err := ByID("verifyloop")
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, w := range []int{1, 4, 8} {
		got := serialize(d.Run(Config{Runs: 4, Seed: 2005, Workers: w}))
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
