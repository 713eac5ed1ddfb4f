package experiment

import (
	"slices"
	"strconv"

	"samnet/internal/attack"
	"samnet/internal/leash"
	"samnet/internal/report"
	"samnet/internal/routing"
	"samnet/internal/runner"
	"samnet/internal/sam"
	"samnet/internal/sector"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// Detection is the end-to-end SAM experiment the paper describes but does
// not tabulate: train a profile on normal-condition discoveries, then run
// the full three-step pipeline on fresh normal and attacked runs, reporting
// detection rate, false positives and attacker localization accuracy.
func Detection(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()

	setups := []struct {
		name  string
		build func(Config, int) *topology.Network
	}{
		{"cluster-1tier", buildCluster(1)},
		{"uniform10x6", buildUniform(10, 6, 1)},
		{"random", buildRandom(2)},
	}

	t := &report.Table{
		Title: "Extension — End-to-end SAM detection (trained profile, three-step pipeline)",
		Headers: []string{
			"Topology", "Detection rate", "Localization", "False alarms", "Mean lambda (attack)", "Mean lambda (normal)",
		},
		Notes: []string{
			"Detection rate: attacked runs ending in a confirmed report. Localization: " +
				"confirmed reports whose accused link is the actual tunnel. False alarms: " +
				"normal runs ending in a confirmed report.",
			"Attackers blackhole data packets, so step 2 probes lose their ACKs.",
		},
	}

	for _, s := range setups {
		normalCond := newCond(s.name, s.build, 0, mrProtocol, "MR")
		attackCond := newCond(s.name, s.build, 1, mrProtocol, "MR")
		attackCond.Behavior = attack.Blackhole

		// Train on extra normal runs from a disjoint workload stream.
		profile := trainProfile(cfg, s.name+"/MR", 1, normalCond.stats)

		// Each run gets its own detector and pipeline over the shared
		// read-only profile, so runs evaluate in parallel.
		evalRuns := func(cond Condition) []detectionRun {
			results := RunCondition(cfg, cond)
			return runner.MapWorkerProgress(cfg.Workers, len(results), cfg.Progress, newSimCache, func(i int, cache *simCache) detectionRun {
				r := results[i]
				det := sam.NewDetector(profile, sam.DetectorConfig{})
				pipe := sam.NewPipeline(det, proberFor(cfg, cond, r, cache), nil, sam.PipelineConfig{})
				out := pipe.Process(r.Routes)
				confirmed := out.Report != nil && out.Report.Confirmed
				return detectionRun{
					confirmed: confirmed,
					localized: confirmed && slices.Contains(r.TunnelLinks, out.Report.SuspectLink),
					lambda:    out.Verdict.Lambda,
				}
			})
		}
		attacked, normal := evalRuns(attackCond), evalRuns(normalCond)
		t.AddRow(s.name,
			report.Pct(rate(attacked, detectionRun.isConfirmed)),
			report.Pct(ratio(count(attacked, detectionRun.isLocalized), count(attacked, detectionRun.isConfirmed))),
			report.Pct(rate(normal, detectionRun.isConfirmed)),
			report.F(mean(attacked, detectionRun.lambdaOf)),
			report.F(mean(normal, detectionRun.lambdaOf)),
		)
	}
	return &report.Artifact{ID: "detection", Kind: "extension", Tables: []*report.Table{t}}
}

// detectionRun is one run of Detection's pipeline: whether it ended in a
// confirmed report, whether that report accused the actual tunnel, and the
// step-1 lambda.
type detectionRun struct {
	confirmed, localized bool
	lambda               float64
}

func (r detectionRun) isConfirmed() bool { return r.confirmed }
func (r detectionRun) isLocalized() bool { return r.localized }
func (r detectionRun) lambdaOf() float64 { return r.lambda }

// proberFor builds a simulation-backed prober that replays the run's
// scenario: a network with the same topology (drawn from the worker's
// cache), wormholes armed with the same payload behaviour, probing by
// source routing.
func proberFor(cfg Config, cond Condition, r RunResult, cache *simCache) sam.Prober {
	return sam.ProberFunc(func(routes []routing.Route) []routing.ProbeResult {
		net := cond.Build(cfg, r.Run)
		var sc *attack.Scenario
		if cond.Wormholes > 0 {
			sc = attack.NewScenario(net, cond.Wormholes, cond.Behavior)
		}
		simNet := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, cond.Label+"/probe", r.Run)})
		if sc != nil {
			sc.Arm(simNet)
			defer sc.Teardown()
		}
		return routing.ProbeRoutes(simNet, routes)
	})
}

// LeashCompare pits SAM against the two prior-art defenses the paper's
// related work describes — the geographic packet leash and SECTOR's MAD
// distance bounding — on identical attacked runs: what each detects, and
// what hardware each requires.
func LeashCompare(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	cond := clusterCond(1, 1, mrProtocol, "MR")

	t := &report.Table{
		Title: "Extension — SAM vs packet leash vs SECTOR (1-tier cluster, MR, one wormhole)",
		Headers: []string{
			"Run", "Leash flags tunnel", "SECTOR flags tunnel", "SAM pmax", "SAM suspect = tunnel",
		},
		Notes: []string{
			"Packet leashes check per reception and need GPS + loose clock sync at every node; " +
				"SECTOR distance-bounds each neighbor and needs dedicated challenge-response " +
				"hardware; SAM needs only the route set multi-path routing already collects.",
		},
	}
	type leashOut struct {
		leashHit, sectorHit, samHit bool
		pmax                        float64
	}
	rows := runner.MapWorkerProgress(cfg.Workers, cfg.Runs, cfg.Progress, newSimCache, func(run int, cache *simCache) leashOut {
		net := cond.Build(cfg, run)
		sc := attack.NewScenario(net, cond.Wormholes, cond.Behavior)
		defer sc.Teardown()
		src, dst := net.PickPair(pairRNG(cfg.Seed, run))
		simNet := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, cond.Label, run)})
		checker := leash.New(net.Topo, leash.Config{}, simNet.Rand())
		tally := checker.Monitor(simNet, nil)
		disc := cond.Protocol().Discover(simNet, src, dst)
		verdict := leash.Summarize(tally)
		st := sam.Analyze(disc.Routes)
		tunnel := sc.TunnelLinks()[0]

		prover := sector.New(net.Topo, sector.Config{}, simNet.Rand())
		_, sectorHit := prover.SweepNeighbors()[tunnel]

		return leashOut{
			leashHit:  verdict.Detected && verdict.WorstLink == tunnel,
			sectorHit: sectorHit,
			samHit:    st.Suspect == tunnel,
			pmax:      st.PMax,
		}
	})
	for run, r := range rows {
		t.AddRow(
			strconv.Itoa(run+1),
			boolMark(r.leashHit),
			boolMark(r.sectorHit),
			report.F(r.pmax),
			boolMark(r.samHit),
		)
	}
	return &report.Artifact{ID: "leash", Kind: "extension", Tables: []*report.Table{t}}
}

func boolMark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
