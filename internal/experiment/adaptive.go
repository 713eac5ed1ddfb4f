package experiment

import (
	"samnet/internal/attack"
	"samnet/internal/geom"
	"samnet/internal/mobility"
	"samnet/internal/report"
	"samnet/internal/sam"
	"samnet/internal/sim"
)

// Adaptive demonstrates the purpose of the paper's low-pass profile update
// (equations 8-9): a long-lived IDS agent watches a slowly drifting network.
// A detector that keeps updating its profile (weighted by lambda*beta)
// tracks the drift and stays quiet on normal traffic, while a frozen
// detector accumulates false alarms as its training data goes stale. When a
// wormhole finally activates, both must still raise the alert — the
// lambda-weighting is what keeps attack observations from polluting the
// adaptive profile.
func Adaptive(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	const (
		normalPhase  = 40 // drifting normal discoveries
		attackPhase  = 10 // discoveries with the wormhole active
		driftPerStep = 0.3
	)

	net := placements.clone(1, cfg.Seed, 0)
	pair := net.AttackerPairs[0]
	model := mobility.New(net.Topo, mobility.Config{
		Arena:    geom.NewRect(geom.Pt(0, 0), geom.Pt(15, 15)),
		MaxSpeed: 0.8,
	}, topoRNG(cfg.Seed+1, 0))
	model.Pin(pair[0], pair[1])

	// The whole experiment is serial (profiles fold in step order), so one
	// cached network serves every discovery.
	cache := newSimCache()

	// Train both detectors on the initial topology.
	trainer := sam.NewTrainer("adaptive", 0)
	for run := 0; run < 20; run++ {
		src, dst := net.PickPair(pairRNG(cfg.Seed+2, run))
		simNet := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, "adaptive/train", run)})
		trainer.ObserveRoutes(mrProtocol().Discover(simNet, src, dst).Routes)
	}
	profile, err := trainer.Profile()
	if err != nil {
		panic("experiment: adaptive training failed: " + err.Error())
	}
	adaptiveDet := sam.NewDetector(profile, sam.DetectorConfig{Beta: 0.2})
	frozenDet := sam.NewDetector(profile, sam.DetectorConfig{})

	step := 0
	discover := func(label string) []sam.Stats {
		src, dst := net.PickPair(pairRNG(cfg.Seed+3, step))
		simNet := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, "adaptive/"+label, step)})
		d := mrProtocol().Discover(simNet, src, dst)
		if len(d.Routes) == 0 {
			return nil
		}
		return []sam.Stats{sam.Analyze(d.Routes)}
	}

	// A Suspicious verdict triggers the probe step, which passes when no
	// payload is being dropped — so only outright Attacked verdicts raise
	// alarms in either phase (the attackers here forward payloads; they are
	// caught by statistics, the hardest case). evaluate returns whether the
	// adaptive and the frozen detector raised one.
	evaluate := func(st sam.Stats) [2]bool {
		va := adaptiveDet.Evaluate(st)
		adaptiveDet.Update(st, va.Lambda) // eq. 8-9: lambda-weighted refresh
		vf := frozenDet.Evaluate(st)      // no update: stale profile
		return [2]bool{va.Decision == sam.Attacked, vf.Decision == sam.Attacked}
	}

	// One entry per discovery that found routes, in step order.
	var normal, attacked [][2]bool
	for ; step < normalPhase; step++ {
		model.Advance(driftPerStep)
		for _, st := range discover("normal") {
			normal = append(normal, evaluate(st))
		}
	}
	sc := attack.NewScenario(net, 1, attack.Forward)
	for ; step < normalPhase+attackPhase; step++ {
		for _, st := range discover("attack") {
			attacked = append(attacked, evaluate(st))
		}
	}
	sc.Teardown()

	t := &report.Table{
		Title: "Extension — adaptive profile (eq. 8-9) vs frozen profile on a drifting network",
		Headers: []string{
			"Detector", "False alarms (drift phase)", "Detections (attack phase)",
		},
		Notes: []string{
			report.D(len(normal)) + " normal discoveries while the network drifts, then " +
				report.D(len(attacked)) + " with the wormhole active; attackers pinned.",
			"The adaptive detector refreshes its means with weight lambda*beta, so normal " +
				"drift is absorbed but attacked observations (lambda near 0) never pollute it.",
		},
	}
	alarms := func(phase [][2]bool, det int) string {
		return report.D(count(phase, func(a [2]bool) bool { return a[det] })) + "/" + report.D(len(phase))
	}
	t.AddRow("adaptive (beta=0.2)", alarms(normal, 0), alarms(attacked, 0))
	t.AddRow("frozen", alarms(normal, 1), alarms(attacked, 1))
	return &report.Artifact{ID: "adaptive", Kind: "extension", Tables: []*report.Table{t}}
}
