package experiment

import (
	"slices"
	"strconv"

	"samnet/internal/attack"
	"samnet/internal/geom"
	"samnet/internal/mobility"
	"samnet/internal/report"
	"samnet/internal/routing"
	"samnet/internal/routing/aomdv"
	"samnet/internal/routing/mdsr"
	"samnet/internal/runner"
	"samnet/internal/sam"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// Protocols evaluates SAM's statistics over the route sets of the paper's
// future-work protocols (AOMDV, MDSR) next to MR and DSR — the evaluation
// the conclusion says is "underway".
func Protocols(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	protos := []struct {
		name string
		mk   func() routing.Protocol
	}{
		{"MR", mrProtocol},
		{"DSR", dsrProtocol},
		{"AOMDV", func() routing.Protocol { return &aomdv.Protocol{} }},
		{"AODV", func() routing.Protocol { return &aomdv.Protocol{SinglePath: true} }},
		{"MDSR", func() routing.Protocol { return &mdsr.Protocol{} }},
	}

	t := &report.Table{
		Title: "Extension — SAM statistics across multi-path protocols (1-tier cluster)",
		Headers: []string{
			"Protocol", "Routes (normal)", "Routes (attack)",
			"p_max normal", "p_max attack", "Localized",
		},
		Notes: []string{
			"The paper's conclusion: SMR/AOMDV provide more candidate routes during route " +
				"discovery than their single-path counterparts DSR and AODV, but MDSR does not.",
		},
	}
	// One flattened (protocol x condition x run) grid: all five protocols'
	// normal and attacked runs share the worker pool.
	conds := make([]Condition, 0, 2*len(protos))
	for _, p := range protos {
		conds = append(conds,
			newCond("protocols", buildCluster(1), 0, p.mk, p.name),
			newCond("protocols", buildCluster(1), 1, p.mk, p.name))
	}
	all := RunConditions(cfg, conds)
	for pi, p := range protos {
		normal, attacked := all[2*pi], all[2*pi+1]
		t.AddRow(p.name,
			report.F2(mean(normal, routesOf)), report.F2(mean(attacked, routesOf)),
			report.F(mean(normal, pmaxOf)), report.F(mean(attacked, pmaxOf)),
			report.Pct(rate(attacked, localizedRun)))
	}
	return &report.Artifact{ID: "protocols", Kind: "extension", Tables: []*report.Table{t}}
}

func routesOf(r RunResult) float64 { return float64(len(r.Routes)) }

// localizedRun reports whether the run's suspect link is one of its tunnels.
func localizedRun(r RunResult) bool { return slices.Contains(r.TunnelLinks, r.Stats.Suspect) }

// Rushing evaluates SAM against a rushing-only adversary (no tunnel): the
// attackers forward with a fraction of the normal MAC delay, biasing
// duplicate suppression toward themselves. The paper claims SAM extends to
// "any routing attacks as long as certain statistics of the obtained routes
// change significantly" — this measures how much rushing actually moves
// them.
func Rushing(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	t := &report.Table{
		Title:   "Extension — route statistics under a rushing attack (1-tier cluster, MR)",
		Headers: []string{"Run", "p_max normal", "p_max rushing", "Rushers on max-link"},
		Notes: []string{
			"Rushing bends routes toward the attackers but creates no impossible link, so " +
				"the statistical signature is far weaker than a wormhole's — SAM's stated limit.",
		},
	}
	normal := RunCondition(cfg, clusterCond(1, 0, mrProtocol, "MR"))
	type rushOut struct {
		pmax  float64
		onMax bool
	}
	build := buildCluster(1)
	rows := runner.MapWorkerProgress(cfg.Workers, cfg.Runs, cfg.Progress, newSimCache, func(run int, cache *simCache) rushOut {
		net := build(cfg, run)
		sc := attack.NewRushingScenario(net, 1, 0.3, attack.Forward)
		src, dst := net.PickPair(pairRNG(cfg.Seed, run))
		simNet := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, "rushing", run)})
		sc.Arm(simNet)
		disc := mrProtocol().Discover(simNet, src, dst)
		st := sam.Analyze(disc.Routes)
		mal := sc.MaliciousNodes()
		return rushOut{pmax: st.PMax, onMax: mal[st.MaxLink.A] || mal[st.MaxLink.B]}
	})
	for run, r := range rows {
		t.AddRow(strconv.Itoa(run+1), report.F(normal[run].Stats.PMax), report.F(r.pmax), boolMark(r.onMax))
	}
	return &report.Artifact{ID: "rushing", Kind: "extension", Tables: []*report.Table{t}}
}

// Loss measures SAM's robustness to channel loss: detection statistics on
// the attacked cluster as the per-reception loss rate grows.
func Loss(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	t := &report.Table{
		Title:   "Extension — wormhole statistics under channel loss (1-tier cluster, MR)",
		Headers: []string{"Loss rate", "Mean routes", "Mean p_max attack", "Mean p_max normal", "Localized"},
		Notes: []string{
			"Route sets shrink as receptions die, but the tunnel stays dominant: the wormhole " +
				"signature survives moderate loss.",
		},
	}
	losses := []float64{0, 0.05, 0.1, 0.2}
	type lossOut struct {
		routes, pa, pn float64
		localized      bool
	}
	// One flattened (loss rate x run) grid.
	build := buildCluster(1)
	grid := runner.MapGridWorkerProgress(cfg.Workers, len(losses), cfg.Runs, cfg.Progress, newSimCache, func(li, run int, cache *simCache) lossOut {
		loss := losses[li]

		// Attacked run.
		net := build(cfg, run)
		sc := attack.NewScenario(net, 1, attack.Forward)
		defer sc.Teardown()
		src, dst := net.PickPair(pairRNG(cfg.Seed, run))
		simNet := cache.network(net.Topo, sim.Config{
			Seed: deriveSeed(cfg.Seed, "loss/attack", run), LossRate: loss,
		})
		disc := mrProtocol().Discover(simNet, src, dst)
		st := sam.Analyze(disc.Routes)
		out := lossOut{
			routes:    float64(len(disc.Routes)),
			pa:        st.PMax,
			localized: len(disc.Routes) > 0 && st.Suspect == sc.TunnelLinks()[0],
		}

		// Paired normal run at the same loss rate.
		netN := build(cfg, run)
		simN := cache.network(netN.Topo, sim.Config{
			Seed: deriveSeed(cfg.Seed, "loss/normal", run), LossRate: loss,
		})
		discN := mrProtocol().Discover(simN, src, dst)
		out.pn = sam.Analyze(discN.Routes).PMax
		return out
	})
	for li, loss := range losses {
		row := grid[li]
		t.AddRow(report.Pct(loss),
			report.F2(mean(row, func(o lossOut) float64 { return o.routes })),
			report.F(mean(row, func(o lossOut) float64 { return o.pa })),
			report.F(mean(row, func(o lossOut) float64 { return o.pn })),
			report.Pct(rate(row, func(o lossOut) bool { return o.localized })))
	}
	return &report.Artifact{ID: "loss", Kind: "extension", Tables: []*report.Table{t}}
}

// Mobility evaluates SAM when legitimate nodes roam (random waypoint)
// between route discoveries while the attackers stay pinned — the paper's
// deferred mobility question.
func Mobility(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	t := &report.Table{
		Title:   "Extension — SAM under random-waypoint mobility (random topology, MR)",
		Headers: []string{"Drift time", "Connected runs", "Mean p_max attack", "Mean p_max normal", "Localized"},
		Notes: []string{
			"Nodes drift between discoveries; attackers stay at fixed positions (the paper's " +
				"assumption). Disconnected draws produce empty route sets and are skipped in the means.",
		},
	}
	drifts := []float64{0, 2, 5, 10}
	type mobOut struct {
		connected bool
		pa, pn    float64
		localized bool
	}
	build := buildRandom(1) // each drift moves its own clone of run's one draw
	mobGrid := runner.MapGridWorkerProgress(cfg.Workers, len(drifts), cfg.Runs, cfg.Progress, newSimCache, func(di, run int, cache *simCache) mobOut {
		net := build(cfg, run)
		model := mobility.New(net.Topo, mobility.Config{
			Arena: geom.NewRect(geom.Pt(0, 0), geom.Pt(15, 15)),
		}, topoRNG(cfg.Seed+1, run))
		pair := net.AttackerPairs[0]
		model.Pin(pair[0], pair[1])
		model.Advance(drifts[di])

		src, dst := net.PickPair(pairRNG(cfg.Seed, run))
		sc := attack.NewScenario(net, 1, attack.Forward)
		simNet := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, "mobility/attack", run)})
		disc := mrProtocol().Discover(simNet, src, dst)
		sc.Teardown()

		simN := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, "mobility/normal", run)})
		discN := mrProtocol().Discover(simN, src, dst)

		if len(disc.Routes) == 0 || len(discN.Routes) == 0 {
			return mobOut{} // drifted apart: no routes either way
		}
		st := sam.Analyze(disc.Routes)
		return mobOut{
			connected: true,
			pa:        st.PMax,
			pn:        sam.Analyze(discN.Routes).PMax,
			localized: st.Suspect == topology.MkLink(pair[0], pair[1]),
		}
	})
	for di, drift := range drifts {
		// Disconnected draws have no routes either way; the means skip them.
		conn := slices.DeleteFunc(mobGrid[di], func(o mobOut) bool { return !o.connected })
		if len(conn) == 0 {
			t.AddRow(report.F2(drift), "0", "-", "-", "-")
			continue
		}
		t.AddRow(report.F2(drift), strconv.Itoa(len(conn)),
			report.F(mean(conn, func(o mobOut) float64 { return o.pa })),
			report.F(mean(conn, func(o mobOut) float64 { return o.pn })),
			report.Pct(rate(conn, func(o mobOut) bool { return o.localized })))
	}
	return &report.Artifact{ID: "mobility", Kind: "extension", Tables: []*report.Table{t}}
}
