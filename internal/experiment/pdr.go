package experiment

import (
	"samnet/internal/attack"
	"samnet/internal/report"
	"samnet/internal/routing"
	"samnet/internal/runner"
	"samnet/internal/sam"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// PDR measures what the wormhole actually costs and what SAM's response
// buys back: the packet delivery ratio of data sent over the routes a
// source would use, in three regimes —
//
//	oblivious:  routes from an attacked discovery, attackers blackholing;
//	detected:   SAM's pipeline ran, the accused pair's routes are avoided
//	            (when clean alternatives exist in the collected set);
//	isolated:   the accused pair is cut out of the network entirely and
//	            routes are rediscovered (step 3's end state).
//
// The paper motivates SAM with exactly this damage model ("the attack nodes
// may perform various attacks, such as the black hole attacks") but never
// quantifies delivery; this closes that loop.
func PDR(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()

	t := &report.Table{
		Title:   "Extension — packet delivery ratio under a blackhole wormhole (1-tier cluster, MR)",
		Headers: []string{"Regime", "Delivered", "PDR"},
		Notes: []string{
			"Each run sends " + report.D(packetsPerRun) + " data packets over the (up to 2) routes " +
				"the source would select; attackers drop all payloads.",
			"'detected' uses SAM's selected routes after the pipeline's verdict; in the cluster " +
				"every collected route crosses the tunnel, so recovery requires the isolation step.",
		},
	}

	// Train the detector on normal-condition discoveries.
	profile := trainProfile(cfg, "pdr", 11, clusterCond(1, 0, mrProtocol, "MR").stats)

	build := buildCluster(1)
	outs := runner.MapWorkerProgress(cfg.Workers, cfg.Runs, cfg.Progress, newSimCache, func(run int, cache *simCache) delivered {
		var tally delivered
		net := build(cfg, run)
		sc := attack.NewScenario(net, 1, attack.Blackhole)
		src, dst := net.PickPair(pairRNG(cfg.Seed, run))

		// Attacked discovery: the routes an oblivious source would get.
		discNet := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, "pdr/disc", run)})
		sc.Arm(discNet)
		disc := mrProtocol().Discover(discNet, src, dst)

		// sendNet prepares the delivery network: the attack armed, and the
		// excluded nodes' links cut when isolation applies.
		sendNet := func(excluded map[topology.NodeID]bool) *sim.Network {
			pNet := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, "pdr/send", run)})
			policy := sc.Arm(pNet)
			if excluded != nil {
				inner := policy.Func(pNet.Rand())
				pNet.SetDropFunc(func(n *sim.Network, from, to topology.NodeID, pkt sim.Packet) bool {
					return excluded[from] || excluded[to] || inner(n, from, to, pkt)
				})
			}
			return pNet
		}

		// Regime 0 — oblivious: use the attacked discovery's routes as-is.
		tally[0] = send(sendNet(nil), disc.Routes)

		// Regime 1 — detected: run the pipeline, use its selected routes.
		det := sam.NewDetector(profile, sam.DetectorConfig{})
		pipe := sam.NewPipeline(det, proberFor(cfg, Condition{
			Label: "pdr/probe", Build: buildCluster(1), Wormholes: 1,
			Protocol: mrProtocol, Behavior: attack.Blackhole,
		}, RunResult{Run: run}, cache), nil, sam.PipelineConfig{})
		out := pipe.Process(disc.Routes)
		tally[1] = send(sendNet(nil), out.SelectedRoutes)

		// Regime 2 — isolated: cut the accused pair out and rediscover.
		excluded := map[topology.NodeID]bool{}
		if out.Report != nil && out.Report.Confirmed {
			excluded[out.Report.Suspects[0]] = true
			excluded[out.Report.Suspects[1]] = true
		}
		redisc := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, "pdr/redisc", run)})
		redisc.SetDropFunc(func(n *sim.Network, from, to topology.NodeID, pkt sim.Packet) bool {
			return excluded[from] || excluded[to]
		})
		clean := mrProtocol().Discover(redisc, src, dst)
		tally[2] = send(sendNet(excluded), clean.Routes)

		sc.Teardown()
		return tally
	})
	names := []string{"oblivious (no detection)", "detected (avoid accused link)", "isolated (step 3) + rediscovery"}
	for i, name := range names {
		got, sent := sum(outs, func(d delivered) int { return d[i] }), packetsPerRun*len(outs)
		t.AddRow(name, report.D(got)+"/"+report.D(sent), report.Pct(ratio(got, sent)))
	}
	return &report.Artifact{ID: "pdr", Kind: "extension", Tables: []*report.Table{t}}
}

// packetsPerRun is how many data packets pdr and verifyloop send in each
// delivery regime of a run.
const packetsPerRun = 5

// delivered counts a run's data packets that arrived, per delivery regime.
// Each regime sends packetsPerRun.
type delivered [3]int

// send delivers packetsPerRun data packets round-robin over the (up to 2)
// maximally disjoint routes a source would select, on a network the caller
// prepared (attack armed, isolation applied), and returns how many arrived.
// With no usable route every packet is lost.
func send(net *sim.Network, routes []routing.Route) int {
	routes = routing.SelectDisjoint(routes, 2)
	if len(routes) == 0 {
		return 0
	}
	batch := make([]routing.Route, packetsPerRun)
	for i := range batch {
		batch[i] = routes[i%len(routes)]
	}
	return count(routing.ProbeRoutes(net, batch), func(res routing.ProbeResult) bool { return res.Acked })
}
