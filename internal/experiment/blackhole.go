package experiment

import (
	"strconv"

	"samnet/internal/report"
	"samnet/internal/routing"
	"samnet/internal/routing/cdsr"
	"samnet/internal/routing/mr"
	"samnet/internal/runner"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// Blackhole reproduces the paper's Section IV discussion as an experiment:
// route caching plus intermediate-node replies (classic DSR) lets an
// early-reply blackhole capture the source's primary route with a
// fabricated claim, while the paper's MR — whose intermediate nodes never
// reply — is structurally immune, and SAM's probe step exposes the
// fabricated route anyway.
func Blackhole(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	t := &report.Table{
		Title: "Extension — early-reply blackhole: cached DSR vs MR (6x6 uniform)",
		Headers: []string{
			"Run", "Cached-DSR first route fabricated", "Probe exposes it", "MR routes all genuine",
		},
		Notes: []string{
			"Cached DSR: the attacker answers every request instantly, claiming the destination " +
				"is one hop away; being nearest, its reply usually arrives first.",
			"MR forbids intermediate replies, so every MR route is a path the request actually " +
				"traversed — the paper's 'certain level of resistance to blackhole attack'.",
		},
	}
	type bhOut struct {
		fabricated, probeExposed, allGenuine bool
	}
	proto := topology.Uniform(6, 6, 1, 1)
	rows := runner.MapWorkerProgress(cfg.Workers, cfg.Runs, cfg.Progress, newSimCache, func(run int, cache *simCache) bhOut {
		net := proto.Clone()
		mal := net.Attackers()
		src, dst := net.PickPair(pairRNG(cfg.Seed, run))

		// Cached DSR under the early-reply attacker.
		sCD := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, "blackhole/cdsr", run)})
		dCD := (&cdsr.Protocol{Malicious: mal}).Discover(sCD, src, dst)
		fabricated := len(dCD.Routes) > 0 && !dCD.Routes[0].Valid(net.Topo)

		// SAM step 2: probe the captured route; the attacker cannot deliver.
		probeExposed := false
		if fabricated {
			pNet := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, "blackhole/probe", run)})
			pNet.SetDropFunc(func(n *sim.Network, from, to topology.NodeID, pkt sim.Packet) bool {
				switch pkt.(type) {
				case *routing.Data, *routing.ACK:
					return mal[to]
				}
				return false
			})
			res := routing.ProbeRoutes(pNet, []routing.Route{dCD.Routes[0]})
			probeExposed = !res[0].Acked
		}

		// MR on the same pair: every collected route is a real traversal.
		sMR := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, "blackhole/mr", run)})
		dMR := (&mr.Protocol{}).Discover(sMR, src, dst)
		allGenuine := len(dMR.Routes) > 0
		for _, r := range dMR.Routes {
			if !r.Valid(net.Topo) || !r.Simple() {
				allGenuine = false
			}
		}
		return bhOut{fabricated: fabricated, probeExposed: probeExposed, allGenuine: allGenuine}
	})
	for run, r := range rows {
		t.AddRow(strconv.Itoa(run+1), boolMark(r.fabricated), probeMark(r.fabricated, r.probeExposed), boolMark(r.allGenuine))
	}
	return &report.Artifact{ID: "blackhole", Kind: "extension", Tables: []*report.Table{t}}
}

func probeMark(fabricated, exposed bool) string {
	if !fabricated {
		return "n/a"
	}
	return boolMark(exposed)
}
