package examples_test

import (
	"fmt"

	"samnet"
	"samnet/internal/routing"
	"samnet/internal/sam"
)

// IDS agent: the full three-step SAM procedure inside a distributed
// intrusion detection system (paper Sec. III.B, Figs. 3-4).
//
//  1. Train a normal-condition profile for the topology.
//
//  2. Several destination nodes run SAM agents; wormhole attackers tunnel
//     route requests and blackhole the data.
//
//  3. Agents detect, probe (step 2), report to the coordinator (step 3);
//     once the quorum accuses the pair, the network isolates it and a fresh
//     discovery succeeds on clean routes.
func Example_idsagent() {
	net := samnet.NewCluster(1, 1)

	// --- Training: 30 normal route discoveries feed the profile. ---
	trainer := samnet.NewTrainer("cluster-1tier/MR")
	for seed := uint64(1); seed <= 30; seed++ {
		src := net.SrcPool[int(seed)%len(net.SrcPool)]
		dst := net.DstPool[int(seed*7)%len(net.DstPool)]
		d := samnet.DiscoverMR(net, src, dst, seed)
		trainer.ObserveRoutes(d.Routes)
	}
	profile, err := trainer.Profile()
	if err != nil {
		panic(err)
	}
	fmt.Printf("trained profile %q over %d runs: pmax %v | phi %v\n\n",
		profile.Label, trainer.Runs(), profile.PMax, profile.Phi)

	// --- Attack: the embedded pair activates its tunnel and blackholes
	// data packets. ---
	sc := samnet.Attack(net, 1, samnet.BehaviorBlackhole)
	tunnel := sc.TunnelLinks()[0]
	fmt.Printf("wormhole active: link %v, payload behaviour %v\n\n", tunnel, sc.Behavior)

	// --- Distributed detection: three destinations each run an agent;
	// two distinct accusations blacklist a node. ---
	coordinator := sam.NewCoordinator(2)
	dests := net.DstPool[:3]
	for i, dstNode := range dests {
		detector := samnet.NewDetector(profile)
		seed := uint64(100 + i)
		prober := sam.ProberFunc(func(routes []routing.Route) []routing.ProbeResult {
			return samnet.ProbeRoutes(net, sc, routes, seed)
		})
		agent := sam.NewPipeline(detector, prober, coordinator.ResponderFor(dstNode), sam.PipelineConfig{})

		src := net.SrcPool[i*3%len(net.SrcPool)]
		disc := samnet.DiscoverMRUnderAttack(net, sc, src, dstNode, seed)
		out := agent.Process(disc.Routes)
		fmt.Printf("agent@%d: %d routes, verdict=%v lambda=%.3f", dstNode,
			len(disc.Routes), out.Verdict.Decision, out.Verdict.Lambda)
		if out.Report != nil {
			fmt.Printf(" -> report: link %v confirmed=%v (probes %d/%d failed)",
				out.Report.SuspectLink, out.Report.Confirmed,
				out.Report.ProbesFailed, out.Report.ProbesSent)
		}
		fmt.Println()
	}

	// --- Response: quorum reached, isolate the accused pair. ---
	blacklist := coordinator.Blacklist()
	fmt.Printf("\ncoordinator blacklist (quorum %d): %v\n", coordinator.Quorum, blacklist)
	if len(blacklist) == 0 {
		fmt.Println("no quorum; nothing to isolate")
		return
	}

	sc.Teardown() // isolation severs the tunnel...
	fmt.Println("\nattackers isolated (neighbors refuse their traffic); rediscovering routes:")
	d := samnet.DiscoverMRAvoiding(net, coordinator.BlacklistSet(), net.SrcPool[0], net.DstPool[len(net.DstPool)-1], 999)
	clean := 0
	for _, r := range d.Routes {
		uses := false
		for _, bad := range blacklist {
			if r.Contains(bad) {
				uses = true
			}
		}
		if !uses {
			clean++
		}
	}
	fmt.Printf("  %d routes found, %d/%d avoid every blacklisted node\n", len(d.Routes), clean, len(d.Routes))

	// Output:
	// trained profile "cluster-1tier/MR" over 30 runs: pmax n=30 mean=0.0890 std=0.0176 min=0.0580 max=0.1212 | phi n=30 mean=0.0486 std=0.0636 min=0.0000 max=0.1667
	//
	// wormhole active: link 9-32, payload behaviour blackhole
	//
	// agent@26: 9 routes, verdict=attacked lambda=0.000 -> report: link 9-32 confirmed=true (probes 3/3 failed)
	// agent@27: 24 routes, verdict=suspicious lambda=0.275 -> report: link 9-32 confirmed=true (probes 3/3 failed)
	// agent@28: 6 routes, verdict=attacked lambda=0.000 -> report: link 9-32 confirmed=true (probes 3/3 failed)
	//
	// coordinator blacklist (quorum 2): [9 32]
	//
	// attackers isolated (neighbors refuse their traffic); rediscovering routes:
	//   8 routes found, 8/8 avoid every blacklisted node
}
