package examples_test

import (
	"cmp"
	"fmt"
	"slices"

	"samnet"
	"samnet/internal/leash"
	"samnet/internal/routing/mr"
	"samnet/internal/sector"
	"samnet/internal/sim"
)

// Baselines: run the two prior-art defenses the paper's related work
// describes — the geographic packet leash and SECTOR's distance bounding —
// side by side with SAM on the same attacked network, and contrast what each
// needs and what each sees.
func Example_leashcompare() {
	net := samnet.NewCluster(1, 1)
	sc := samnet.Attack(net, 1, samnet.BehaviorForward)
	defer sc.Teardown()
	tunnel := sc.TunnelLinks()[0]
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]

	// --- Packet leash: needs GPS + loose clock sync at every node. ---
	// Monitor mode observes every reception without interfering.
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 42})
	checker := leash.New(net.Topo, leash.Config{PosError: 0.1, ClockError: 0.05}, s.Rand())
	tally := checker.Monitor(s, nil)
	disc := (&mr.Protocol{}).Discover(s, src, dst)
	verdict := leash.Summarize(tally)

	fmt.Println("geographic packet leash (requires GPS + clock sync):")
	fmt.Printf("  receptions checked: %d, flagged: %d\n", checker.Checked, checker.Flagged)
	fmt.Printf("  detected: %v, worst link: %v (actual tunnel: %v)\n",
		verdict.Detected, verdict.WorstLink, tunnel)

	// --- SECTOR: distance-bound every neighbor with timed one-bit
	// challenges; needs dedicated response hardware at every node. ---
	prover := sector.New(net.Topo, sector.Config{}, s.Rand())
	flagged := prover.SweepNeighbors()
	fmt.Println("\nSECTOR distance bounding (requires challenge-response hardware):")
	fmt.Printf("  links measured: %d, flagged: %d\n", prover.Checked, len(flagged))
	links := make([]samnet.Link, 0, len(flagged))
	for l := range flagged {
		links = append(links, l)
	}
	slices.SortFunc(links, func(a, b samnet.Link) int {
		return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B))
	})
	for _, l := range links {
		fmt.Printf("  flagged link %v at measured distance %.2f (bound %.2f)\n", l, flagged[l], prover.Bound())
	}

	// --- SAM: needs only the routes the destination already collected. ---
	st := samnet.Analyze(disc.Routes)
	fmt.Println("\nSAM (requires nothing beyond multi-path routing):")
	fmt.Printf("  %d routes, p_max=%.3f phi=%.3f\n", st.Routes, st.PMax, st.Phi)
	fmt.Printf("  accused link: %v (actual tunnel: %v)\n", st.Suspect, tunnel)

	// --- Enforcement: leashes can also prevent, not just detect. ---
	s2 := sim.NewNetwork(net.Topo, sim.Config{Seed: 42})
	checker2 := leash.New(net.Topo, leash.Config{}, s2.Rand())
	checker2.Enforce(s2, nil)
	disc2 := (&mr.Protocol{}).Discover(s2, src, dst)
	fmt.Println("\nwith leashes enforced (tunneled receptions dropped):")
	fmt.Printf("  %d routes, %.0f%% affected by the tunnel (was %.0f%%)\n",
		len(disc2.Routes), 100*disc2.AffectedBy(tunnel), 100*disc.AffectedBy(tunnel))
	fmt.Println("\ntrade-off: the leash and SECTOR detect per packet/link and can prevent,")
	fmt.Println("but every node needs position, time, or challenge-response hardware; SAM")
	fmt.Println("detects per route discovery at the destination with zero infrastructure.")

	// Output:
	// geographic packet leash (requires GPS + clock sync):
	//   receptions checked: 533, flagged: 8
	//   detected: true, worst link: 9-32 (actual tunnel: 9-32)
	//
	// SECTOR distance bounding (requires challenge-response hardware):
	//   links measured: 132, flagged: 1
	//   flagged link 9-32 at measured distance 8.13 (bound 1.15)
	//
	// SAM (requires nothing beyond multi-path routing):
	//   9 routes, p_max=0.143 phi=0.333
	//   accused link: 9-32 (actual tunnel: 9-32)
	//
	// with leashes enforced (tunneled receptions dropped):
	//   12 routes, 0% affected by the tunnel (was 100%)
	//
	// trade-off: the leash and SECTOR detect per packet/link and can prevent,
	// but every node needs position, time, or challenge-response hardware; SAM
	// detects per route discovery at the destination with zero infrastructure.
}
