package examples_test

import (
	"fmt"

	"samnet"
)

// Multiple wormholes (paper Sec. III.D, Fig. 15): two simultaneous
// wormholes in the cluster topology, detected and localized per tunnel with
// the outlier-link statistic.
func Example_multiwormhole() {
	net := samnet.NewCluster(1, 2)
	fmt.Printf("cluster topology with %d embedded attacker pairs\n", len(net.AttackerPairs))

	// Baseline: what does p_max look like without any attack?
	src := net.SrcPool[2]
	dst := net.DstPool[len(net.DstPool)-3]
	base := samnet.Analyze(samnet.DiscoverMR(net, src, dst, 11).Routes)
	fmt.Printf("normal:        p_max=%.3f phi=%.3f (%d routes)\n", base.PMax, base.Phi, base.Routes)

	for _, worms := range []int{1, 2} {
		sc := samnet.Attack(net, worms, samnet.BehaviorGreyhole)
		tunnels := sc.TunnelLinks()
		fmt.Printf("%d wormhole(s): tunnels=%v\n", worms, tunnels)

		// Two tunnels compete for routes: whichever shortcut wins for a
		// given source/destination pair captures that discovery, so
		// localizing both needs several discoveries — which is exactly how
		// a deployed IDS sees the network over time.
		localized := map[samnet.Link]bool{}
		for run := 0; run < 6; run++ {
			s := net.SrcPool[(2+run*3)%len(net.SrcPool)]
			t := net.DstPool[(run*5+1)%len(net.DstPool)]
			st := samnet.Analyze(samnet.DiscoverMRUnderAttack(net, sc, s, t, uint64(20+run)).Routes)
			mark := ""
			for _, tl := range tunnels {
				if st.Suspect == tl {
					localized[tl] = true
					mark = "  <- accused the tunnel"
				}
			}
			fmt.Printf("  run %d: src=%2d dst=%2d p_max=%.3f suspect=%v%s\n",
				run+1, s, t, st.PMax, st.Suspect, mark)
		}
		fmt.Printf("  localized %d/%d tunnels across runs\n\n", len(localized), len(tunnels))
		sc.Teardown()
	}

	// Output:
	// cluster topology with 2 embedded attacker pairs
	// normal:        p_max=0.072 phi=0.000 (13 routes)
	// 1 wormhole(s): tunnels=[9-32]
	//   run 1: src= 2 dst=27 p_max=0.143 suspect=9-32  <- accused the tunnel
	//   run 2: src= 5 dst=33 p_max=0.231 suspect=9-32  <- accused the tunnel
	//   run 3: src=10 dst=39 p_max=0.167 suspect=9-32  <- accused the tunnel
	//   run 4: src=13 dst=28 p_max=0.231 suspect=9-32  <- accused the tunnel
	//   run 5: src= 0 dst=34 p_max=0.128 suspect=9-32  <- accused the tunnel
	//   run 6: src= 3 dst=40 p_max=0.120 suspect=9-32  <- accused the tunnel
	//   localized 1/1 tunnels across runs
	//
	// 2 wormhole(s): tunnels=[9-32 6-35]
	//   run 1: src= 2 dst=27 p_max=0.152 suspect=2-6
	//   run 2: src= 5 dst=33 p_max=0.167 suspect=9-32  <- accused the tunnel
	//   run 3: src=10 dst=39 p_max=0.167 suspect=6-35  <- accused the tunnel
	//   run 4: src=13 dst=28 p_max=0.231 suspect=9-32  <- accused the tunnel
	//   run 5: src= 0 dst=34 p_max=0.115 suspect=6-35  <- accused the tunnel
	//   run 6: src= 3 dst=40 p_max=0.176 suspect=6-35  <- accused the tunnel
	//   localized 2/2 tunnels across runs
}
