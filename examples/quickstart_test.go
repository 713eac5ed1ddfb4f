// Package examples_test holds the library-surface examples. Each is an
// Example function whose printed output `go test` compares line for line
// against the Output comment that ends it, so every claim an example prints
// is checked. Run one and see its output with
//
//	go test -v -run Example_quickstart ./examples
package examples_test

import (
	"fmt"

	"samnet"
)

// Quickstart: build the paper's cluster topology, run one multi-path route
// discovery with and without a wormhole, and watch SAM's statistics jump.
func Example_quickstart() {
	// The paper's 2-cluster system at 1-tier range, with one (inactive)
	// attacker pair embedded.
	net := samnet.NewCluster(1, 1)
	src := net.SrcPool[0]
	dst := net.DstPool[len(net.DstPool)-1]
	fmt.Printf("cluster topology: %d nodes, src=%d dst=%d\n", net.Topo.N(), src, dst)

	// Normal condition.
	normal := samnet.DiscoverMR(net, src, dst, 1)
	ns := samnet.Analyze(normal.Routes)
	fmt.Printf("\nnormal:   %d routes, p_max=%.3f phi=%.3f\n", len(normal.Routes), ns.PMax, ns.Phi)
	for _, r := range normal.Routes {
		fmt.Println("   ", r)
	}

	// Activate the wormhole: the attacker pair tunnels RREQs over a link
	// that shortcuts ~10 normal hops.
	sc := samnet.Attack(net, 1, samnet.BehaviorForward)
	defer sc.Teardown()
	tunnel := sc.TunnelLinks()[0]
	fmt.Printf("\nwormhole active on link %v (spans %d normal hops)\n", tunnel, net.TunnelSpan(0))

	attacked := samnet.DiscoverMR(net, src, dst, 1)
	as := samnet.Analyze(attacked.Routes)
	fmt.Printf("\nattacked: %d routes, p_max=%.3f phi=%.3f\n", len(attacked.Routes), as.PMax, as.Phi)
	for _, r := range attacked.Routes {
		fmt.Println("   ", r)
	}

	fmt.Printf("\naffected routes: %.0f%% (paper: 100%% in cluster topology)\n",
		100*attacked.AffectedBy(tunnel))
	fmt.Printf("SAM's accused link: %v — actual tunnel: %v\n", as.Suspect, tunnel)
	if as.Suspect == tunnel {
		fmt.Println("localization: correct, the statistics alone found the attacker pair")
	}

	// Output:
	// cluster topology: 42 nodes, src=0 dst=41
	//
	// normal:   12 routes, p_max=0.056 phi=0.000
	//     0>4>5>9>13>16>18>20>22>23>25>28>32>33>37>41
	//     0>4>5>9>13>16>18>20>22>23>25>28>32>36>37>41
	//     0>4>5>9>13>16>18>20>22>23>25>28>32>36>40>41
	//     0>4>5>9>13>16>18>20>22>23>25>28>29>33>37>41
	//     0>1>5>6>10>14>17>19>21>23>25>28>32>36>37>41
	//     0>4>5>9>13>16>18>20>22>24>25>28>32>33>37>41
	//     0>4>5>9>13>16>18>20>22>24>25>28>32>36>40>41
	//     0>4>5>9>13>16>18>20>22>24>25>28>32>36>37>41
	//     0>1>5>6>10>14>17>19>21>23>25>28>32>36>40>41
	//     0>4>5>6>10>14>17>19>21>23>25>28>32>36>40>41
	//     0>4>5>9>13>16>18>20>22>24>27>31>35>39>40>41
	//     0>4>5>9>13>16>18>20>22>24>27>31>35>36>40>41
	//
	// wormhole active on link 9-32 (spans 9 normal hops)
	//
	// attacked: 9 routes, p_max=0.143 phi=0.333
	//     0>4>8>9>32>36>40>41
	//     0>4>8>9>32>36>37>41
	//     0>4>5>9>32>33>37>41
	//     0>4>5>9>32>36>37>41
	//     0>1>5>9>32>36>40>41
	//     0>4>5>9>32>36>40>41
	//     0>4>8>9>32>33>37>41
	//     0>1>5>9>32>36>37>41
	//     0>1>5>9>32>33>37>41
	//
	// affected routes: 100% (paper: 100% in cluster topology)
	// SAM's accused link: 9-32 — actual tunnel: 9-32
	// localization: correct, the statistics alone found the attacker pair
}
