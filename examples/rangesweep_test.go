package examples_test

import (
	"fmt"

	"samnet"
)

// Range sweep: the paper's central geometric claim — "as long as the length
// of the attack link is much longer than the node transmission range,
// wormhole attack will be effective... If the node transmission range grows
// large enough that comparable to the tunneled link between the two
// attackers, then wormhole attack is no longer effective."
//
// Sweep the tier (transmission range) on the cluster topology and watch the
// tunnel's span shrink, the captured route share fall, and SAM's p_max
// signal fade with it.
func Example_rangesweep() {
	fmt.Println("tier  tunnel-span  affected   p_max(normal)  p_max(attack)")
	for tier := 1; tier <= 5; tier++ {
		net := samnet.NewCluster(tier, 1)
		src := net.SrcPool[0]
		dst := net.DstPool[len(net.DstPool)-1]

		var normalP, attackP, affected float64
		const runs = 8
		for seed := uint64(1); seed <= runs; seed++ {
			n := samnet.Analyze(samnet.DiscoverMR(net, src, dst, seed).Routes)
			normalP += n.PMax
		}
		sc := samnet.Attack(net, 1, samnet.BehaviorForward)
		span := net.TunnelSpan(0)
		for seed := uint64(1); seed <= runs; seed++ {
			d := samnet.DiscoverMR(net, src, dst, seed)
			a := samnet.Analyze(d.Routes)
			attackP += a.PMax
			affected += d.AffectedBy(sc.TunnelLinks()[0])
		}
		sc.Teardown()

		fmt.Printf("%4d  %11d  %7.0f%%  %13.3f  %13.3f\n",
			tier, span, 100*affected/runs, normalP/runs, attackP/runs)
	}
	fmt.Println("\nAs the radio range approaches the tunnel's reach, the shortcut stops")
	fmt.Println("winning races, captures fewer routes, and the statistical signal fades —")
	fmt.Println("but so does the attack itself, which is SAM's whole premise: it detects")
	fmt.Println("the attack exactly when the attack is worth detecting.")

	// Output:
	// tier  tunnel-span  affected   p_max(normal)  p_max(attack)
	//    1            9      100%          0.065          0.143
	//    2            5      100%          0.074          0.190
	//    3            3      100%          0.102          0.256
	//    4            3       32%          0.086          0.111
	//    5            2        8%          0.100          0.095
	//
	// As the radio range approaches the tunnel's reach, the shortcut stops
	// winning races, captures fewer routes, and the statistical signal fades —
	// but so does the attack itself, which is SAM's whole premise: it detects
	// the attack exactly when the attack is worth detecting.
}
