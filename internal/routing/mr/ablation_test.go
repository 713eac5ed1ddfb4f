package mr

import (
	"testing"

	"samnet/internal/attack"
	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// ablationDiscover runs one discovery with p's forwarding rule on the
// attacked 1-tier cluster, under a forward budget and destination hop slack
// set directly on the flood. At (maxForwards, routing.DefaultHopSlack) it is
// p.Discover.
func ablationDiscover(seed uint64, p *Protocol, budget, slack int) *routing.Discovery {
	net := topology.Cluster(1, 2)
	sc := attack.NewScenario(net, 1, attack.Forward)
	defer sc.Teardown()
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: seed})
	return routing.RunDiscovery(s, net.SrcPool[0], net.DstPool[len(net.DstPool)-1], routing.FloodConfig{
		Name:        p.Name(),
		Rule:        p.rule,
		MaxForwards: budget,
		HopSlack:    slack,
	})
}

// BenchmarkAblationSMRRule compares the paper's MR duplicate rule against
// strict SMR and against MR without its forward budget (the literal
// unbounded rule): routes found and overhead per discovery.
func BenchmarkAblationSMRRule(b *testing.B) {
	for _, v := range []struct {
		name   string
		p      *Protocol
		budget int
	}{
		{"MR", &Protocol{}, maxForwards},
		{"SMR", &Protocol{IncomingLinkRule: true}, maxForwards},
		{"MR-unbounded", &Protocol{}, 0},
	} {
		b.Run(v.name, func(b *testing.B) {
			var routes, overhead int64
			for i := 0; i < b.N; i++ {
				d := ablationDiscover(uint64(i+1), v.p, v.budget, routing.DefaultHopSlack)
				routes += int64(len(d.Routes))
				overhead += d.Overhead()
			}
			b.ReportMetric(float64(routes)/float64(b.N), "routes/op")
			b.ReportMetric(float64(overhead)/float64(b.N), "traffic/op")
		})
	}
}

// BenchmarkAblationWaitWindow sweeps the destination's collection slack —
// the paper's "certain amount of time" design parameter — from shortest-only
// to unbounded.
func BenchmarkAblationWaitWindow(b *testing.B) {
	for _, v := range []struct {
		name  string
		slack int
	}{
		{"strict", 0},
		{"slack1", 1},
		{"slack2", 2},
		{"unbounded", -1},
	} {
		b.Run(v.name, func(b *testing.B) {
			var routes int64
			for i := 0; i < b.N; i++ {
				d := ablationDiscover(uint64(i+1), &Protocol{}, maxForwards, v.slack)
				routes += int64(len(d.Routes))
			}
			b.ReportMetric(float64(routes)/float64(b.N), "routes/op")
		})
	}
}
