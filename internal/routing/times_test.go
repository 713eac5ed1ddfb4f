package routing_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"samnet/internal/attack"
	"samnet/internal/routing"
	"samnet/internal/routing/aomdv"
	"samnet/internal/routing/dsr"
	"samnet/internal/routing/mdsr"
	"samnet/internal/routing/mr"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// TestDiscoveryTimesParallelRoutes checks Discovery.Times against its
// documented contract for every protocol that sets it: one positive arrival
// time per route, in arrival order. On a clean network a copy's arrival time
// is the sum of its hops' transmission delays, each in [HopDelay,
// HopDelay+Jitter) = [1, 1.1), which pins Times[i] to Routes[i] itself, not
// merely to a route of the same index.
func TestDiscoveryTimesParallelRoutes(t *testing.T) {
	protocols := []routing.Protocol{
		&mr.Protocol{}, &dsr.Protocol{}, &mdsr.Protocol{},
		&aomdv.Protocol{}, &aomdv.Protocol{SinglePath: true},
	}
	for _, p := range protocols {
		for _, armed := range []bool{false, true} {
			for _, loss := range []float64{0, 0.1} {
				w := 0
				if armed {
					w = 1
				}
				net := topology.Uniform(6, 6, 1, w)
				var sc *attack.Scenario
				if armed {
					sc = attack.NewScenario(net, 1, attack.Forward)
				}
				for seed := uint64(1); seed <= 10; seed++ {
					name := fmt.Sprintf("%s/armed=%v/loss=%v/seed=%d", p.Name(), armed, loss, seed)
					src, dst := net.PickPair(rand.New(rand.NewPCG(seed, 0)))
					s := sim.NewNetwork(net.Topo, sim.Config{Seed: seed, LossRate: loss})
					if sc != nil {
						sc.Arm(s)
					}
					checkTimes(t, name, p.Discover(s, src, dst), !armed)
				}
				if sc != nil {
					sc.Teardown()
				}
			}
		}
	}
}

func checkTimes(t *testing.T, name string, d *routing.Discovery, clean bool) {
	t.Helper()
	if len(d.Times) != len(d.Routes) {
		t.Fatalf("%s: %d times for %d routes", name, len(d.Times), len(d.Routes))
	}
	for i, at := range d.Times {
		if at <= 0 || (i > 0 && at < d.Times[i-1]) {
			t.Errorf("%s: Times[%d] = %v out of arrival order: %v", name, i, at, d.Times)
		}
		if hops := sim.Time(d.Routes[i].Hops()); clean && (at < hops || at >= 1.1*hops) {
			t.Errorf("%s: route %v (%v hops) arrived at %v", name, d.Routes[i], hops, at)
		}
	}
}
