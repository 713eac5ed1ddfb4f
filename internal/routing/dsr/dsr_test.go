package dsr

import (
	"testing"

	"samnet/internal/attack"
	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

func discover(t *testing.T, p routing.Protocol, net *topology.Network, seed uint64) *routing.Discovery {
	t.Helper()
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: seed})
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	return p.Discover(s, src, dst)
}

func TestDSREachNodeForwardsOnce(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 0)
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 1})
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	routing.RunDiscovery(s, src, dst, routing.FloodConfig{Name: "DSR", Rule: rule, SuppressReplies: true})
	for i := 0; i < net.Topo.N(); i++ {
		id := topology.NodeID(i)
		if id == src {
			continue
		}
		if got := s.TxCount(id); got > 1 {
			t.Errorf("node %d transmitted %d times; DSR forwards each request once", id, got)
		}
	}
}

func TestDSRRoutesValid(t *testing.T) {
	net := topology.Cluster(1, 0)
	d := discover(t, &Protocol{}, net, 2)
	if len(d.Routes) == 0 {
		t.Fatal("no routes found")
	}
	for _, r := range d.Routes {
		if !r.Simple() || !r.Valid(net.Topo) {
			t.Errorf("bad route %v", r)
		}
	}
}

func TestDSRRepliesToEveryCollectedRoute(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 0)
	d := discover(t, &Protocol{}, net, 3)
	if len(d.Replies) != len(d.Routes) {
		t.Errorf("DSR replied to %d of %d routes", len(d.Replies), len(d.Routes))
	}
}

func TestDSRWormholeAttractsAllClusterRoutes(t *testing.T) {
	net := topology.Cluster(1, 1)
	sc := attack.NewScenario(net, 1, attack.Forward)
	defer sc.Teardown()
	d := discover(t, &Protocol{}, net, 1)
	if got := d.AffectedBy(sc.TunnelLinks()[0]); got != 1.0 {
		t.Errorf("cluster DSR affected = %v, want 1.0 (Table I)", got)
	}
}

func TestDSRName(t *testing.T) {
	if (&Protocol{}).Name() != "DSR" {
		t.Error("name")
	}
}

func TestDSRRouteCountBoundedByDegree(t *testing.T) {
	// Every DSR route arrives via a distinct last hop (each neighbor of the
	// destination forwards at most once), so |R| <= deg(dst).
	net := topology.Uniform(6, 6, 1, 0)
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 4})
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	d := (&Protocol{}).Discover(s, src, dst)
	if len(d.Routes) > net.Topo.Degree(dst) {
		t.Errorf("%d routes exceed dst degree %d", len(d.Routes), net.Topo.Degree(dst))
	}
}
