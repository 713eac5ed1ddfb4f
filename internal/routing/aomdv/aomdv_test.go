package aomdv

import (
	"testing"

	"samnet/internal/attack"
	"samnet/internal/sam"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

func TestTableAcceptRules(t *testing.T) {
	var tab Table
	if !tab.Accept(5, 3) {
		t.Fatal("first path must be accepted")
	}
	if tab.Advertised != 3 {
		t.Errorf("advertised = %d", tab.Advertised)
	}
	if tab.Accept(5, 3) {
		t.Error("same next hop must be rejected")
	}
	if !tab.Accept(6, 3) {
		t.Error("equal-hop alternate via new neighbor must be accepted")
	}
	if tab.Accept(7, 4) {
		t.Error("longer-than-advertised path must be rejected")
	}
	if !tab.Accept(8, 2) {
		t.Error("shorter alternate must be accepted")
	}
	if len(tab.Entries) != 3 {
		t.Errorf("entries = %d", len(tab.Entries))
	}
}

func TestTableBest(t *testing.T) {
	var tab Table
	if _, ok := tab.Best(); ok {
		t.Error("empty table should have no best")
	}
	tab.Accept(5, 3)
	tab.Accept(6, 2)
	best, ok := tab.Best()
	if !ok || best.NextHop != 6 || best.Hops != 2 {
		t.Errorf("best = %+v", best)
	}
}

func TestDiscoverFindsMultipleDisjointishRoutes(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 0)
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 1})
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	d := (&Protocol{}).Discover(s, src, dst)
	if len(d.Routes) < 2 {
		t.Fatalf("AOMDV found %d routes, want >= 2", len(d.Routes))
	}
	seen := map[[2]topology.NodeID]bool{}
	for _, r := range d.Routes {
		if !r.Simple() || !r.Valid(net.Topo) {
			t.Errorf("bad route %v", r)
		}
		key := [2]topology.NodeID{r[1], r[len(r)-2]}
		if seen[key] {
			t.Errorf("two routes share entry/exit pair %v", key)
		}
		seen[key] = true
	}
}

func TestMaxRoutesCap(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 0)
	for seed := uint64(1); seed <= 10; seed++ {
		s := sim.NewNetwork(net.Topo, sim.Config{Seed: seed})
		src, dst := net.SrcPool[1], net.DstPool[len(net.DstPool)-2]
		if d := (&Protocol{}).Discover(s, src, dst); len(d.Routes) > maxRoutes || len(d.Times) != len(d.Routes) {
			t.Errorf("seed %d: %d routes, %d times, cap %d", seed, len(d.Routes), len(d.Times), maxRoutes)
		}
		s.Reset(seed)
		if d := (&Protocol{SinglePath: true}).Discover(s, src, dst); len(d.Routes) != 1 {
			t.Errorf("seed %d: AODV kept %d routes, want 1", seed, len(d.Routes))
		}
	}
}

func TestReverseTablesLoopFree(t *testing.T) {
	// Property: in every node's table, following any stored next hop leads
	// to a node whose own best distance to the source is strictly smaller,
	// so next-hop chains terminate at the source.
	net := topology.Uniform(10, 6, 1, 0)
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 3})
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	_, tables := (&Protocol{}).discover(s, src, dst)
	built := 0
	for id, tab := range tables {
		if len(tab.Entries) > 0 {
			built++
		}
		for _, e := range tab.Entries {
			if e.Hops > tab.Advertised {
				t.Fatalf("node %d stores entry longer than advertised: %+v vs %d", id, e, tab.Advertised)
			}
			if e.NextHop == src {
				continue // one hop from the source: chain ends
			}
			nb, ok := tables[e.NextHop].Best()
			if !ok {
				t.Fatalf("node %d next hop %d has no table", id, e.NextHop)
			}
			if nb.Hops >= e.Hops {
				t.Fatalf("loop risk: node %d entry %+v but next hop's best is %d hops", id, e, nb.Hops)
			}
		}
	}
	if built == 0 {
		t.Fatal("no reverse tables built")
	}
}

func TestRepliesReachSource(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 0)
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 4})
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	d := (&Protocol{}).Discover(s, src, dst)
	if len(d.Replies) == 0 {
		t.Fatal("no RREPs made it back over the distance-vector reverse paths")
	}
	if len(d.Replies) > len(d.Routes) {
		t.Errorf("more replies (%d) than routes (%d)", len(d.Replies), len(d.Routes))
	}
}

func TestWormholeCapturesAOMDVRoutes(t *testing.T) {
	net := topology.Cluster(1, 1)
	sc := attack.NewScenario(net, 1, attack.Forward)
	defer sc.Teardown()
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 5})
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	d := (&Protocol{}).Discover(s, src, dst)
	if len(d.Routes) == 0 {
		t.Fatal("no routes")
	}
	if got := d.AffectedBy(sc.TunnelLinks()[0]); got == 0 {
		t.Error("wormhole attracted no AOMDV routes")
	}
	st := sam.Analyze(d.Routes)
	if st.PMax == 0 {
		t.Error("no statistics")
	}
}

func TestName(t *testing.T) {
	if (&Protocol{}).Name() != "AOMDV" {
		t.Error("name")
	}
}
