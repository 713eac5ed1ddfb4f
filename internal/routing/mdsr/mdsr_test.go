package mdsr

import (
	"testing"

	"samnet/internal/routing"
	"samnet/internal/routing/mr"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

func TestPruneDisjoint(t *testing.T) {
	primary := routing.Route{0, 1, 2, 9}
	overlap := routing.Route{0, 1, 3, 9} // shares link 0-1
	disjoint := routing.Route{0, 4, 5, 9}
	// Note: link (0,4) vs primary's (0,1): disjoint shares node 0 but no
	// link — MDSR requires link-disjointness only.
	got := pruneDisjoint([]routing.Route{primary, overlap, disjoint}, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("kept routes %v, want [0 2] (primary, disjoint)", got)
	}
}

func TestPruneDisjointCap(t *testing.T) {
	routes := []routing.Route{
		{0, 1, 9},
		{0, 2, 9},
		{0, 3, 9},
		{0, 4, 9},
	}
	got := pruneDisjoint(routes, 1)
	if len(got) != 2 { // primary + one alternate
		t.Fatalf("kept %d routes, want 2", len(got))
	}
	if got := pruneDisjoint(nil, 3); got != nil {
		t.Error("empty input should stay empty")
	}
}

func TestDiscoverRoutesAreLinkDisjoint(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 0)
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 1})
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	d := (&Protocol{}).Discover(s, src, dst)
	if len(d.Routes) == 0 {
		t.Fatal("no routes")
	}
	for i, a := range d.Routes {
		for _, b := range d.Routes[i+1:] {
			if a.SharedLinks(b) > 0 {
				t.Errorf("routes %v and %v share links", a, b)
			}
		}
	}
}

func TestMDSRNoMoreRoutesThanMR(t *testing.T) {
	// The paper: "MDSR does not [provide more candidate routes]" — so it
	// should never beat MR's route count on the same run.
	net := topology.Uniform(6, 6, 1, 0)
	for seed := uint64(1); seed <= 5; seed++ {
		src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
		sm := sim.NewNetwork(net.Topo, sim.Config{Seed: seed})
		dm := (&Protocol{}).Discover(sm, src, dst)
		sr := sim.NewNetwork(net.Topo, sim.Config{Seed: seed})
		dr := (&mr.Protocol{}).Discover(sr, src, dst)
		if len(dm.Routes) > len(dr.Routes) {
			t.Errorf("seed %d: MDSR %d routes > MR %d", seed, len(dm.Routes), len(dr.Routes))
		}
	}
}

func TestRepliesDelivered(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 0)
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 2})
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	d := (&Protocol{}).Discover(s, src, dst)
	if len(d.Replies) != len(d.Routes) {
		t.Errorf("replies %d != routes %d", len(d.Replies), len(d.Routes))
	}
}

func TestName(t *testing.T) {
	if (&Protocol{}).Name() != "MDSR" {
		t.Error("name")
	}
}
