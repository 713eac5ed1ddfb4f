package mr

import (
	"testing"

	"samnet/internal/attack"
	"samnet/internal/geom"
	"samnet/internal/routing"
	"samnet/internal/routing/dsr"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

func discover(t *testing.T, p routing.Protocol, net *topology.Network, seed uint64) *routing.Discovery {
	t.Helper()
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: seed})
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	return p.Discover(s, src, dst)
}

func TestMRFindsMultipleRoutes(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 0)
	d := discover(t, &Protocol{}, net, 1)
	if len(d.Routes) < 2 {
		t.Fatalf("MR found %d routes, want several", len(d.Routes))
	}
	for _, r := range d.Routes {
		if !r.Simple() || !r.Valid(net.Topo) {
			t.Errorf("bad route %v", r)
		}
	}
}

func TestMRFindsMoreRoutesThanDSR(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 0)
	dMR := discover(t, &Protocol{}, net, 1)
	dDSR := discover(t, &dsr.Protocol{}, net, 1)
	if len(dMR.Routes) <= len(dDSR.Routes) {
		t.Errorf("MR %d routes <= DSR %d routes", len(dMR.Routes), len(dDSR.Routes))
	}
}

func TestMRFindsAtLeastAsManyRoutesAsSMR(t *testing.T) {
	// The paper: MR "may find more routes than SMR" because it ignores the
	// incoming-link restriction.
	net := topology.Uniform(6, 6, 1, 0)
	for seed := uint64(1); seed <= 5; seed++ {
		mr := discover(t, &Protocol{}, net, seed)
		smr := discover(t, &Protocol{IncomingLinkRule: true}, net, seed)
		if len(mr.Routes) < len(smr.Routes) {
			t.Errorf("seed %d: MR %d routes < SMR %d", seed, len(mr.Routes), len(smr.Routes))
		}
	}
}

func TestMROverheadAboutTwiceDSR(t *testing.T) {
	// Table II's shape: MR route-discovery overhead is "more than twice"
	// DSR's on average, but in the same ballpark (not an order of
	// magnitude).
	for _, build := range []func() *topology.Network{
		func() *topology.Network { return topology.Cluster(1, 0) },
		func() *topology.Network { return topology.Uniform(6, 6, 1, 0) },
	} {
		net := build()
		var mrOv, dsrOv int64
		for seed := uint64(1); seed <= 5; seed++ {
			mrOv += discover(t, &Protocol{}, net, seed).Overhead()
			dsrOv += discover(t, &dsr.Protocol{}, net, seed).Overhead()
		}
		ratio := float64(mrOv) / float64(dsrOv)
		if ratio < 1.5 || ratio > 5 {
			t.Errorf("%s: MR/DSR overhead ratio = %.2f, want within [1.5,5]", net.Topo.Name(), ratio)
		}
	}
}

func TestMRNameVariants(t *testing.T) {
	if (&Protocol{}).Name() != "MR" {
		t.Error("default name should be MR")
	}
	if (&Protocol{IncomingLinkRule: true}).Name() != "SMR" {
		t.Error("strict variant should be SMR")
	}
}

// ruleVerdicts asks p's rule about live request copies under a fixed node
// state, as seen by a node with neighbor from. A 7-node line flooded with
// DSR's rule offers copies of 0 to 4 hops; the verdicts are keyed by hops.
func ruleVerdicts(p *Protocol, from topology.NodeID, st routing.NodeState) map[int]bool {
	topo := topology.New("line", 1.001)
	for x := 0; x < 7; x++ {
		topo.AddNode(geom.Pt(float64(x), 0))
	}
	got := map[int]bool{}
	routing.RunDiscovery(sim.NewNetwork(topo, sim.Config{Seed: 1}), 0, 6, routing.FloodConfig{
		Name: "t",
		Rule: func(_, _ topology.NodeID, q *routing.RREQ, own *routing.NodeState) bool {
			fixed := st
			got[q.Hops()] = p.rule(9, from, q, &fixed)
			return !own.Seen
		},
		SuppressReplies: true,
	})
	return got
}

func TestMRDuplicateHopRule(t *testing.T) {
	got := ruleVerdicts(&Protocol{}, 8, routing.NodeState{Seen: true, FirstHops: 3, FirstFrom: 7})
	if got[4] {
		t.Error("duplicate longer than first must be dropped")
	}
	if !got[3] {
		t.Error("duplicate with equal hop count must be forwarded")
	}
}

func TestSMRRequiresDifferentIncomingLink(t *testing.T) {
	p := &Protocol{IncomingLinkRule: true}
	st := routing.NodeState{Seen: true, FirstHops: 3, FirstFrom: 7}
	if ruleVerdicts(p, 7, st)[2] {
		t.Error("SMR must drop duplicates from the first link")
	}
	if !ruleVerdicts(p, 8, st)[2] {
		t.Error("SMR must forward duplicates from other links")
	}
}

func TestMRRepliesAreDisjointSelection(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 0)
	d := discover(t, &Protocol{}, net, 3)
	if len(d.Replies) == 0 || len(d.Replies) > 2 {
		t.Fatalf("replies = %d", len(d.Replies))
	}
}

func TestMRWormholeAttractsRoutes(t *testing.T) {
	net := topology.Cluster(1, 1)
	sc := attack.NewScenario(net, 1, attack.Forward)
	defer sc.Teardown()
	d := discover(t, &Protocol{}, net, 1)
	if got := d.AffectedBy(sc.TunnelLinks()[0]); got != 1.0 {
		t.Errorf("cluster affected fraction = %v, want 1.0 (Table I)", got)
	}
}

func TestMRDeterministicPerSeed(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 0)
	a := discover(t, &Protocol{}, net, 7)
	b := discover(t, &Protocol{}, net, 7)
	if len(a.Routes) != len(b.Routes) {
		t.Fatal("route counts differ across identical seeds")
	}
	for i := range a.Routes {
		if !a.Routes[i].Equal(b.Routes[i]) {
			t.Fatal("routes differ across identical seeds")
		}
	}
	if a.Overhead() != b.Overhead() {
		t.Error("overhead differs across identical seeds")
	}
}
