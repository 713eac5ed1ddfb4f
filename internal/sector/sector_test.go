package sector

import (
	"math/rand/v2"
	"testing"

	"samnet/internal/attack"
	"samnet/internal/topology"
)

func TestCheckAcceptsLegitimateNeighbors(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 0)
	p := New(net.Topo, Config{}, rand.New(rand.NewPCG(1, 1)))
	for i := 0; i < net.Topo.N(); i++ {
		id := topology.NodeID(i)
		for _, nb := range net.Topo.Neighbors(id) {
			if d := p.Measure(id, nb); d > p.Bound() {
				t.Fatalf("distance bounding measured legitimate link %d-%d at %v, over the bound %v", id, nb, d, p.Bound())
			}
		}
	}
}

func TestCheckFlagsTunnel(t *testing.T) {
	net := topology.Cluster(1, 1)
	sc := attack.NewScenario(net, 1, attack.Forward)
	defer sc.Teardown()
	p := New(net.Topo, Config{}, rand.New(rand.NewPCG(2, 2)))
	w := sc.Tunnels[0]
	if d := p.Measure(w.A, w.B); d <= p.Bound() {
		t.Errorf("distance bounding measured a multi-hop tunnel at %v, within the bound %v", d, p.Bound())
	}
}

func TestSweepNeighborsFindsExactlyTheTunnel(t *testing.T) {
	net := topology.Cluster(1, 1)
	sc := attack.NewScenario(net, 1, attack.Forward)
	defer sc.Teardown()
	p := New(net.Topo, Config{}, rand.New(rand.NewPCG(3, 3)))
	flagged := p.SweepNeighbors()
	if len(flagged) != 1 {
		t.Fatalf("flagged %d links, want exactly the tunnel: %v", len(flagged), flagged)
	}
	if _, ok := flagged[sc.TunnelLinks()[0]]; !ok {
		t.Errorf("flagged the wrong link: %v", flagged)
	}
}

func TestSweepCleanNetworkFlagsNothing(t *testing.T) {
	net := topology.Uniform(10, 6, 1, 0)
	p := New(net.Topo, Config{}, rand.New(rand.NewPCG(4, 4)))
	if flagged := p.SweepNeighbors(); len(flagged) != 0 {
		t.Errorf("false positives: %v", flagged)
	}
	if p.Checked == 0 {
		t.Error("sweep measured nothing")
	}
}

func TestMeasureInflatesByAtMostProcessingError(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 0)
	cfg := Config{ProcessingError: 0.2}
	p := New(net.Topo, cfg, rand.New(rand.NewPCG(5, 5)))
	a := net.SrcPool[0]
	b := net.Topo.Neighbors(a)[0]
	truth := net.Topo.Pos(a).Dist(net.Topo.Pos(b))
	for i := 0; i < 100; i++ {
		d := p.Measure(a, b)
		if d < truth || d > truth+cfg.ProcessingError+1e-9 {
			t.Fatalf("measurement %v outside [%v, %v]", d, truth, truth+cfg.ProcessingError)
		}
	}
}

func TestBoundGrowsWithError(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 0)
	rng := rand.New(rand.NewPCG(6, 6))
	tight := New(net.Topo, Config{ProcessingError: 0.01}, rng)
	loose := New(net.Topo, Config{ProcessingError: 0.9}, rng)
	if tight.Bound() >= loose.Bound() {
		t.Error("bound should grow with processing error")
	}
}
