package attack

import (
	"testing"

	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// TestTeardownRearmRoundTrip is the regression test for the tunnel-less
// teardown bug: a rushing scenario's handles never installed a link, so its
// Teardown must not rip out a tunnel some other scenario owns on the same
// pair — and the surviving scenario must still arm and tear down correctly.
func TestTeardownRearmRoundTrip(t *testing.T) {
	net := topology.Cluster(1, 1)
	p := net.AttackerPairs[0]

	tunneled := NewScenario(net, 1, Forward)
	rushing := NewRushingScenario(net, 1, 0.3, Forward)

	// The rushing scenario shares the attacker pair but owns no link.
	rushing.Teardown()
	if !net.Topo.Adjacent(p[0], p[1]) {
		t.Fatal("tearing down the tunnel-less scenario removed the other scenario's tunnel")
	}

	// The surviving scenario re-arms on a fresh simulation and still owns
	// its tunnel end to end.
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 1})
	tunneled.Arm(s)
	if !tunneled.Tunnels[0].Installed() {
		t.Error("surviving tunnel lost its installed mark")
	}
	tunneled.Teardown()
	if net.Topo.Adjacent(p[0], p[1]) {
		t.Error("owning scenario's teardown should remove the tunnel")
	}
	if len(net.Topo.ExtraLinks()) != 0 {
		t.Errorf("extra links remain: %v", net.Topo.ExtraLinks())
	}
}

func TestRemoveIsIdempotent(t *testing.T) {
	net := topology.Cluster(1, 1)
	p := net.AttackerPairs[0]
	w := Install(net.Topo, p[0], p[1])
	w.Remove()
	// A second install by someone else must survive the stale handle's
	// repeated Remove.
	w2 := Install(net.Topo, p[0], p[1])
	w.Remove()
	if !net.Topo.Adjacent(p[0], p[1]) {
		t.Error("stale handle's second Remove deleted a link it does not own")
	}
	w2.Remove()
	if w2.Installed() {
		t.Error("Installed should report false after Remove")
	}
}

func TestNamedVariantsConstructAndTearDown(t *testing.T) {
	for _, name := range Variants() {
		net := topology.Cluster(1, 2)
		sc, err := Named(name, net, Forward)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sc.MaliciousNodes()) < 2 {
			t.Errorf("%s: no malicious nodes", name)
		}
		s := sim.NewNetwork(net.Topo, sim.Config{Seed: 1})
		sc.Arm(s)
		sc.Teardown()
		if len(net.Topo.ExtraLinks()) != 0 {
			t.Errorf("%s: teardown left extra links %v", name, net.Topo.ExtraLinks())
		}
	}
	if _, err := Named("nope", topology.Cluster(1, 1), Forward); err == nil {
		t.Error("unknown variant should error")
	}
}

func TestChainScenarioShape(t *testing.T) {
	net := topology.Cluster(1, 1)
	sc := NewChainScenario(net, DefaultChainRelays, DefaultChainDelay, Forward)
	defer sc.Teardown()

	if len(sc.Tunnels) != DefaultChainRelays+1 {
		t.Fatalf("chain links = %d, want %d", len(sc.Tunnels), DefaultChainRelays+1)
	}
	mal := sc.MaliciousNodes()
	if len(mal) != DefaultChainRelays+2 {
		t.Errorf("colluders = %d, want %d", len(mal), DefaultChainRelays+2)
	}
	// Consecutive tunnels share their relay endpoints (a connected chain).
	for i := 0; i+1 < len(sc.Tunnels); i++ {
		if sc.Tunnels[i].B != sc.Tunnels[i+1].A {
			t.Errorf("chain broken between link %d and %d", i, i+1)
		}
	}
	// Colluders must not be picked as sources or destinations.
	for _, pool := range [][]topology.NodeID{net.SrcPool, net.DstPool} {
		for _, id := range pool {
			if mal[id] {
				t.Errorf("colluder %d still in a traffic pool", id)
			}
		}
	}
}

func TestAdaptiveThrottleCapsTunnelRREQs(t *testing.T) {
	net := topology.Cluster(1, 1)
	sc := NewAdaptiveScenario(net, 1, Forward)
	defer sc.Teardown()
	if sc.ReqBudget != 1 || sc.TunnelDelay <= 0 {
		t.Fatalf("adaptive defaults: budget=%d delay=%v", sc.ReqBudget, sc.TunnelDelay)
	}

	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 1})
	sc.Arm(s) // wires the throttle into the live network
	pass := func(*sim.Network, topology.NodeID, topology.NodeID, sim.Packet) bool { return false }
	drop := sc.throttleRREQ(pass)
	w := sc.Tunnels[0]
	q := &routing.RREQ{ReqID: 7}
	if drop(s, w.A, w.B, q) {
		t.Error("first tunneled copy must pass (that is the budget)")
	}
	if !drop(s, w.B, w.A, q) {
		t.Error("second crossing of the same request must die at the tunnel")
	}
	if drop(s, w.A, w.B, &routing.RREQ{ReqID: 8}) {
		t.Error("a different request has its own budget")
	}
	nb := net.Topo.Neighbors(w.A)[0]
	if drop(s, nb, w.A, q) {
		t.Error("non-tunnel links are not throttled")
	}
}

// TestAdaptiveTunnelDelayIsSpanMinusOne pins the adaptive attacker's tunnel
// latency: one hop less than the normal path it shortcuts, and 1 when no
// tunnel gives it a span to match.
func TestAdaptiveTunnelDelayIsSpanMinusOne(t *testing.T) {
	for _, tier := range []int{1, 2} {
		net := topology.Cluster(tier, 1)
		sc := NewAdaptiveScenario(net, 1, Forward)
		if want := sim.Time(net.TunnelSpan(0) - 1); sc.TunnelDelay != want {
			t.Errorf("tier %d: TunnelDelay = %v, want span-1 = %v", tier, sc.TunnelDelay, want)
		}
		sc.Teardown()
	}
	sc := NewAdaptiveScenario(topology.Cluster(1, 1), 0, Forward)
	if sc.TunnelDelay != 1 || len(sc.Tunnels) != 0 {
		t.Errorf("no tunnels: TunnelDelay = %v with %d tunnels, want 1 with 0", sc.TunnelDelay, len(sc.Tunnels))
	}
}

func TestForgeFuncFabricatesShortRoutes(t *testing.T) {
	net := topology.Cluster(1, 1)
	sc := NewForgeScenario(net, 1, Forward)
	defer sc.Teardown()
	if len(net.Topo.ExtraLinks()) != 0 {
		t.Fatal("forgery must not install a tunnel")
	}

	forge := sc.ForgeFunc()
	self := sc.Tunnels[0].A
	src, dst := net.SrcPool[0], net.DstPool[0]
	prefix := routing.Route{src, self}
	forged := forge(self, src, &routing.RREQ{Src: src, Dst: dst}, prefix)
	if forged == nil {
		t.Fatal("malicious node should forge")
	}
	if len(forged) != len(prefix)+2 || forged[len(forged)-1] != dst {
		t.Fatalf("forged route %v should be prefix + fake relay + dst", forged)
	}
	for i, id := range prefix {
		if forged[i] != id {
			t.Fatalf("forged route %v does not extend prefix %v", forged, prefix)
		}
	}
	if honest := forge(dst, src, &routing.RREQ{Src: src, Dst: dst}, routing.Route{src, dst}); honest != nil {
		t.Error("non-malicious nodes must not forge")
	}
}

func TestLatentScenarioValidation(t *testing.T) {
	net := topology.Cluster(1, 1)
	defer func() {
		if recover() == nil {
			t.Error("non-positive latent delay should panic")
		}
	}()
	NewLatentScenario(net, 1, 0, Forward)
}
