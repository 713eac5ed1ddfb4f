package attack

import (
	"testing"

	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

func TestInstallCreatesTunnel(t *testing.T) {
	net := topology.Cluster(1, 1)
	p := net.AttackerPairs[0]
	if net.Topo.Adjacent(p[0], p[1]) {
		t.Fatal("attackers should not be adjacent before install")
	}
	w := Install(net.Topo, p[0], p[1])
	if !net.Topo.Adjacent(p[0], p[1]) {
		t.Error("tunnel not installed")
	}
	if w.Link() != topology.MkLink(p[0], p[1]) {
		t.Error("Link mismatch")
	}
	w.Remove()
	if net.Topo.Adjacent(p[0], p[1]) {
		t.Error("tunnel not removed")
	}
}

func TestInstallSelfPanics(t *testing.T) {
	net := topology.Cluster(1, 1)
	defer func() {
		if recover() == nil {
			t.Error("self wormhole should panic")
		}
	}()
	Install(net.Topo, 3, 3)
}

func TestInstallPairsCount(t *testing.T) {
	net := topology.Cluster(1, 2)
	ws := InstallPairs(net, 2)
	if len(ws) != 2 {
		t.Fatalf("installed %d tunnels", len(ws))
	}
	if len(net.Topo.ExtraLinks()) != 2 {
		t.Error("topology should carry two tunnels")
	}
	for _, w := range ws {
		w.Remove()
	}
	if len(net.Topo.ExtraLinks()) != 0 {
		t.Error("teardown incomplete")
	}
}

func TestInstallPairsOutOfRangePanics(t *testing.T) {
	net := topology.Cluster(1, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for too many wormholes")
		}
	}()
	InstallPairs(net, 2)
}

func TestScenarioLifecycle(t *testing.T) {
	net := topology.Cluster(1, 2)
	sc := NewScenario(net, 2, Blackhole)
	if len(sc.TunnelLinks()) != 2 {
		t.Error("tunnel links")
	}
	mal := sc.MaliciousNodes()
	if len(mal) != 4 {
		t.Errorf("malicious nodes = %d", len(mal))
	}
	sc.Teardown()
	if len(sc.Tunnels) != 0 || len(net.Topo.ExtraLinks()) != 0 {
		t.Error("teardown failed")
	}
}

func TestBlackholeDropsOnlyPayload(t *testing.T) {
	net := topology.Cluster(1, 1)
	sc := NewScenario(net, 1, Blackhole)
	defer sc.Teardown()
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 1})
	policy := sc.Arm(s)
	drop := policy.Func(s.Rand())

	a1 := sc.Tunnels[0].A
	from := net.Topo.Neighbors(a1)[0]
	if !drop(s, from, a1, &routing.Data{Route: routing.Route{from, a1}, Pos: 1}) {
		t.Error("blackhole should drop data")
	}
	if !drop(s, from, a1, &routing.ACK{Route: routing.Route{from, a1}, Pos: 1}) {
		t.Error("blackhole should drop acks")
	}
	if drop(s, from, a1, &routing.RREQ{}) {
		t.Error("routing traffic must always pass (that is the point of a wormhole)")
	}
	if drop(s, a1, from, &routing.Data{Route: routing.Route{a1, from}, Pos: 1}) {
		t.Error("benign receivers should not drop")
	}
	if policy.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", policy.Dropped)
	}
}

func TestForwardBehaviorNeverDrops(t *testing.T) {
	net := topology.Cluster(1, 1)
	sc := NewScenario(net, 1, Forward)
	defer sc.Teardown()
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 1})
	drop := sc.Arm(s).Func(s.Rand())
	a1 := sc.Tunnels[0].A
	from := net.Topo.Neighbors(a1)[0]
	if drop(s, from, a1, &routing.Data{Route: routing.Route{from, a1}, Pos: 1}) {
		t.Error("forwarding attacker must not drop")
	}
}

func TestGreyholeDropsSometimes(t *testing.T) {
	net := topology.Cluster(1, 1)
	sc := NewScenario(net, 1, Greyhole)
	defer sc.Teardown()
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 1})
	policy := sc.Arm(s)
	drop := policy.Func(s.Rand())
	a1 := sc.Tunnels[0].A
	from := net.Topo.Neighbors(a1)[0]
	dropped := 0
	for i := 0; i < 200; i++ {
		if drop(s, from, a1, &routing.Data{Route: routing.Route{from, a1}, Pos: 1}) {
			dropped++
		}
	}
	if dropped == 0 || dropped == 200 {
		t.Errorf("greyhole dropped %d/200; want something in between", dropped)
	}
	if int64(dropped) != policy.Dropped {
		t.Errorf("counter mismatch: %d vs %d", dropped, policy.Dropped)
	}
}

func TestBehaviorString(t *testing.T) {
	for b, want := range map[PayloadBehavior]string{
		Forward:   "forward",
		Blackhole: "blackhole",
		Greyhole:  "greyhole",
	} {
		if b.String() != want {
			t.Errorf("String(%d) = %q", int(b), b.String())
		}
	}
}

func TestRushingScenario(t *testing.T) {
	net := topology.Cluster(1, 1)
	sc := NewRushingScenario(net, 1, 0.3, Forward)
	if len(net.Topo.ExtraLinks()) != 0 {
		t.Error("rushing must not install a tunnel")
	}
	if len(sc.MaliciousNodes()) != 2 {
		t.Errorf("malicious = %d", len(sc.MaliciousNodes()))
	}
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 1})
	sc.Arm(s) // applies delay factors; must not panic
	sc.Teardown()
}

func TestRushingScenarioValidation(t *testing.T) {
	net := topology.Cluster(1, 1)
	for _, fn := range []func(){
		func() { NewRushingScenario(net, 1, 0, Forward) },
		func() { NewRushingScenario(net, 1, 1.5, Forward) },
		func() { NewRushingScenario(net, 5, 0.3, Forward) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestBehaviorStringUnknown(t *testing.T) {
	if PayloadBehavior(99).String() == "" {
		t.Error("unknown behaviour should still render")
	}
}
