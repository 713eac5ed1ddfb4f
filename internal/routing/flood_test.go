package routing

import (
	"testing"

	"samnet/internal/geom"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// gridTopo builds a cols x rows unit grid at 1-tier.
func gridTopo(cols, rows int) *topology.Topology {
	t := topology.New("grid", 1.001)
	for x := 0; x < cols; x++ {
		for y := 0; y < rows; y++ {
			t.AddNode(geom.Pt(float64(x), float64(y)))
		}
	}
	return t
}

func nodeAt(t *topology.Topology, x, y float64) topology.NodeID {
	for i := 0; i < t.N(); i++ {
		p := t.Pos(topology.NodeID(i))
		if p.X == x && p.Y == y {
			return topology.NodeID(i)
		}
	}
	panic("no node at position")
}

// forwardAll is the unbounded flooding rule (loop-free by construction).
func forwardAll(self, from topology.NodeID, q *RREQ, st *NodeState) bool { return true }

// forwardFirst is DSR's rule.
func forwardFirst(self, from topology.NodeID, q *RREQ, st *NodeState) bool { return !st.Seen }

func TestRunDiscoveryLine(t *testing.T) {
	topo := gridTopo(5, 1)
	net := sim.NewNetwork(topo, sim.Config{Seed: 1})
	d := RunDiscovery(net, 0, 4, FloodConfig{Name: "t", Rule: forwardFirst})
	if len(d.Routes) != 1 {
		t.Fatalf("routes = %v", d.Routes)
	}
	want := Route{0, 1, 2, 3, 4}
	if !d.Routes[0].Equal(want) {
		t.Errorf("route = %v, want %v", d.Routes[0], want)
	}
	if len(d.Times) != 1 || d.Times[0] <= 0 {
		t.Errorf("arrival time not recorded: %v", d.Times)
	}
	if d.Overhead() == 0 {
		t.Error("overhead not counted")
	}
}

func TestRunDiscoveryRoutesAreValidAndSimple(t *testing.T) {
	topo := gridTopo(5, 4)
	net := sim.NewNetwork(topo, sim.Config{Seed: 3})
	src, dst := nodeAt(topo, 0, 0), nodeAt(topo, 4, 3)
	d := RunDiscovery(net, src, dst, FloodConfig{Name: "t", Rule: forwardAll, MaxForwards: 4, HopSlack: 1})
	if len(d.Routes) < 2 {
		t.Fatalf("expected multiple routes, got %d", len(d.Routes))
	}
	for _, r := range d.Routes {
		if r[0] != src || r[len(r)-1] != dst {
			t.Errorf("route endpoints wrong: %v", r)
		}
		if !r.Simple() {
			t.Errorf("route has a loop: %v", r)
		}
		if !r.Valid(topo) {
			t.Errorf("route uses non-adjacent hop: %v", r)
		}
	}
	// No duplicates.
	for i, r := range d.Routes {
		for _, s := range d.Routes[i+1:] {
			if r.Equal(s) {
				t.Errorf("route set contains %v twice", r)
			}
		}
	}
}

func TestHopSlackFiltersLongRoutes(t *testing.T) {
	topo := gridTopo(4, 3)
	src, dst := nodeAt(topo, 0, 0), nodeAt(topo, 3, 2)
	for _, slack := range []int{0, 2} {
		net := sim.NewNetwork(topo, sim.Config{Seed: 2})
		d := RunDiscovery(net, src, dst, FloodConfig{Name: "t", Rule: forwardAll, MaxForwards: 6, HopSlack: slack})
		min := d.Routes[0].Hops()
		for _, r := range d.Routes {
			if r.Hops() < min {
				min = r.Hops()
			}
		}
		for _, r := range d.Routes {
			if r.Hops() > min+slack {
				t.Errorf("slack=%d admitted a %d-hop route (min %d)", slack, r.Hops(), min)
			}
		}
	}
}

func TestMaxForwardsBoundsPerNodeTransmissions(t *testing.T) {
	topo := gridTopo(6, 4)
	src, dst := nodeAt(topo, 0, 0), nodeAt(topo, 5, 3)
	net := sim.NewNetwork(topo, sim.Config{Seed: 4})
	RunDiscovery(net, src, dst, FloodConfig{Name: "t", Rule: forwardAll, MaxForwards: 2, SuppressReplies: true})
	for i := 0; i < topo.N(); i++ {
		id := topology.NodeID(i)
		if id == src {
			continue // the source's single origination is not a forward
		}
		if got := net.TxCount(id); got > 2 {
			t.Errorf("node %d transmitted %d times, budget 2", id, got)
		}
	}
}

func TestRepliesTravelBackToSource(t *testing.T) {
	topo := gridTopo(5, 1)
	net := sim.NewNetwork(topo, sim.Config{Seed: 1})
	d := RunDiscovery(net, 0, 4, FloodConfig{Name: "t", Rule: forwardFirst})
	// A 5-node line has one route, so the destination sends one reply.
	if len(d.Replies) != 1 {
		t.Fatalf("replies = %v", d.Replies)
	}
	if !d.Replies[0].Equal(d.Routes[0]) {
		t.Error("reply route differs from discovered route")
	}
}

func TestSuppressRepliesSkipsRREP(t *testing.T) {
	topo := gridTopo(5, 1)
	netA := sim.NewNetwork(topo, sim.Config{Seed: 1})
	a := RunDiscovery(netA, 0, 4, FloodConfig{Name: "t", Rule: forwardFirst, SuppressReplies: true})
	netB := sim.NewNetwork(topo, sim.Config{Seed: 1})
	b := RunDiscovery(netB, 0, 4, FloodConfig{Name: "t", Rule: forwardFirst})
	if len(a.Replies) != 0 {
		t.Error("suppressed run produced replies")
	}
	if a.Overhead() >= b.Overhead() {
		t.Errorf("suppressed overhead %d should be below reply run %d", a.Overhead(), b.Overhead())
	}
}

func TestDiscoverySameSrcDstPanics(t *testing.T) {
	topo := gridTopo(3, 1)
	net := sim.NewNetwork(topo, sim.Config{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("src==dst should panic")
		}
	}()
	RunDiscovery(net, 1, 1, FloodConfig{Name: "t", Rule: forwardFirst})
}

func TestDiscoveryUnreachableDst(t *testing.T) {
	topo := topology.New("gap", 1.001)
	topo.AddNode(geom.Pt(0, 0))
	topo.AddNode(geom.Pt(1, 0))
	topo.AddNode(geom.Pt(10, 0))
	net := sim.NewNetwork(topo, sim.Config{Seed: 1})
	d := RunDiscovery(net, 0, 2, FloodConfig{Name: "t", Rule: forwardFirst})
	if len(d.Routes) != 0 {
		t.Errorf("routes to unreachable dst: %v", d.Routes)
	}
	if len(d.Times) != 0 {
		t.Errorf("arrival times for unreachable dst: %v", d.Times)
	}
}

func TestProbeRoutesAck(t *testing.T) {
	topo := gridTopo(5, 1)
	net := sim.NewNetwork(topo, sim.Config{Seed: 1})
	route := Route{0, 1, 2, 3, 4}
	res := ProbeRoutes(net, []Route{route})
	if len(res) != 1 || !res[0].Acked {
		t.Errorf("probe should be acked: %+v", res)
	}
}

func TestProbeRoutesBlackholeDropsAck(t *testing.T) {
	topo := gridTopo(5, 1)
	net := sim.NewNetwork(topo, sim.Config{Seed: 1})
	net.SetDropFunc(func(n *sim.Network, from, to topology.NodeID, pkt sim.Packet) bool {
		if to != 2 {
			return false
		}
		switch pkt.(type) {
		case *Data, *ACK:
			return true
		}
		return false
	})
	res := ProbeRoutes(net, []Route{{0, 1, 2, 3, 4}, {0, 1}})
	if res[0].Acked {
		t.Error("probe through blackhole must not be acked")
	}
	if !res[1].Acked {
		t.Error("clean route should be acked")
	}
}

func TestProbeRoutesMultiple(t *testing.T) {
	topo := gridTopo(4, 2)
	net := sim.NewNetwork(topo, sim.Config{Seed: 2})
	src, dst := nodeAt(topo, 0, 0), nodeAt(topo, 3, 1)
	p1 := Route{src, nodeAt(topo, 1, 0), nodeAt(topo, 2, 0), nodeAt(topo, 3, 0), dst}
	p2 := Route{src, nodeAt(topo, 0, 1), nodeAt(topo, 1, 1), nodeAt(topo, 2, 1), dst}
	res := ProbeRoutes(net, []Route{p1, p2})
	for i, r := range res {
		if !r.Acked {
			t.Errorf("probe %d not acked", i)
		}
	}
}

func TestDiscoveryOverheadGrowsWithBudget(t *testing.T) {
	topo := gridTopo(6, 4)
	src, dst := nodeAt(topo, 0, 0), nodeAt(topo, 5, 3)
	var prev int64 = -1
	for _, budget := range []int{1, 3, 6} {
		net := sim.NewNetwork(topo, sim.Config{Seed: 9})
		d := RunDiscovery(net, src, dst, FloodConfig{Name: "t", Rule: forwardAll, MaxForwards: budget, SuppressReplies: true})
		if d.Overhead() < prev {
			t.Errorf("overhead with budget %d (%d) below smaller budget (%d)", budget, d.Overhead(), prev)
		}
		prev = d.Overhead()
	}
}

// TestHopSlackSpectrum pins the three HopSlack regimes: zero keeps only
// routes as short as the first arrival, positive admits bounded detours,
// negative disables the filter entirely.
func TestHopSlackSpectrum(t *testing.T) {
	topo := gridTopo(4, 3)
	src, dst := nodeAt(topo, 0, 0), nodeAt(topo, 3, 2)
	run := func(slack int) *Discovery {
		return RunDiscovery(sim.NewNetwork(topo, sim.Config{Seed: 11}), src, dst,
			FloodConfig{Name: "t", Rule: forwardAll, HopSlack: slack, SuppressReplies: true})
	}
	zero, one, off := run(0), run(1), run(-1)
	first := zero.Routes[0].Hops() // jitter < HopDelay, so the first arrival is min-hop
	for _, r := range zero.Routes {
		if r.Hops() != first {
			t.Errorf("slack 0 admitted a %d-hop route (first %d)", r.Hops(), first)
		}
	}
	for _, r := range one.Routes {
		if r.Hops() > first+1 {
			t.Errorf("slack 1 admitted a %d-hop route (first %d)", r.Hops(), first)
		}
	}
	if len(zero.Routes) > len(one.Routes) || len(one.Routes) > len(off.Routes) {
		t.Errorf("route counts not monotone in slack: %d / %d / %d",
			len(zero.Routes), len(one.Routes), len(off.Routes))
	}
	if len(off.Routes) <= len(zero.Routes) {
		t.Errorf("disabling the filter should admit longer routes: off=%d zero=%d",
			len(off.Routes), len(zero.Routes))
	}
}

// TestMaxForwardsCapOverridesRule pins the cap/rule interaction: the rule is
// consulted on every non-loop copy, but the cap has the final word, so an
// always-forward rule with MaxForwards 1 floods exactly like DSR's
// first-copy-only rule.
func TestMaxForwardsCapOverridesRule(t *testing.T) {
	topo := gridTopo(5, 4)
	src, dst := nodeAt(topo, 0, 0), nodeAt(topo, 4, 3)
	calls := 0
	counting := func(self, from topology.NodeID, q *RREQ, st *NodeState) bool {
		calls++
		return true
	}
	netA := sim.NewNetwork(topo, sim.Config{Seed: 13})
	a := RunDiscovery(netA, src, dst, FloodConfig{Name: "t", Rule: counting, MaxForwards: 1, SuppressReplies: true})
	netB := sim.NewNetwork(topo, sim.Config{Seed: 13})
	b := RunDiscovery(netB, src, dst, FloodConfig{Name: "t", Rule: forwardFirst, SuppressReplies: true})
	if a.Overhead() != b.Overhead() {
		t.Errorf("capped forward-all overhead %d != first-copy rule overhead %d", a.Overhead(), b.Overhead())
	}
	forwards := 0
	for i := 0; i < topo.N(); i++ {
		id := topology.NodeID(i)
		if id == src {
			continue
		}
		if got := netA.TxCount(id); got > 1 {
			t.Errorf("node %d transmitted %d times past the cap", id, got)
		}
		forwards += int(netA.TxCount(id))
	}
	if calls <= forwards {
		t.Errorf("rule consulted %d times for %d forwards; duplicates must still be offered to the rule", calls, forwards)
	}
}

// TestProbeRoutesSharedIntermediate probes two routes that cross the same
// middle node; per-sequence bookkeeping must keep their ACKs apart.
func TestProbeRoutesSharedIntermediate(t *testing.T) {
	topo := gridTopo(5, 3)
	src, dst := nodeAt(topo, 0, 1), nodeAt(topo, 4, 1)
	shared := nodeAt(topo, 2, 1)
	a := Route{src, nodeAt(topo, 1, 1), shared, nodeAt(topo, 3, 1), dst}
	b := Route{src, nodeAt(topo, 0, 0), nodeAt(topo, 1, 0), nodeAt(topo, 2, 0), shared,
		nodeAt(topo, 2, 2), nodeAt(topo, 3, 2), nodeAt(topo, 4, 2), dst}
	for _, r := range []Route{a, b} {
		if !r.Valid(topo) {
			t.Fatalf("test route invalid: %v", r)
		}
	}
	net := sim.NewNetwork(topo, sim.Config{Seed: 21})
	res := ProbeRoutes(net, []Route{a, b})
	for i, r := range res {
		if !r.Acked {
			t.Errorf("probe %d through shared node %d not acked", i, shared)
		}
	}
	// A blackhole on the long route's private segment must not leak into the
	// short route's verdict even though they share a relay.
	net2 := sim.NewNetwork(topo, sim.Config{Seed: 21})
	hole := nodeAt(topo, 3, 2)
	net2.SetDropFunc(func(n *sim.Network, from, to topology.NodeID, pkt sim.Packet) bool {
		if to != hole {
			return false
		}
		switch pkt.(type) {
		case *Data, *ACK:
			return true
		}
		return false
	})
	res2 := ProbeRoutes(net2, []Route{a, b})
	if !res2[0].Acked {
		t.Error("clean route through the shared node must stay acked")
	}
	if res2[1].Acked {
		t.Error("route through the blackhole must not be acked")
	}
}

func TestArrivalTimesOrdered(t *testing.T) {
	topo := gridTopo(6, 4)
	src, dst := nodeAt(topo, 0, 0), nodeAt(topo, 5, 3)
	d := RunDiscovery(sim.NewNetwork(topo, sim.Config{Seed: 7}), src, dst,
		FloodConfig{Name: "t", Rule: forwardAll, MaxForwards: 4, SuppressReplies: true})
	if len(d.Times) == 0 || d.Times[0] <= 0 {
		t.Fatalf("arrivals not recorded: %v", d.Times)
	}
	for i := 1; i < len(d.Times); i++ {
		if d.Times[i] < d.Times[i-1] {
			t.Errorf("Times[%d] = %v before Times[%d] = %v", i, d.Times[i], i-1, d.Times[i-1])
		}
	}
}
