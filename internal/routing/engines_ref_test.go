package routing_test

// The AOMDV/AODV, MDSR and cDSR discoveries below are the engines these
// protocols ran on before AOMDV and AODV moved onto RunDiscovery, MDSR's
// reply phase onto RelayRREP and cDSR onto its own request type. Each is
// kept verbatim except that it carries its path in a test-local request
// type, and the AOMDV reference also reports the arrival times it always
// tracked. The current protocols must reproduce every Discovery field the
// reference sets.

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"samnet/internal/attack"
	"samnet/internal/routing"
	"samnet/internal/routing/aomdv"
	"samnet/internal/routing/cdsr"
	"samnet/internal/routing/mdsr"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// refRREQ is the explicit-path route request the reference engines flood.
type refRREQ struct {
	ReqID    uint64
	Src, Dst topology.NodeID
	Path     routing.Route
}

// refGrid runs check on every cell of the reference grid: four topologies,
// clean and armed with one forwarding wormhole, channel loss 0 and 0.1, and
// 25 seeds. newNet returns a fresh network for the cell, armed if the cell
// is; check calls it once per engine.
func refGrid(t *testing.T, check func(t *testing.T, newNet func() *sim.Network, src, dst topology.NodeID)) {
	builds := []struct {
		name  string
		build func(wormholes int) *topology.Network
	}{
		{"cluster-1", func(w int) *topology.Network { return topology.Cluster(1, w) }},
		{"cluster-2", func(w int) *topology.Network { return topology.Cluster(2, w) }},
		{"uniform-6x6", func(w int) *topology.Network { return topology.Uniform(6, 6, 1, w) }},
		{"uniform-10x6-tier2", func(w int) *topology.Network { return topology.Uniform(10, 6, 2, w) }},
	}
	for _, b := range builds {
		for _, armed := range []bool{false, true} {
			for _, loss := range []float64{0, 0.1} {
				var sc *attack.Scenario
				net := b.build(0)
				if armed {
					net = b.build(1)
					sc = attack.NewScenario(net, 1, attack.Forward)
				}
				for seed := uint64(1); seed <= 25; seed++ {
					src, dst := net.PickPair(rand.New(rand.NewPCG(seed, 0)))
					newNet := func() *sim.Network {
						s := sim.NewNetwork(net.Topo, sim.Config{Seed: seed, LossRate: loss})
						if sc != nil {
							sc.Arm(s)
						}
						return s
					}
					t.Run(fmt.Sprintf("%s/armed=%v/loss=%v/seed=%d", b.name, armed, loss, seed), func(t *testing.T) {
						check(t, newNet, src, dst)
					})
				}
				if sc != nil {
					sc.Teardown()
				}
			}
		}
	}
}

func diffDiscovery(t *testing.T, got, want *routing.Discovery) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("discovery differs from the reference engine\n got %+v\nwant %+v", got, want)
	}
}

func TestAOMDVMatchesReference(t *testing.T) {
	for _, single := range []bool{false, true} {
		p := &aomdv.Protocol{SinglePath: single}
		t.Run(p.Name(), func(t *testing.T) {
			refGrid(t, func(t *testing.T, newNet func() *sim.Network, src, dst topology.NodeID) {
				got := p.Discover(newNet(), src, dst)
				got.FloodEnd = 0 // the reference never set it
				diffDiscovery(t, got, refAOMDVDiscover(single, newNet(), src, dst))
			})
		})
	}
}

func TestMDSRMatchesReference(t *testing.T) {
	refGrid(t, func(t *testing.T, newNet func() *sim.Network, src, dst topology.NodeID) {
		diffDiscovery(t, (&mdsr.Protocol{}).Discover(newNet(), src, dst), refMDSRDiscover(newNet(), src, dst))
	})
}

func TestCDSRMatchesReference(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 1)
	mal := net.Attackers()
	for seed := uint64(1); seed <= 100; seed++ {
		src, dst := net.PickPair(rand.New(rand.NewPCG(seed, 0)))
		got := (&cdsr.Protocol{Malicious: mal}).Discover(sim.NewNetwork(net.Topo, sim.Config{Seed: seed}), src, dst)
		want := refCDSRDiscover(mal, sim.NewNetwork(net.Topo, sim.Config{Seed: seed}), src, dst)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: discovery differs from the reference engine\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// refAOMDVDiscover is the former aomdv.Protocol.Discover at its defaults
// (MaxRoutes 3, replies on).
func refAOMDVDiscover(singlePath bool, net *sim.Network, src, dst topology.NodeID) *routing.Discovery {
	name, maxRoutes := "AOMDV", 3
	if singlePath {
		name, maxRoutes = "AODV", 1
	}
	run := &refAOMDVRun{
		singlePath: singlePath,
		src:        src,
		dst:        dst,
		maxRoutes:  maxRoutes,
		tables:     make(map[topology.NodeID]*aomdv.Table),
		seenPair:   make(map[[2]topology.NodeID]bool),
	}
	net.SetAllHandlers(run)
	net.Schedule(0, func() {
		net.Broadcast(src, &refRREQ{ReqID: 1, Src: src, Dst: dst, Path: routing.Route{src}})
	})
	net.Run()

	d := &routing.Discovery{Protocol: name, Src: src, Dst: dst, Routes: run.routes, Times: run.arrivalTimes}
	for _, r := range run.routes {
		net.Schedule(0, func() { run.sendRREP(net, r) })
	}
	net.Run()
	d.Replies = run.replies
	d.TxTotal, d.RxTotal = net.TotalTraffic()
	return d
}

type refAOMDVRun struct {
	singlePath bool
	src, dst   topology.NodeID
	maxRoutes  int

	tables       map[topology.NodeID]*aomdv.Table
	routes       []routing.Route
	arrivalTimes []sim.Time
	seenPair     map[[2]topology.NodeID]bool
	replies      []routing.Route
}

func (a *refAOMDVRun) Recv(net *sim.Network, self, from topology.NodeID, pkt sim.Packet) {
	switch p := pkt.(type) {
	case *refRREQ:
		a.recvRREQ(net, self, from, p)
	case *routing.RREP:
		a.recvRREP(net, self, p)
	}
}

func (a *refAOMDVRun) recvRREQ(net *sim.Network, self, from topology.NodeID, q *refRREQ) {
	if self == a.src || q.Path.Contains(self) {
		return
	}
	if self == a.dst {
		a.acceptAtDst(net, q)
		return
	}
	t := a.tables[self]
	if t == nil {
		t = &aomdv.Table{}
		a.tables[self] = t
	}
	first := len(t.Entries) == 0
	if first || !a.singlePath {
		t.Accept(from, q.Path.Hops()+1)
	}
	if !first {
		return
	}
	net.Broadcast(self, &refRREQ{ReqID: q.ReqID, Src: q.Src, Dst: q.Dst, Path: append(q.Path.Clone(), self)})
}

func (a *refAOMDVRun) acceptAtDst(net *sim.Network, q *refRREQ) {
	route := append(q.Path.Clone(), a.dst)
	if len(route) < 2 || len(a.routes) >= a.maxRoutes {
		return
	}
	key := [2]topology.NodeID{route[1], route[len(route)-2]}
	if a.seenPair[key] {
		return
	}
	a.seenPair[key] = true
	a.routes = append(a.routes, route)
	a.arrivalTimes = append(a.arrivalTimes, net.Now())
}

func (a *refAOMDVRun) sendRREP(net *sim.Network, route routing.Route) {
	last := route[len(route)-2]
	net.Unicast(a.dst, last, &routing.RREP{ReqID: 1, Route: route.Clone(), Pos: -1})
}

func (a *refAOMDVRun) recvRREP(net *sim.Network, self topology.NodeID, p *routing.RREP) {
	if self == a.src {
		a.replies = append(a.replies, p.Route)
		return
	}
	t := a.tables[self]
	if t == nil {
		return
	}
	best, ok := t.Best()
	if !ok {
		return
	}
	net.Unicast(self, best.NextHop, &routing.RREP{ReqID: p.ReqID, Route: p.Route, Pos: -1})
}

// refMDSRDiscover is the former mdsr.Protocol.Discover at its defaults
// (MaxAlternates 2, replies on).
func refMDSRDiscover(net *sim.Network, src, dst topology.NodeID) *routing.Discovery {
	d := routing.RunDiscovery(net, src, dst, routing.FloodConfig{
		Name:            "MDSR",
		Rule:            func(self, from topology.NodeID, q *routing.RREQ, st *routing.NodeState) bool { return !st.Seen },
		ReplyAll:        true,
		HopSlack:        -1,
		SuppressReplies: true,
	})
	d.Protocol = "MDSR"
	all := d.Routes
	d.Routes = refPruneDisjoint(all, 2)
	// The former engine left Times as the flood collected them. MDSR now
	// keeps Times parallel to Routes, so the diff expects the flood's times
	// at the kept routes' positions (routes are distinct, kept in order).
	var times []sim.Time
	j := 0
	for _, r := range d.Routes {
		for !all[j].Equal(r) {
			j++
		}
		times = append(times, d.Times[j])
	}
	d.Times = times
	if len(d.Routes) > 0 {
		d.Replies = refMDSRReplyPhase(net, d.Routes)
		d.TxTotal, d.RxTotal = net.TotalTraffic()
	}
	return d
}

func refPruneDisjoint(routes []routing.Route, maxAlt int) []routing.Route {
	if len(routes) == 0 {
		return nil
	}
	kept := []routing.Route{routes[0]}
	for _, c := range routes[1:] {
		if len(kept)-1 == maxAlt {
			break
		}
		disjoint := true
		for _, k := range kept {
			if c.SharedLinks(k) > 0 {
				disjoint = false
				break
			}
		}
		if disjoint {
			kept = append(kept, c)
		}
	}
	return kept
}

func refMDSRReplyPhase(net *sim.Network, routes []routing.Route) []routing.Route {
	delivered := make([]routing.Route, 0, len(routes))
	h := sim.HandlerFunc(func(n *sim.Network, self, from topology.NodeID, pkt sim.Packet) {
		p, ok := pkt.(*routing.RREP)
		if !ok || p.Route[p.Pos] != self {
			return
		}
		if p.Pos == 0 {
			delivered = append(delivered, p.Route)
			return
		}
		n.Unicast(self, p.Route[p.Pos-1], &routing.RREP{ReqID: p.ReqID, Route: p.Route, Pos: p.Pos - 1})
	})
	net.SetAllHandlers(h)
	for _, r := range routes {
		if len(r) < 2 {
			continue
		}
		net.Schedule(0, func() {
			last := len(r) - 1
			net.Unicast(r[last], r[last-1], &routing.RREP{ReqID: 1, Route: r.Clone(), Pos: last - 1})
		})
	}
	net.Run()
	return delivered
}

// refCDSRDiscover is the former cdsr.Protocol.Discover with no route caches.
func refCDSRDiscover(mal map[topology.NodeID]bool, net *sim.Network, src, dst topology.NodeID) *routing.Discovery {
	run := &refCDSRRun{malicious: mal, src: src, dst: dst, seen: make(map[topology.NodeID]bool)}
	net.SetAllHandlers(run)
	net.Schedule(0, func() {
		net.Broadcast(src, &refRREQ{ReqID: 1, Src: src, Dst: dst, Path: routing.Route{src}})
	})
	net.Run()
	d := &routing.Discovery{Protocol: "DSR+cache", Src: src, Dst: dst, Routes: run.received}
	d.TxTotal, d.RxTotal = net.TotalTraffic()
	return d
}

type refCDSRRun struct {
	malicious map[topology.NodeID]bool
	src, dst  topology.NodeID
	seen      map[topology.NodeID]bool
	received  []routing.Route
}

func (c *refCDSRRun) Recv(net *sim.Network, self, from topology.NodeID, pkt sim.Packet) {
	switch p := pkt.(type) {
	case *refRREQ:
		c.recvRREQ(net, self, p)
	case *routing.RREP:
		c.recvRREP(net, self, p)
	}
}

func (c *refCDSRRun) recvRREQ(net *sim.Network, self topology.NodeID, q *refRREQ) {
	if self == c.src || q.Path.Contains(self) {
		return
	}
	switch {
	case self == c.dst:
		route := append(q.Path.Clone(), self)
		refSendReply(net, route, len(route)-1)
		return
	case c.malicious[self]:
		fake := append(append(q.Path.Clone(), self), c.dst)
		refSendReply(net, fake, len(fake)-2)
		return
	}
	if c.seen[self] {
		return
	}
	c.seen[self] = true
	net.Broadcast(self, &refRREQ{ReqID: q.ReqID, Src: q.Src, Dst: q.Dst, Path: append(q.Path.Clone(), self)})
}

func refSendReply(net *sim.Network, route routing.Route, replier int) {
	if replier <= 0 || replier >= len(route) {
		return
	}
	net.Unicast(route[replier], route[replier-1],
		&routing.RREP{ReqID: 1, Route: route.Clone(), Pos: replier - 1})
}

func (c *refCDSRRun) recvRREP(net *sim.Network, self topology.NodeID, p *routing.RREP) {
	if p.Route[p.Pos] != self {
		return
	}
	if p.Pos == 0 {
		c.received = append(c.received, p.Route)
		return
	}
	net.Unicast(self, p.Route[p.Pos-1], &routing.RREP{ReqID: p.ReqID, Route: p.Route, Pos: p.Pos - 1})
}
