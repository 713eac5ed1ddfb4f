// Package cdsr implements cached DSR's intermediate-node replies — the
// protocol feature the paper's Section IV singles out as a blackhole vector:
// "attackers do not follow the protocol and reply early without cache
// lookup". Honest nodes start with empty caches, so only the destination
// answers honestly; a blackhole attacker answers every RREQ instantly with a
// fabricated one-hop claim to the destination, capturing the source's route
// before honest replies arrive.
//
// The paper's MR forbids intermediate replies entirely, which is why it
// "provides certain level of resistance to blackhole attack as well"; the
// blackhole extension experiment quantifies exactly that contrast.
//
// cDSR floods with its own handler rather than routing.RunDiscovery: its
// destination and its attackers answer every request copy mid-flood, while
// the shared engine collects copies and replies once the flood has died out.
package cdsr

import (
	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// Protocol is DSR with early replies. Unlike the flooding protocols, its
// Discovery.Routes holds the routes the SOURCE received (reply arrival
// order) — the set it would actually send data on.
type Protocol struct {
	// Malicious nodes reply to every RREQ instantly with a fabricated
	// route claiming the destination is their neighbor.
	Malicious map[topology.NodeID]bool
}

// Name implements routing.Protocol.
func (p *Protocol) Name() string { return "DSR+cache" }

// Discover implements routing.Protocol.
func (p *Protocol) Discover(net *sim.Network, src, dst topology.NodeID) *routing.Discovery {
	run := &cdsrRun{proto: p, src: src, dst: dst, seen: make([]bool, net.Topology().N())}
	net.SetAllHandlers(run)
	net.Schedule(0, func() { net.Broadcast(src, &request{path: routing.Route{src}}) })
	net.Run()
	d := &routing.Discovery{Protocol: p.Name(), Src: src, Dst: dst, Routes: run.received}
	d.TxTotal, d.RxTotal = net.TotalTraffic()
	return d
}

// request is cDSR's route request. Each copy carries its own path, which
// the destination or an attacker turns into a reply on the spot.
type request struct {
	path routing.Route
}

type cdsrRun struct {
	proto    *Protocol
	src, dst topology.NodeID
	seen     []bool          // intermediate nodes that have forwarded
	received []routing.Route // at the source, reply order
}

// Recv implements sim.Handler.
func (c *cdsrRun) Recv(net *sim.Network, self, from topology.NodeID, pkt sim.Packet) {
	switch p := pkt.(type) {
	case *request:
		c.recvRequest(net, self, p)
	case *routing.RREP:
		if routing.RelayRREP(net, self, p) {
			c.received = append(c.received, p.Route)
		}
	}
}

func (c *cdsrRun) recvRequest(net *sim.Network, self topology.NodeID, q *request) {
	if self == c.src || q.path.Contains(self) {
		return
	}
	switch {
	case self == c.dst:
		reply(net, append(q.path.Clone(), self), len(q.path))
	case c.proto.Malicious[self]:
		// The paper's early-reply blackhole: claim the destination is one
		// hop away, no lookup, no forwarding. The fabricated link
		// (self,dst) does not exist; data sent on this route dies here.
		reply(net, append(q.path.Clone(), self, c.dst), len(q.path))
	case !c.seen[self]:
		c.seen[self] = true
		net.Broadcast(self, &request{path: append(q.path.Clone(), self)})
	}
}

// reply starts an RREP from route[replier] back toward the source. The hops
// below replier were traversed by the request, so the reverse unicasts are
// all adjacent; hops above replier are claims the replier makes (possibly
// fabricated) that the reply never touches.
func reply(net *sim.Network, route routing.Route, replier int) {
	net.Unicast(route[replier], route[replier-1], &routing.RREP{Route: route, Pos: replier - 1})
}
