// Package aomdv implements a simplified Ad hoc On-demand Multipath Distance
// Vector protocol (Marina & Das, ICNP 2001) — one of the multi-path
// protocols the paper's conclusion earmarks for future SAM evaluation.
//
// Unlike the source-routed MR/DSR family, AOMDV is distance-vector: nodes
// keep multiple loop-free reverse next hops toward the request's source,
// established during RREQ flooding with the "advertised hop count" rule —
// an alternate reverse path is accepted only if its hop count does not
// exceed the hop count the node already advertised for that source, which
// bounds path inflation and preserves loop freedom (every stored reverse
// path came from a simple RREQ traversal, so following next hops strictly
// decreases the distance to the source). The destination answers the first
// k RREQ copies that reach it (k = 3, or 1 for AODV). Real AOMDV also
// requires distinct (first hop, last hop) pairs there, but with forward-once
// flooding every copy reaches the destination over a different last hop, so
// that filter never removes a copy and the route set is the first k
// arrivals.
//
// The request flood runs on routing.RunDiscovery: the forwarding rule
// records reverse paths and forwards only the first copy. RREQs carry the
// traversed path for measurement only (SAM analyzes route link sets); the
// protocol's forwarding decisions use just (hop count, incoming neighbor),
// as real AOMDV does.
package aomdv

import (
	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// ReverseEntry is one loop-free reverse path toward the request source.
type ReverseEntry struct {
	NextHop topology.NodeID
	Hops    int
}

// Table is one node's multipath reverse-route state for one request.
type Table struct {
	// Entries are the accepted reverse paths, in acceptance order.
	Entries []ReverseEntry
	// Advertised is the advertised hop count: the maximum hop count over
	// accepted entries, fixed at first acceptance per AOMDV's loop-freedom
	// rule (it never decreases within one request).
	Advertised int
}

// Accept applies AOMDV's rule: the first path is always accepted and fixes
// the advertised hop count; alternates are accepted only if their hop count
// does not exceed it (the advertised bound the node already announced when
// rebroadcasting — accepting a longer path could advertise a distance the
// node cannot honor, the loop risk AOMDV's rule exists to prevent) and the
// next hop is new. It reports whether the entry was added.
func (t *Table) Accept(next topology.NodeID, hops int) bool {
	if len(t.Entries) == 0 {
		t.Entries = append(t.Entries, ReverseEntry{NextHop: next, Hops: hops})
		t.Advertised = hops
		return true
	}
	if hops > t.Advertised {
		return false // longer than the advertised bound: loop risk
	}
	for _, e := range t.Entries {
		if e.NextHop == next {
			return false // already have a path via this neighbor
		}
	}
	t.Entries = append(t.Entries, ReverseEntry{NextHop: next, Hops: hops})
	return true
}

// Best returns the lowest-hop entry (ties: insertion order).
func (t *Table) Best() (ReverseEntry, bool) {
	if len(t.Entries) == 0 {
		return ReverseEntry{}, false
	}
	best := t.Entries[0]
	for _, e := range t.Entries[1:] {
		if e.Hops < best.Hops {
			best = e
		}
	}
	return best, true
}

// Protocol is the AOMDV discovery protocol.
type Protocol struct {
	// SinglePath degrades the protocol to plain AODV — one reverse entry
	// per node, one route at the destination — the single-path counterpart
	// the paper names next to DSR. Used by the protocols experiment.
	SinglePath bool
}

// maxRoutes caps the arrivals the destination answers.
const maxRoutes = 3

// Name implements routing.Protocol.
func (p *Protocol) Name() string {
	if p.SinglePath {
		return "AODV"
	}
	return "AOMDV"
}

// Discover implements routing.Protocol.
func (p *Protocol) Discover(net *sim.Network, src, dst topology.NodeID) *routing.Discovery {
	d, _ := p.discover(net, src, dst)
	return d
}

// discover runs one discovery and also returns the reverse-route tables it
// built, indexed by node.
func (p *Protocol) discover(net *sim.Network, src, dst topology.NodeID) (*routing.Discovery, []Table) {
	tables := make([]Table, net.Topology().N())
	d := routing.RunDiscovery(net, src, dst, routing.FloodConfig{
		Name: p.Name(),
		Rule: func(self, from topology.NodeID, q *routing.RREQ, st *routing.NodeState) bool {
			// Record the reverse path whether or not we forward: alternates
			// build the multipath table (plain AODV keeps only the first).
			if !st.Seen || !p.SinglePath {
				tables[self].Accept(from, q.Hops()+1)
			}
			return !st.Seen // AOMDV forwards only the first copy, like AODV
		},
		HopSlack:        -1,
		SuppressReplies: true,
	})
	n := maxRoutes
	if p.SinglePath {
		n = 1
	}
	if len(d.Routes) > n {
		d.Routes, d.Times = d.Routes[:n], d.Times[:n]
	}

	// Reply phase: each RREP travels toward the source hop by hop along
	// reverse entries (distance-vector forwarding, not source routing). The
	// RREP carries the discovered route only to identify itself; each relay
	// picks its own reverse next hop.
	net.SetAllHandlers(sim.HandlerFunc(func(net *sim.Network, self, from topology.NodeID, pkt sim.Packet) {
		rrep, ok := pkt.(*routing.RREP)
		if !ok {
			return
		}
		if self == src {
			d.Replies = append(d.Replies, rrep.Route)
			return
		}
		// No reverse state: the reply dies (counts as route failure).
		if best, ok := tables[self].Best(); ok {
			net.Unicast(self, best.NextHop, rrep)
		}
	}))
	for _, r := range d.Routes {
		net.Unicast(dst, r[len(r)-2], &routing.RREP{Route: r.Clone(), Pos: -1})
	}
	net.Run()
	net.SetAllHandlers(nil)
	d.TxTotal, d.RxTotal = net.TotalTraffic()
	return d, tables
}
