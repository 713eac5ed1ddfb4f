// Package mdsr implements Multipath DSR (Nasipuri & Das, IC3N 1999), the
// third multi-path protocol the paper's conclusion discusses. MDSR keeps
// DSR's forwarding untouched — intermediate nodes discard every duplicate
// RREQ — and obtains multiple routes purely at the destination, which
// replies only to copies that are link-disjoint from the primary (first-
// arriving) route. As the paper notes, MDSR therefore does NOT provide more
// candidate routes than DSR for statistical analysis; the extension
// experiment quantifies how much that costs SAM.
package mdsr

import (
	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// Protocol is MDSR route discovery. The zero value is ready to use.
type Protocol struct{}

// maxAlternates caps the disjoint alternate routes kept besides the primary.
const maxAlternates = 2

// Name implements routing.Protocol.
func (p *Protocol) Name() string { return "MDSR" }

// Discover implements routing.Protocol. It reuses the shared flooding
// framework with DSR's forward-once rule, then prunes the destination's
// collection to the primary route plus link-disjoint alternates.
func (p *Protocol) Discover(net *sim.Network, src, dst topology.NodeID) *routing.Discovery {
	d := routing.RunDiscovery(net, src, dst, routing.FloodConfig{
		Name:            p.Name(),
		Rule:            func(self, from topology.NodeID, q *routing.RREQ, st *routing.NodeState) bool { return !st.Seen },
		HopSlack:        -1, // MDSR's destination sees every surviving copy
		SuppressReplies: true,
	})
	// Times stays parallel to Routes.
	kept := pruneDisjoint(d.Routes, maxAlternates)
	for n, k := range kept {
		d.Routes[n], d.Times[n] = d.Routes[k], d.Times[k]
	}
	d.Routes, d.Times = d.Routes[:len(kept)], d.Times[:len(kept)]

	if len(d.Routes) > 0 {
		// Reply along each retained route (source-routed RREPs, as DSR).
		// Rebuilding the reply phase here keeps the pruning decision local.
		d.Replies = replyPhase(net, d.Routes)
		d.TxTotal, d.RxTotal = net.TotalTraffic()
	}
	return d
}

// pruneDisjoint returns the indices, in increasing order, of the routes
// MDSR's destination policy keeps: 0 (the primary) and up to maxAlt further
// routes that share no link with any kept route.
func pruneDisjoint(routes []routing.Route, maxAlt int) []int {
	if len(routes) == 0 {
		return nil
	}
	kept := []int{0}
	for i := 1; i < len(routes) && len(kept)-1 < maxAlt; i++ {
		disjoint := true
		for _, k := range kept {
			if routes[i].SharedLinks(routes[k]) > 0 {
				disjoint = false
				break
			}
		}
		if disjoint {
			kept = append(kept, i)
		}
	}
	return kept
}

// replyPhase sends one source-routed RREP per route and reports which made
// it back.
func replyPhase(net *sim.Network, routes []routing.Route) []routing.Route {
	delivered := make([]routing.Route, 0, len(routes))
	net.SetAllHandlers(sim.HandlerFunc(func(n *sim.Network, self, from topology.NodeID, pkt sim.Packet) {
		if p, ok := pkt.(*routing.RREP); ok && routing.RelayRREP(n, self, p) {
			delivered = append(delivered, p.Route)
		}
	}))
	for _, r := range routes {
		last := len(r) - 1
		net.Unicast(r[last], r[last-1], &routing.RREP{Route: r.Clone(), Pos: last - 1})
	}
	net.Run()
	return delivered
}
