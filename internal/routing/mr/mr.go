// Package mr implements the paper's on-demand multi-path routing protocol —
// an SMR variant (Lee & Gerla) with a relaxed duplicate rule:
//
//	The intermediate node will forward the first received RREQ and the
//	duplicate RREQ that has not been forwarded by the node and whose hop
//	count is not larger than that of the first received RREQ.
//
// Unlike strict SMR, the incoming link of the duplicate is not considered,
// so MR may discover more routes. Strict SMR is available behind the
// IncomingLinkRule flag.
package mr

import (
	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// Protocol is the multi-path routing protocol. The zero value is the
// paper's MR; the destination collects routes within routing.DefaultHopSlack
// hops of the first arrival and replies to the 2 maximally disjoint ones.
type Protocol struct {
	// IncomingLinkRule enables strict SMR: a duplicate is forwarded only if
	// it arrived over a different link than the first copy.
	IncomingLinkRule bool
	// Avoid excludes nodes from discovery (routing.FloodConfig.Avoid) —
	// the IDS's isolation list plugs in here.
	Avoid func(topology.NodeID) bool
	// Forge lets Byzantine nodes answer requests with fabricated replies
	// (routing.FloodConfig.Forge) — attack scenarios plug in here.
	Forge routing.ForgeFunc
}

// maxForwards caps the total RREQ copies each intermediate node forwards per
// request, modeling the MAC-level contention that keeps the paper's observed
// overhead at "more than twice" DSR's rather than letting grid braiding
// explode combinatorially. BenchmarkAblationSMRRule runs the literal
// unbounded rule.
const maxForwards = 6

// Name implements routing.Protocol.
func (p *Protocol) Name() string {
	if p.IncomingLinkRule {
		return "SMR"
	}
	return "MR"
}

// Discover implements routing.Protocol.
func (p *Protocol) Discover(net *sim.Network, src, dst topology.NodeID) *routing.Discovery {
	return routing.RunDiscovery(net, src, dst, routing.FloodConfig{
		Name:        p.Name(),
		Rule:        p.rule,
		MaxForwards: maxForwards,
		HopSlack:    routing.DefaultHopSlack,
		Avoid:       p.Avoid,
		Forge:       p.Forge,
	})
}

func (p *Protocol) rule(self, from topology.NodeID, q *routing.RREQ, st *routing.NodeState) bool {
	if !st.Seen {
		return true // first copy is always forwarded
	}
	if q.Hops() > st.FirstHops {
		return false // longer than the first copy: drop
	}
	// Strict SMR: a duplicate must arrive over a different link.
	return !p.IncomingLinkRule || from != st.FirstFrom
}
