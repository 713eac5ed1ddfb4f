// Package dsr implements DSR-style single-path route discovery as the paper
// uses it for comparison: intermediate nodes discard duplicate RREQs (only
// the first copy of a request is ever forwarded), and the destination
// replies to every copy that reaches it. Route caching and intermediate-node
// replies are disabled, as in the paper's setup (intermediate nodes never
// send RREPs, which also resists blackhole early-reply attacks).
package dsr

import (
	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// Protocol is DSR route discovery. The zero value is ready to use; like MR's,
// its destination admits routes within routing.DefaultHopSlack hops of the
// first arrival.
type Protocol struct {
	// Avoid excludes nodes from discovery (routing.FloodConfig.Avoid) —
	// the IDS's isolation list plugs in here.
	Avoid func(topology.NodeID) bool
	// Forge lets Byzantine nodes answer requests with fabricated replies
	// (routing.FloodConfig.Forge) — attack scenarios plug in here.
	Forge routing.ForgeFunc
}

// Name implements routing.Protocol.
func (p *Protocol) Name() string { return "DSR" }

// Discover implements routing.Protocol.
func (p *Protocol) Discover(net *sim.Network, src, dst topology.NodeID) *routing.Discovery {
	return routing.RunDiscovery(net, src, dst, routing.FloodConfig{
		Name:     p.Name(),
		Rule:     rule,
		ReplyAll: true,
		HopSlack: routing.DefaultHopSlack,
		Avoid:    p.Avoid,
		Forge:    p.Forge,
	})
}

func rule(self, from topology.NodeID, q *routing.RREQ, st *routing.NodeState) bool {
	return !st.Seen // forward only the very first copy
}
