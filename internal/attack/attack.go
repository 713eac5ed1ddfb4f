// Package attack implements the adversary models the paper studies. The
// central one is the wormhole: a pair of colluding nodes connected by an
// out-of-band tunnel, so that routing sees them as one-hop neighbors however
// far apart they sit. Wormhole nodes do not modify or fabricate packets —
// which is why cryptography cannot detect them — but once routes traverse
// the tunnel they can mount payload attacks: blackhole (drop everything) or
// greyhole (drop selectively).
package attack

import (
	"fmt"
	"math/rand/v2"

	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// Wormhole is one installed tunnel between two attacker nodes.
type Wormhole struct {
	A, B topology.NodeID
	topo *topology.Topology
	// installed tracks whether this handle owns a live extra link. Handles
	// that never tunneled (rushing attackers) leave it false, so Remove
	// cannot tear down a link someone else installed on the same pair.
	installed bool
}

// Install creates the tunnel between a and b in topo and returns a handle
// for later removal. The attacker nodes must already exist in the topology.
func Install(topo *topology.Topology, a, b topology.NodeID) *Wormhole {
	if a == b {
		panic("attack: wormhole endpoints must differ")
	}
	topo.AddExtraLink(a, b)
	return &Wormhole{A: a, B: b, topo: topo, installed: true}
}

// InstallPairs installs the first count wormholes of net's attacker pairs
// and returns the handles. count may be 0.
func InstallPairs(net *topology.Network, count int) []*Wormhole {
	if count < 0 || count > len(net.AttackerPairs) {
		panic(fmt.Sprintf("attack: count must be in [0,%d]", len(net.AttackerPairs)))
	}
	out := make([]*Wormhole, 0, count)
	for i := 0; i < count; i++ {
		p := net.AttackerPairs[i]
		out = append(out, Install(net.Topo, p[0], p[1]))
	}
	return out
}

// Remove tears the tunnel down (e.g. after the IDS isolates the attackers).
// It is a no-op on a handle whose tunnel was never installed — tunnel-less
// attackers (rushing scenarios) share the Wormhole bookkeeping, and tearing
// such a handle down must not delete an extra link installed by anyone else
// on the same pair.
func (w *Wormhole) Remove() {
	if !w.installed {
		return
	}
	w.installed = false
	w.topo.RemoveExtraLink(w.A, w.B)
}

// Installed reports whether this handle currently owns a live tunnel link.
func (w *Wormhole) Installed() bool { return w.installed }

// Link returns the tunnel as a normalized link — the paper's "attack link"
// whose appearance frequency SAM keys on.
func (w *Wormhole) Link() topology.Link { return topology.MkLink(w.A, w.B) }

// PayloadBehavior is what wormhole endpoints do with data packets once
// routes flow through them.
type PayloadBehavior int

const (
	// Forward: attackers relay payloads faithfully. SAM's statistical step
	// still detects the tunnel, but the probe step cannot confirm it.
	Forward PayloadBehavior = iota
	// Blackhole: attackers drop every data packet.
	Blackhole
	// Greyhole: attackers drop each data packet with probability DropProb.
	Greyhole
)

// String implements fmt.Stringer.
func (b PayloadBehavior) String() string {
	switch b {
	case Forward:
		return "forward"
	case Blackhole:
		return "blackhole"
	case Greyhole:
		return "greyhole"
	}
	return fmt.Sprintf("PayloadBehavior(%d)", int(b))
}

// DropPolicy builds a sim.DropFunc implementing the payload behaviour of a
// set of malicious nodes. Routing traffic (RREQ/RREP) always passes: the
// wormhole behaves normally during routing, exactly the property that makes
// it hard to detect. Only payload packets (routing.PayloadPacket — Data,
// ACK, and the verify probes) are dropped.
type DropPolicy struct {
	Malicious map[topology.NodeID]bool
	Behavior  PayloadBehavior
	DropProb  float64 // greyhole drop probability (default 0.5)
	Dropped   int64   // count of payload packets destroyed
}

// NewDropPolicy builds a policy over the given malicious nodes.
func NewDropPolicy(malicious map[topology.NodeID]bool, b PayloadBehavior) *DropPolicy {
	return &DropPolicy{Malicious: malicious, Behavior: b, DropProb: 0.5}
}

// Func returns the sim.DropFunc. rng draws greyhole decisions; it must be
// the simulation's own source for reproducibility.
func (p *DropPolicy) Func(rng *rand.Rand) sim.DropFunc {
	return func(n *sim.Network, from, to topology.NodeID, pkt sim.Packet) bool {
		if _, ok := pkt.(routing.PayloadPacket); !ok {
			return false // routing traffic always passes
		}
		// A packet dies when a malicious node is asked to hand it onward
		// (i.e. the receiving relay is malicious: it accepts and destroys).
		if !p.Malicious[to] {
			return false
		}
		switch p.Behavior {
		case Blackhole:
			p.Dropped++
			return true
		case Greyhole:
			if rng.Float64() < p.DropProb {
				p.Dropped++
				return true
			}
		}
		return false
	}
}

// Scenario bundles a network with its active wormholes and payload policy,
// which is how experiments describe "the system under attack".
type Scenario struct {
	Net      *topology.Network
	Tunnels  []*Wormhole
	Behavior PayloadBehavior
	// RushFactor, when in (0,1), makes the attackers rushing adversaries
	// (Hu-Perrig-Johnson's rushing attack): they forward with a fraction of
	// the normal MAC delay, winning duplicate-suppression races even
	// without a tunnel. Zero disables rushing.
	RushFactor float64
	// TunnelDelay is the extra latency each tunnel-link crossing costs — a
	// variable-latency out-of-band channel instead of the classic
	// instantaneous one. Zero keeps the classic free tunnel.
	TunnelDelay sim.Time
	// ReqBudget, when positive, throttles tunnel usage during route
	// discovery: at most ReqBudget RREQ copies per request may cross each
	// tunnel link (receive-side; both directions count together). The
	// adaptive attacker uses it to cap how many tunneled routes the
	// destination can collect, keeping the tunnel's appearance frequency —
	// SAM's p_max — under the trained alarm threshold. Zero is unlimited.
	ReqBudget int
}

// NewScenario installs count wormholes on net with the given payload
// behaviour.
func NewScenario(net *topology.Network, count int, behavior PayloadBehavior) *Scenario {
	return &Scenario{
		Net:      net,
		Tunnels:  InstallPairs(net, count),
		Behavior: behavior,
	}
}

// Teardown removes all tunnels (restoring the normal system).
func (s *Scenario) Teardown() {
	for _, w := range s.Tunnels {
		w.Remove()
	}
	s.Tunnels = nil
}

// TunnelLinks returns the attack links of all active wormholes.
func (s *Scenario) TunnelLinks() []topology.Link {
	out := make([]topology.Link, len(s.Tunnels))
	for i, w := range s.Tunnels {
		out[i] = w.Link()
	}
	return out
}

// MaliciousNodes returns every attacker endpoint across active tunnels.
func (s *Scenario) MaliciousNodes() map[topology.NodeID]bool {
	out := make(map[topology.NodeID]bool, 2*len(s.Tunnels))
	for _, w := range s.Tunnels {
		out[w.A] = true
		out[w.B] = true
	}
	return out
}

// Arm installs the payload drop policy (and rushing delay factors, tunnel
// latency and the adaptive request throttle, if configured) on simNet and
// returns the policy so callers can read the drop count.
func (s *Scenario) Arm(simNet *sim.Network) *DropPolicy {
	p := NewDropPolicy(s.MaliciousNodes(), s.Behavior)
	drop := p.Func(simNet.Rand())
	if s.ReqBudget > 0 {
		drop = s.throttleRREQ(drop)
	}
	simNet.SetDropFunc(drop)
	if s.RushFactor > 0 && s.RushFactor < 1 {
		for id := range s.MaliciousNodes() {
			simNet.SetDelayFactor(id, s.RushFactor)
		}
	}
	if s.TunnelDelay > 0 {
		for _, w := range s.Tunnels {
			if w.Installed() {
				simNet.SetLinkDelay(w.A, w.B, s.TunnelDelay)
			}
		}
	}
	return p
}

// throttleRREQ wraps a drop decision with the adaptive attacker's tunnel
// budget: once ReqBudget RREQ copies of one request have crossed a tunnel
// link, further copies of that request die at the tunnel exit. Everything
// else falls through to the base policy.
func (s *Scenario) throttleRREQ(base sim.DropFunc) sim.DropFunc {
	tunnels := make(map[topology.Link]bool, len(s.Tunnels))
	for _, w := range s.Tunnels {
		if w.Installed() {
			tunnels[w.Link()] = true
		}
	}
	used := make(map[uint64]int)
	return func(n *sim.Network, from, to topology.NodeID, pkt sim.Packet) bool {
		if q, ok := pkt.(*routing.RREQ); ok && tunnels[topology.MkLink(from, to)] {
			used[q.ReqID]++
			if used[q.ReqID] > s.ReqBudget {
				return true
			}
			return false
		}
		return base(n, from, to, pkt)
	}
}

// NewRushingScenario builds attackers that rush but do not tunnel: the
// attacker pairs exist, no extra link is installed, and Arm gives them the
// given fraction of the normal transmission delay.
func NewRushingScenario(net *topology.Network, pairs int, factor float64, behavior PayloadBehavior) *Scenario {
	if factor <= 0 || factor >= 1 {
		panic("attack: rush factor must be in (0,1)")
	}
	if pairs < 0 || pairs > len(net.AttackerPairs) {
		panic("attack: pairs out of range")
	}
	s := &Scenario{Net: net, Behavior: behavior, RushFactor: factor}
	for i := 0; i < pairs; i++ {
		p := net.AttackerPairs[i]
		// No Install: rushing uses no out-of-band link. Track endpoints via
		// tunnel-less Wormhole handles so MaliciousNodes works unchanged.
		s.Tunnels = append(s.Tunnels, &Wormhole{A: p[0], B: p[1], topo: net.Topo})
	}
	return s
}
