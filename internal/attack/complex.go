// Complex adversaries beyond the paper's classic two-node wormhole
// (cf. the taxonomy of multi-node and variable-latency wormholes in the
// wormhole literature): colluding relay chains, latent tunnels, an adaptive
// attacker that throttles tunnel usage to stay under the detector's trained
// p_max threshold, and Byzantine route-reply forgery. Each reshapes the
// link-frequency signal SAM keys on in a different way; the hybrid detector
// (internal/sam) adds the neighbor-table and delay-consistency evidence that
// recovers detection where the frequency statistic alone collapses.
package attack

import (
	"fmt"
	"sort"

	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// Default parameters of the named complex-adversary variants.
const (
	// DefaultLatentDelay is the extra latency per tunnel crossing of the
	// "latent" variant, in hop-delay units: the covert channel is slower
	// than radio, leaving timing evidence.
	DefaultLatentDelay sim.Time = 6
	// DefaultChainRelays is the number of colluding relay nodes the "chain"
	// variant inserts between the classic attacker pair.
	DefaultChainRelays = 3
	// DefaultChainDelay is the per-chain-link store-and-forward latency of
	// the "chain" variant.
	DefaultChainDelay sim.Time = 2
)

// NewLatentScenario installs count classic wormholes whose tunnel crossings
// each cost the given extra delay — a variable-latency out-of-band channel.
// The frequency signature is unchanged (SAM still fires); the point is the
// timing evidence: tunneled routes arrive slower per claimed hop than radio
// ever delivers.
func NewLatentScenario(net *topology.Network, count int, delay sim.Time, behavior PayloadBehavior) *Scenario {
	if delay <= 0 {
		panic("attack: latent tunnel delay must be positive")
	}
	s := NewScenario(net, count, behavior)
	s.TunnelDelay = delay
	return s
}

// NewChainScenario builds a colluding wormhole chain: the endpoints of
// attacker pair 0 plus the given number of relay nodes between them, every
// consecutive pair joined by a tunnel link with the given per-link latency.
// Relays are the placed nodes nearest the evenly spaced points on the
// endpoint-to-endpoint segment; all chain nodes become colluders (and are
// removed from the source/destination pools).
//
// Against SAM the chain is frequency camouflage: the tunnel's appearance
// count is split across relays+1 links, and chain routes are longer, so no
// single link's relative frequency spikes the way a 1-link tunnel's does.
func NewChainScenario(net *topology.Network, relays int, delay sim.Time, behavior PayloadBehavior) *Scenario {
	if relays < 1 {
		panic("attack: chain needs at least one relay")
	}
	if len(net.AttackerPairs) == 0 {
		panic("attack: network has no attacker pair to anchor the chain")
	}
	pair := net.AttackerPairs[0]
	topo := net.Topo
	pa, pb := topo.Pos(pair[0]), topo.Pos(pair[1])
	claimed := map[topology.NodeID]bool{pair[0]: true, pair[1]: true}
	chain := []topology.NodeID{pair[0]}
	for i := 1; i <= relays; i++ {
		anchor := pa.Lerp(pb, float64(i)/float64(relays+1))
		id := topology.NearestUnclaimed(topo, anchor, claimed)
		claimed[id] = true
		chain = append(chain, id)
	}
	chain = append(chain, pair[1])

	s := &Scenario{Net: net, Behavior: behavior, TunnelDelay: delay}
	for i := 0; i+1 < len(chain); i++ {
		s.Tunnels = append(s.Tunnels, Install(topo, chain[i], chain[i+1]))
	}
	net.SrcPool = topology.WithoutNodes(net.SrcPool, claimed)
	net.DstPool = topology.WithoutNodes(net.DstPool, claimed)
	return s
}

// NewAdaptiveScenario installs count classic wormholes driven by an attacker
// that knows SAM's statistics and throttles itself under them: few tunneled
// request copies per discovery (so few collected routes carry the tunnel)
// and a slow-enough tunnel that honest routes arrive first and stay in the
// collection. The tunnel still attracts payload traffic — its routes are
// shorter — but the p_max spike SAM alarms on never forms.
//
// The attacker is the most conservative one: one tunneled request copy per
// discovery, and a tunnel crossing that costs one hop less than the path it
// shortcuts, so tunneled copies stop winning first-arrival races — honest
// routes keep flooding and dilute the tunnel's appearance frequency.
func NewAdaptiveScenario(net *topology.Network, count int, behavior PayloadBehavior) *Scenario {
	s := NewScenario(net, count, behavior)
	span := 2
	if count > 0 {
		if d := net.TunnelSpan(0); d > span {
			span = d
		}
	}
	s.TunnelDelay = sim.Time(span - 1)
	s.ReqBudget = 1
	return s
}

// NewForgeScenario builds Byzantine route-reply forgers: the first pairs
// attacker pairs collude, but instead of tunneling they answer route
// requests with fabricated replies (wire the scenario's ForgeFunc into the
// protocol). No extra link is installed, so Teardown is a no-op on these
// handles.
func NewForgeScenario(net *topology.Network, pairs int, behavior PayloadBehavior) *Scenario {
	if pairs < 1 || pairs > len(net.AttackerPairs) {
		panic("attack: forge pairs out of range")
	}
	s := &Scenario{Net: net, Behavior: behavior}
	for i := 0; i < pairs; i++ {
		p := net.AttackerPairs[i]
		s.Tunnels = append(s.Tunnels, &Wormhole{A: p[0], B: p[1], topo: net.Topo})
	}
	return s
}

// ForgeFunc returns the routing hook implementing this scenario's Byzantine
// route-reply forgery. Each malicious node answers the first request copy it
// receives with a fabricated short route: the real path prefix up to itself,
// one invented relay, then the destination. The invented relay varies per
// forge (a deterministic counter walks the node space, preferring nodes not
// actually adjacent to the forger or the destination), so no fabricated link
// repeats often enough to trip SAM's frequency statistic — but every
// fabricated link is uncorroborated by honest neighbor tables, and forged
// replies reach the source mid-flood, far earlier than any honest reply.
func (s *Scenario) ForgeFunc() routing.ForgeFunc {
	malicious := s.MaliciousNodes()
	topo := s.Net.Topo
	n := topo.N()
	counter := 0
	return func(self, from topology.NodeID, q *routing.RREQ, prefix routing.Route) routing.Route {
		if !malicious[self] || self == q.Dst || self == q.Src {
			return nil
		}
		counter++
		fake := topology.None
		fallback := topology.None
		for i := 0; i < n; i++ {
			cand := topology.NodeID((counter*13 + i) % n)
			if cand == q.Dst || cand == q.Src || prefix.Contains(cand) {
				continue
			}
			if fallback == topology.None {
				fallback = cand
			}
			if !topo.Adjacent(self, cand) && !topo.Adjacent(cand, q.Dst) {
				fake = cand
				break
			}
		}
		if fake == topology.None {
			fake = fallback
		}
		if fake == topology.None {
			return nil
		}
		out := make(routing.Route, 0, len(prefix)+2)
		out = append(out, prefix...)
		return append(out, fake, q.Dst)
	}
}

// Variants lists the named complex-adversary constructions Named accepts, in
// the order the ROC matrix sweeps them.
func Variants() []string {
	return []string{"classic", "latent", "chain", "adaptive", "forge"}
}

// Named builds the named adversary variant on net with default parameters —
// the shared vocabulary of the ROC-matrix experiment and the serving layer's
// scenario replay. "classic" (or "") is the paper's two-node wormhole; see
// NewLatentScenario, NewChainScenario, NewAdaptiveScenario and
// NewForgeScenario for the others. The "forge" scenario's hook must still be
// wired into the protocol by the caller (Scenario.ForgeFunc).
func Named(name string, net *topology.Network, behavior PayloadBehavior) (*Scenario, error) {
	switch name {
	case "", "classic":
		return NewScenario(net, 1, behavior), nil
	case "latent":
		return NewLatentScenario(net, 1, DefaultLatentDelay, behavior), nil
	case "chain":
		return NewChainScenario(net, DefaultChainRelays, DefaultChainDelay, behavior), nil
	case "adaptive":
		return NewAdaptiveScenario(net, 1, behavior), nil
	case "forge":
		return NewForgeScenario(net, 1, behavior), nil
	}
	known := Variants()
	sort.Strings(known)
	return nil, fmt.Errorf("attack: unknown variant %q (known: %v)", name, known)
}
