package routing_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"samnet/internal/attack"
	"samnet/internal/routing"
	"samnet/internal/routing/aomdv"
	"samnet/internal/routing/dsr"
	"samnet/internal/routing/mdsr"
	"samnet/internal/routing/mr"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// arrivalFlood pairs a protocol with its request flood, destination filter
// off (HopSlack -1), so the flood's Routes are every copy that reached the
// destination.
type arrivalFlood struct {
	p   routing.Protocol
	cfg routing.FloodConfig
}

func arrivalFloods() []arrivalFlood {
	mrRule := func(strict bool) routing.ForwardRule {
		return func(_, from topology.NodeID, q *routing.RREQ, st *routing.NodeState) bool {
			return !st.Seen || (q.Hops() <= st.FirstHops && (!strict || from != st.FirstFrom))
		}
	}
	forwardOnce := func(_, _ topology.NodeID, _ *routing.RREQ, st *routing.NodeState) bool { return !st.Seen }
	// MR and SMR forward within mr's budget of 6 copies per node; the rest
	// of the family forwards each request once per node.
	mrFlood := routing.FloodConfig{Rule: mrRule(false), MaxForwards: 6, HopSlack: -1, SuppressReplies: true}
	smrFlood := routing.FloodConfig{Rule: mrRule(true), MaxForwards: 6, HopSlack: -1, SuppressReplies: true}
	onceFlood := routing.FloodConfig{Rule: forwardOnce, HopSlack: -1, SuppressReplies: true}
	return []arrivalFlood{
		{&mr.Protocol{}, mrFlood},
		{&mr.Protocol{IncomingLinkRule: true}, smrFlood},
		{&dsr.Protocol{}, onceFlood},
		{&mdsr.Protocol{}, onceFlood},
		{&aomdv.Protocol{}, onceFlood},
		{&aomdv.Protocol{SinglePath: true}, onceFlood},
	}
}

// TestDestinationArrivalsDistinct pins the invariant that lets the flood
// collect arrivals without a duplicate-path check: no two request copies
// reaching the destination share a node sequence. It holds for every
// protocol's flood on the reference grid, and on the attacked cluster when a
// tunnel doubles radio links (neighbor rows list each neighbor once) and
// when the tunnel is latent (link-delayed). Each protocol's own route set
// must be drawn from those arrivals in order, which ties the flood
// configurations here to the protocols.
func TestDestinationArrivalsDistinct(t *testing.T) {
	floods := arrivalFloods()
	check := func(t *testing.T, newNet func() *sim.Network, src, dst topology.NodeID) {
		for _, f := range floods {
			arrivals := routing.RunDiscovery(newNet(), src, dst, f.cfg).Routes
			for i, r := range arrivals {
				for _, s := range arrivals[i+1:] {
					if r.Equal(s) {
						t.Errorf("%s: route %v reached the destination twice", f.p.Name(), r)
					}
				}
			}
			if !subsequence(f.p.Discover(newNet(), src, dst).Routes, arrivals) {
				t.Errorf("%s: route set is not drawn from the flood's arrivals %v", f.p.Name(), arrivals)
			}
		}
	}
	refGrid(t, check)

	for _, v := range []struct {
		name  string
		build func(*topology.Network) *attack.Scenario
	}{
		{"doubled-radio-links", func(net *topology.Network) *attack.Scenario {
			for _, l := range net.Topo.Links() {
				if net.Topo.InRange(l.A, l.B) {
					net.Topo.AddExtraLink(l.A, l.B)
				}
			}
			return attack.NewScenario(net, 1, attack.Forward)
		}},
		{"latent", func(net *topology.Network) *attack.Scenario {
			return attack.NewLatentScenario(net, 1, attack.DefaultLatentDelay, attack.Forward)
		}},
	} {
		net := topology.Cluster(1, 1)
		sc := v.build(net)
		for seed := uint64(1); seed <= 25; seed++ {
			src, dst := net.PickPair(rand.New(rand.NewPCG(seed, 0)))
			t.Run(fmt.Sprintf("cluster-1/%s/seed=%d", v.name, seed), func(t *testing.T) {
				check(t, func() *sim.Network {
					s := sim.NewNetwork(net.Topo, sim.Config{Seed: seed})
					sc.Arm(s)
					return s
				}, src, dst)
			})
		}
		sc.Teardown()
	}
}

// subsequence reports whether every route of sub appears in all, in order.
func subsequence(sub, all []routing.Route) bool {
	j := 0
	for _, r := range sub {
		for j < len(all) && !all[j].Equal(r) {
			j++
		}
		if j == len(all) {
			return false
		}
		j++
	}
	return true
}
