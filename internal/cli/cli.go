// Package cli holds the logic the command-line tools and the service share:
// resolving topology and protocol names to constructors, and the scenario
// cell every discovery outside the paper sweeps is built from. Keeping it out
// of the main packages makes it testable.
package cli

import (
	"fmt"
	"math/rand/v2"

	"samnet/internal/routing"
	"samnet/internal/routing/aomdv"
	"samnet/internal/routing/dsr"
	"samnet/internal/routing/mdsr"
	"samnet/internal/routing/mr"
	"samnet/internal/topology"
)

// TopologyNames lists the accepted -topo values.
var TopologyNames = []string{"cluster", "uniform6x6", "uniform10x6", "random"}

// BuildTopology resolves a -topo flag value. tier applies to grid
// topologies; seed drives random placement. All topologies are built with
// two (inactive) attacker pairs so any wormhole count up to 2 can be armed.
func BuildTopology(name string, tier int, seed uint64) (*topology.Network, error) {
	switch name {
	case "cluster":
		return topology.Cluster(tier, 2), nil
	case "uniform6x6":
		return topology.Uniform(6, 6, tier, 2), nil
	case "uniform10x6":
		return topology.Uniform(10, 6, tier, 2), nil
	case "random":
		rng := rand.New(rand.NewPCG(seed, 0xda7a))
		return topology.Random(topology.RandomConfig{Wormholes: 2}, rng), nil
	}
	return nil, fmt.Errorf("unknown topology %q (want one of %v)", name, TopologyNames)
}

// ProtocolNames lists the accepted -protocol values.
var ProtocolNames = []string{"mr", "smr", "dsr", "aomdv", "aodv", "mdsr"}

// BuildProtocol resolves a -protocol flag value.
func BuildProtocol(name string) (routing.Protocol, error) {
	switch name {
	case "mr":
		return &mr.Protocol{}, nil
	case "smr":
		return &mr.Protocol{IncomingLinkRule: true}, nil
	case "dsr":
		return &dsr.Protocol{}, nil
	case "aomdv":
		return &aomdv.Protocol{}, nil
	case "aodv":
		return &aomdv.Protocol{SinglePath: true}, nil
	case "mdsr":
		return &mdsr.Protocol{}, nil
	}
	return nil, fmt.Errorf("unknown protocol %q (want one of %v)", name, ProtocolNames)
}
