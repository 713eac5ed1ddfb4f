package cli

import (
	"errors"
	"fmt"
	"strings"

	"samnet/internal/attack"
	"samnet/internal/routing"
	"samnet/internal/routing/dsr"
	"samnet/internal/routing/mr"
	"samnet/internal/runner"
	"samnet/internal/sam"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// The scenario cell: one network condition — the (topology, transmission
// range, protocol) axes the paper trains a profile per (§IV), plus the
// adversary armed on it — evaluated at grid point (seed, run). Batch
// training, verification, samtrain, samsim and samload all build their
// discoveries here, so one (scenario, seed, run) names the same topology,
// source/destination pair and simulation in every one of them (DESIGN §6).

// Scenario is one validated network condition. Build it with Resolve, and
// arm an adversary on it with Armed.
type Scenario struct {
	// Label names the condition ("cluster-1tier/MR"); every cell's random
	// streams derive from it, so a clean and an armed scenario share their
	// cells' topologies, pairs and simulation seeds.
	Label string
	Topo  string
	Tier  int
	Proto routing.Protocol
	// Wormholes is the number of classic tunnels armed (0 = clean).
	Wormholes int
	// Variant names an attack.Named variant; "" or "classic" arms Wormholes
	// classic tunnels.
	Variant  string
	Behavior attack.PayloadBehavior
	// Forge is the "forge" behaviour: the attackers forward payload but
	// answer verification probes with fabricated proofs.
	Forge bool

	pairs int // attacker pairs the topology provides
}

// ParseBehavior maps a behaviour name to the attack model. "" is blackhole;
// "forge" is forward-but-fabricate: payload passes, probe answers are forged.
func ParseBehavior(s string) (b attack.PayloadBehavior, forge bool, err error) {
	switch s {
	case "", "blackhole":
		return attack.Blackhole, false, nil
	case "greyhole":
		return attack.Greyhole, false, nil
	case "forward":
		return attack.Forward, false, nil
	case "forge":
		return attack.Forward, true, nil
	}
	return 0, false, fmt.Errorf("unknown behavior %q (want blackhole, greyhole, forward or forge)", s)
}

// Resolve validates a clean scenario: tier in [1,4] and known protocol and
// topology names. The error texts are the service's 400 bodies.
func Resolve(topo string, tier int, protocol string) (Scenario, error) {
	if tier < 1 || tier > 4 {
		return Scenario{}, fmt.Errorf("tier %d out of range [1,4]", tier)
	}
	proto, err := BuildProtocol(protocol)
	if err != nil {
		return Scenario{}, err
	}
	// Build the topology once to reject unknown names and count its attacker
	// pairs; every cell rebuilds it with its own seed.
	net, err := BuildTopology(topo, tier, 0)
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{
		Label: fmt.Sprintf("%s-%dtier/%s", topo, tier, proto.Name()),
		Topo:  topo,
		Tier:  tier,
		Proto: proto,
		pairs: len(net.AttackerPairs),
	}, nil
}

// Armed returns sc with an adversary: wormholes classic tunnels or the named
// attack variant, with the given payload behaviour (ParseBehavior). It
// rejects an unknown behaviour, a wormhole count beyond the topology's
// attacker pairs, an unknown variant, and the forge variant on a protocol
// without a forge hook. The error texts are the service's 400 bodies.
func (sc Scenario) Armed(wormholes int, behavior, variant string) (Scenario, error) {
	b, forge, err := ParseBehavior(behavior)
	if err != nil {
		return Scenario{}, err
	}
	if wormholes < 0 || wormholes > sc.pairs {
		return Scenario{}, fmt.Errorf("wormholes %d out of range [0,%d]", wormholes, sc.pairs)
	}
	if variant != "" && variant != "classic" {
		net, _ := BuildTopology(sc.Topo, sc.Tier, 0)
		if _, err := attack.Named(variant, net, b); err != nil {
			return Scenario{}, err
		}
		if variant == "forge" && withForge(sc.Proto, nil) == nil {
			return Scenario{}, errors.New(`attack "forge" requires the mr or dsr protocol`)
		}
	}
	sc.Wormholes, sc.Behavior, sc.Forge, sc.Variant = wormholes, b, forge, variant
	return sc, nil
}

// ProfileName is the scenario's default profile store name: the label with
// its slash flattened, so the profile stays addressable as one URL path
// segment under GET /v1/profiles/{name}.
func (sc Scenario) ProfileName() string { return strings.ReplaceAll(sc.Label, "/", "-") }

// Cell is one (seed, run) point of a scenario grid: its own topology with the
// scenario's attack installed, an armed simulation network, and the
// source/destination pair.
type Cell struct {
	Net    *topology.Network
	Attack *attack.Scenario // nil on a clean cell
	// Proto is the scenario's protocol, with the forge variant's hook wired
	// in.
	Proto    routing.Protocol
	Sim      *sim.Network
	Src, Dst topology.NodeID
}

// Cell builds grid point (seed, run). Its three random streams — placement,
// pair and simulation — derive from (seed, Label+"/topo"|"/pair"|"/sim",
// run), a pure function of the cell's grid coordinates. The pair is drawn
// after the attack is built, because the chain variant removes its
// colluders from the endpoint pools.
func (sc Scenario) Cell(seed uint64, run int) Cell {
	net, err := BuildTopology(sc.Topo, sc.Tier, runner.DeriveSeed(seed, sc.Label+"/topo", run))
	if err != nil {
		panic(err) // Resolve accepted the name
	}
	c := Cell{Net: net, Proto: sc.Proto}
	switch sc.Variant {
	case "", "classic":
		if sc.Wormholes > 0 {
			c.Attack = attack.NewScenario(net, sc.Wormholes, sc.Behavior)
		}
	default:
		if c.Attack, err = attack.Named(sc.Variant, net, sc.Behavior); err != nil {
			panic(err) // Armed accepted the name
		}
		if sc.Variant == "forge" {
			c.Proto = withForge(sc.Proto, c.Attack.ForgeFunc())
		}
	}
	c.Src, c.Dst = net.PickPair(runner.StreamRNG(seed, sc.Label+"/pair", run))
	c.Sim = sim.NewNetwork(net.Topo, sim.Config{Seed: runner.DeriveSeed(seed, sc.Label+"/sim", run)})
	if c.Attack != nil {
		c.Attack.Arm(c.Sim)
	}
	return c
}

// withForge returns a copy of proto with its forge hook set to f, or nil when
// the protocol has no forge hook.
func withForge(proto routing.Protocol, f routing.ForgeFunc) routing.Protocol {
	switch p := proto.(type) {
	case *mr.Protocol:
		q := *p
		q.Forge = f
		return &q
	case *dsr.Protocol:
		q := *p
		q.Forge = f
		return &q
	}
	return nil
}

// Discover runs the cell's route discovery.
func (c Cell) Discover() *routing.Discovery { return c.Proto.Discover(c.Sim, c.Src, c.Dst) }

// Train folds runs discoveries of every scenario into one trainer per
// scenario. The scenarios x runs cells run on a pool of parallel workers
// (runner.MapGridWorkerProgress; pr may be nil) and each trainer folds its
// cells in run order, so the profiles are byte-identical at any parallelism.
// A normal-condition profile needs clean scenarios (no wormholes, no attack).
func Train(scenarios []Scenario, seed uint64, runs, parallel int, pr runner.Progress) []*sam.Trainer {
	grid := runner.MapGridWorkerProgress(parallel, len(scenarios), runs, pr,
		func() struct{} { return struct{}{} },
		func(o, i int, _ struct{}) []routing.Route { return scenarios[o].Cell(seed, i).Discover().Routes })
	trainers := make([]*sam.Trainer, len(scenarios))
	for o, sc := range scenarios {
		trainers[o] = sam.NewTrainer(sc.Label, sam.DefaultPMFBins)
		if o < len(grid) {
			for _, routes := range grid[o] {
				trainers[o].ObserveRoutes(routes)
			}
		}
	}
	return trainers
}
