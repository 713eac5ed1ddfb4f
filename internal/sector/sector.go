// Package sector implements the MAD distance-bounding check of SECTOR
// (Capkun, Buttyan, Hubaux — SASN 2003), the second prior-art wormhole
// defense the paper's related work describes: "SECTOR requires special
// hardware at each node to respond to a one-bit challenge with one-bit
// response immediately using MAD protocol."
//
// The principle: a node challenges its neighbor with a random bit; the
// neighbor's dedicated hardware answers in (essentially) zero processing
// time, so the round-trip time bounds the distance at the speed of light —
// a tunnel endpoint relaying challenges to its far-away peer cannot beat
// physics, and the measured distance exposes the wormhole at a single hop.
//
// Simulation substitutes: true inter-node distances stand in for signal
// propagation, with a configurable processing-time error that inflates every
// measurement (the hardware's jitter). Like the leash, the check needs
// per-node hardware SAM does without — that trade-off is the comparison the
// baselines experiment quantifies.
package sector

import (
	"math/rand/v2"

	"samnet/internal/topology"
)

// Config sets the simulated hardware characteristics.
type Config struct {
	// Range is the radio range nodes assume when judging a measured
	// distance (defaults to the topology's radius).
	Range float64
	// ProcessingError is the maximum distance overestimate caused by
	// response-hardware jitter, in position units (default 0.15). Each
	// measurement draws a fresh error in [0, ProcessingError].
	ProcessingError float64
}

// Prover runs MAD distance-bounding checks over one topology.
type Prover struct {
	cfg  Config
	topo *topology.Topology
	rng  *rand.Rand

	// Checked and Flagged count measurements and violations.
	Checked, Flagged int64
}

// New builds a Prover. rng draws per-measurement jitter; pass the
// simulation's source for reproducibility.
func New(topo *topology.Topology, cfg Config, rng *rand.Rand) *Prover {
	if cfg.Range == 0 {
		cfg.Range = topo.Radius()
	}
	if cfg.ProcessingError == 0 {
		cfg.ProcessingError = 0.15
	}
	return &Prover{cfg: cfg, topo: topo, rng: rng}
}

// Bound returns the maximum distance a measurement may report for a
// legitimate neighbor: the radio range plus the full processing slack.
func (p *Prover) Bound() float64 { return p.cfg.Range + p.cfg.ProcessingError }

// Measure performs one distance-bounding exchange between a challenger and
// a claimed neighbor, returning the measured distance. A wormhole endpoint
// answering on behalf of its remote peer reports the full physical distance
// between challenger and peer: the tunnel cannot shorten light's round trip.
func (p *Prover) Measure(challenger, neighbor topology.NodeID) float64 {
	p.Checked++
	true2 := p.topo.Pos(challenger).Dist(p.topo.Pos(neighbor))
	return true2 + p.rng.Float64()*p.cfg.ProcessingError
}

// SweepNeighbors distance-bounds every adjacency in the topology (both
// directions, as each node challenges its own neighbor list) and returns the
// flagged links with their worst measured distance.
func (p *Prover) SweepNeighbors() map[topology.Link]float64 {
	flagged := make(map[topology.Link]float64)
	for i := 0; i < p.topo.N(); i++ {
		a := topology.NodeID(i)
		for _, b := range p.topo.Neighbors(a) {
			d := p.Measure(a, b)
			if d > p.Bound() {
				p.Flagged++
				l := topology.MkLink(a, b)
				if d > flagged[l] {
					flagged[l] = d
				}
			}
		}
	}
	return flagged
}
