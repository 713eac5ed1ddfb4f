// Package leash implements the geographic packet leash of Hu, Perrig and
// Johnson ("Packet Leashes", INFOCOM 2003) — the prior-art wormhole defense
// the paper compares SAM against. Each transmission carries the sender's
// claimed location and timestamp; the receiver bounds the distance the
// packet can legitimately have traveled and rejects receptions that exceed
// it. A wormhole tunnel spans many radio ranges, so tunneled packets fail
// the check immediately.
//
// The catch — and the paper's motivation for SAM — is the hardware this
// needs: every node must know its own position (GPS) and share loosely
// synchronized clocks. Both are simulated here with configurable error
// bounds, so experiments can quantify the trade-off: the leash detects
// per-packet and instantly, SAM detects per-route-discovery with no
// hardware at all.
package leash

import (
	"math/rand/v2"

	"samnet/internal/geom"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// Config sets the simulated hardware error bounds.
type Config struct {
	// Range is the nominal radio range nodes assume when checking leashes
	// (usually the topology's radius).
	Range float64
	// PosError is the maximum GPS position error per node, in the same
	// units as node coordinates. Claimed positions are perturbed uniformly
	// within a square of this half-width (default 0.1).
	PosError float64
	// ClockError is the maximum clock offset between any two nodes,
	// expressed as extra distance slack at propagation speed (default 0.05
	// units). Geographic leashes only need loose synchronization; this term
	// widens the acceptance bound accordingly.
	ClockError float64
}

func (c *Config) defaults() {
	if c.PosError == 0 {
		c.PosError = 0.1
	}
	if c.ClockError == 0 {
		c.ClockError = 0.05
	}
}

// Checker verifies geographic leashes for one network. It owns the simulated
// GPS readings (true position + bounded noise per node, fixed at creation,
// as a stationary node's GPS bias would be).
type Checker struct {
	cfg     Config
	topo    *topology.Topology
	claimed []geom.Point // per-node claimed (GPS-noisy) position

	// Checked counts leash verifications; Flagged counts rejections.
	Checked, Flagged int64
}

// New builds a Checker over topo. rng draws the per-node GPS noise; pass the
// simulation's source for reproducibility. If cfg.Range is zero the
// topology's radius is used.
func New(topo *topology.Topology, cfg Config, rng *rand.Rand) *Checker {
	cfg.defaults()
	if cfg.Range == 0 {
		cfg.Range = topo.Radius()
	}
	c := &Checker{cfg: cfg, topo: topo, claimed: make([]geom.Point, topo.N())}
	for i := 0; i < topo.N(); i++ {
		p := topo.Pos(topology.NodeID(i))
		c.claimed[i] = geom.Pt(
			p.X+(rng.Float64()*2-1)*cfg.PosError,
			p.Y+(rng.Float64()*2-1)*cfg.PosError,
		)
	}
	return c
}

// Bound returns the maximum distance a legitimate single-hop reception may
// claim: radio range plus twice the GPS error plus the clock slack.
func (c *Checker) Bound() float64 {
	return c.cfg.Range + 2*c.cfg.PosError + c.cfg.ClockError
}

// Check verifies the leash on a reception from sender to receiver: the
// distance between the claimed positions must be within Bound. It returns
// true if the reception is acceptable and false if the leash flags it.
func (c *Checker) Check(sender, receiver topology.NodeID) bool {
	c.Checked++
	ok := c.claimed[sender].Dist(c.claimed[receiver]) <= c.Bound()
	if !ok {
		c.Flagged++
	}
	return ok
}

// Monitor attaches the checker to a simulation as a passive observer: every
// delivery is leash-checked and violations are tallied per link, without
// interfering with delivery (detection, not prevention — mirroring how SAM
// observes). inner, if non-nil, is an existing drop policy (e.g. a black
// hole) that still decides actual delivery. Monitor replaces the network's
// drop func; install attack policies by passing them as inner, not by
// calling SetDropFunc afterwards. The returned tally is updated in place as
// the simulation runs.
func (c *Checker) Monitor(net *sim.Network, inner sim.DropFunc) map[topology.Link]int64 {
	tally := make(map[topology.Link]int64)
	net.SetDropFunc(func(n *sim.Network, from, to topology.NodeID, pkt sim.Packet) bool {
		if !c.Check(from, to) {
			tally[topology.MkLink(from, to)]++
		}
		if inner != nil {
			return inner(n, from, to, pkt)
		}
		return false
	})
	return tally
}

// Enforce attaches the checker as an active filter: receptions that fail the
// leash are dropped, which is packet leashes as the original defense
// intended — the wormhole simply stops working. inner composes as in
// Monitor.
func (c *Checker) Enforce(net *sim.Network, inner sim.DropFunc) {
	net.SetDropFunc(func(n *sim.Network, from, to topology.NodeID, pkt sim.Packet) bool {
		if !c.Check(from, to) {
			return true
		}
		if inner != nil {
			return inner(n, from, to, pkt)
		}
		return false
	})
}

// Verdict summarizes what the leash concluded about a run.
type Verdict struct {
	// Detected is true if any leash violation was observed.
	Detected bool
	// WorstLink is the link with the most violations (the tunnel, under a
	// wormhole attack).
	WorstLink topology.Link
	// Violations is the total number of flagged receptions.
	Violations int64
}

// Summarize turns a Monitor tally into a Verdict.
func Summarize(tally map[topology.Link]int64) Verdict {
	var v Verdict
	for l, n := range tally {
		v.Violations += n
		if !v.Detected || n > tally[v.WorstLink] ||
			(n == tally[v.WorstLink] && less(l, v.WorstLink)) {
			v.WorstLink = l
		}
		v.Detected = true
	}
	return v
}

func less(a, b topology.Link) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}
