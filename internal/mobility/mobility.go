// Package mobility adds node movement on top of the static topologies — the
// extension the paper defers ("node mobility is not considered in this
// study"). The classic random-waypoint model is implemented: each mobile
// node repeatedly picks a uniform waypoint in its arena and a uniform speed
// from [MinSpeed, MaxSpeed], travels there in a straight line, pauses, and
// repeats.
//
// Movement happens between route discoveries (Advance), never during one:
// each discovery sees a frozen snapshot, matching the quasi-static regime
// where on-demand routing is meaningful. Attackers can be pinned
// (Pin) to keep the paper's fixed-attacker assumption while legitimate
// nodes roam.
package mobility

import (
	"math/rand/v2"

	"samnet/internal/geom"
	"samnet/internal/knob"
	"samnet/internal/topology"
)

// ExplicitZero requests a true zero for Config fields whose zero value means
// "use the default" — the repo-wide convention for zero-vs-unset config.
const ExplicitZero = knob.ExplicitZero

// Config parameterizes the random-waypoint model.
type Config struct {
	// Arena is the rectangle nodes roam in. Required.
	Arena geom.Rect
	// MinSpeed and MaxSpeed bound the per-leg speed in distance units per
	// unit time (defaults 0.5 and 1.5). MinSpeed must be positive: the
	// classic model's zero-minimum speed decays to a frozen network.
	MinSpeed, MaxSpeed float64
	// Pause is the dwell time at each waypoint (default 1). ExplicitZero
	// selects the zero-pause model, where nodes never dwell between legs.
	Pause float64
}

func (c *Config) defaults() {
	if c.MinSpeed == 0 {
		c.MinSpeed = 0.5
	}
	if c.MaxSpeed == 0 {
		c.MaxSpeed = 1.5
	}
	c.Pause = knob.Resolve(c.Pause, 1)
}

// Model moves the nodes of one topology.
type Model struct {
	cfg    Config
	topo   *topology.Topology
	rng    *rand.Rand
	pinned map[topology.NodeID]bool
	legs   []leg
	now    float64
}

// leg is one node's current trajectory: from -> to, departing at start with
// the given speed, then pausing until pauseUntil before the next draw.
type leg struct {
	from, to   geom.Point
	start      float64
	speed      float64
	pauseUntil float64
	paused     bool
}

// New builds a random-waypoint model over topo. rng drives waypoint and
// speed draws.
func New(topo *topology.Topology, cfg Config, rng *rand.Rand) *Model {
	cfg.defaults()
	if cfg.Arena.Width() <= 0 || cfg.Arena.Height() <= 0 {
		panic("mobility: arena must have positive area")
	}
	if cfg.MinSpeed <= 0 || cfg.MaxSpeed < cfg.MinSpeed {
		panic("mobility: speeds must satisfy 0 < min <= max")
	}
	m := &Model{
		cfg:    cfg,
		topo:   topo,
		rng:    rng,
		pinned: make(map[topology.NodeID]bool),
		legs:   make([]leg, topo.N()),
	}
	for i := range m.legs {
		m.legs[i] = m.newLeg(topo.Pos(topology.NodeID(i)), 0)
	}
	return m
}

// Pin freezes a node in place (the paper's fixed-position attackers).
func (m *Model) Pin(ids ...topology.NodeID) {
	for _, id := range ids {
		m.pinned[id] = true
	}
}

func (m *Model) newLeg(from geom.Point, start float64) leg {
	to := geom.Pt(
		m.cfg.Arena.Min.X+m.rng.Float64()*m.cfg.Arena.Width(),
		m.cfg.Arena.Min.Y+m.rng.Float64()*m.cfg.Arena.Height(),
	)
	speed := m.cfg.MinSpeed + m.rng.Float64()*(m.cfg.MaxSpeed-m.cfg.MinSpeed)
	return leg{from: from, to: to, start: start, speed: speed}
}

// Advance moves time forward by dt and updates every unpinned node's
// position, drawing new waypoints as legs complete.
func (m *Model) Advance(dt float64) {
	if dt < 0 {
		panic("mobility: negative dt")
	}
	m.now += dt
	for i := range m.legs {
		id := topology.NodeID(i)
		if m.pinned[id] {
			continue
		}
		m.topo.SetPos(id, m.positionAt(i, m.now))
	}
}

// positionAt resolves node i's position at time t, rolling legs forward as
// needed.
func (m *Model) positionAt(i int, t float64) geom.Point {
	l := &m.legs[i]
	for {
		if l.paused {
			if t < l.pauseUntil {
				return l.to
			}
			*l = m.newLeg(l.to, l.pauseUntil)
			continue
		}
		dist := l.from.Dist(l.to)
		travel := dist / l.speed
		if t < l.start+travel {
			frac := (t - l.start) / travel
			return l.from.Lerp(l.to, frac)
		}
		l.paused = true
		l.pauseUntil = l.start + travel + m.cfg.Pause
	}
}
