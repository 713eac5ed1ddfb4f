package topology

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"samnet/internal/geom"
)

// Network bundles a topology with the experiment-facing metadata the paper's
// setups imply: which nodes may be chosen as source/destination, and where
// the attacker nodes sit. Attacker nodes are always present — in normal
// ("no attack") runs they behave as ordinary relays; installing the tunnel
// between a pair is the attack package's job.
type Network struct {
	Topo *Topology

	// SrcPool and DstPool are the candidate source/destination nodes for a
	// route discovery, per the paper's placement rules (cluster A to cluster
	// B; left side to right side).
	SrcPool, DstPool []NodeID

	// AttackerPairs lists wormhole endpoint pairs, in the order experiments
	// enable them (fig15 uses one, then two).
	AttackerPairs [][2]NodeID
}

// Clone returns an independent copy of n: its topology (Topology.Clone), its
// pools and its attacker pairs. Attack scenarios install tunnels on a network
// and filter its pools in place (NewChainScenario), so a builder that keeps
// a prototype network hands each run a Clone and never lets a run touch the
// prototype.
func (n *Network) Clone() *Network {
	return &Network{
		Topo:          n.Topo.Clone(),
		SrcPool:       slices.Clone(n.SrcPool),
		DstPool:       slices.Clone(n.DstPool),
		AttackerPairs: slices.Clone(n.AttackerPairs),
	}
}

// Attackers returns the set of all attacker node ids.
func (n *Network) Attackers() map[NodeID]bool {
	out := make(map[NodeID]bool, 2*len(n.AttackerPairs))
	for _, p := range n.AttackerPairs {
		out[p[0]] = true
		out[p[1]] = true
	}
	return out
}

// PickPair draws a (source, destination) pair from the pools using rng.
// Attacker nodes never appear in the pools, and source != destination is
// guaranteed because the pools are disjoint in every builder.
func (n *Network) PickPair(rng *rand.Rand) (src, dst NodeID) {
	src = n.SrcPool[rng.IntN(len(n.SrcPool))]
	dst = n.DstPool[rng.IntN(len(n.DstPool))]
	return src, dst
}

// TunnelSpan returns the normal-path hop distance between the endpoints of
// attacker pair i, computed with all tunnels removed. It measures how many
// hops the wormhole shortcuts.
func (n *Network) TunnelSpan(i int) int {
	pair := n.AttackerPairs[i]
	extras := n.Topo.ExtraLinks()
	for _, l := range extras {
		n.Topo.RemoveExtraLink(l.A, l.B)
	}
	d := n.Topo.HopDist(pair[0], pair[1])
	for _, l := range extras {
		n.Topo.AddExtraLink(l.A, l.B)
	}
	return d
}

// Cluster builds the paper's 2-cluster system (Fig. 1): two 4x4 clusters
// joined by a 2x5 bridge, 42 nodes total, at unit grid spacing. k is the
// tier (transmission range = k grid spacings).
//
// Attacker pair 0 is a malicious insider in each cluster — the node at (1,1)
// in cluster A and (10,2) in cluster B. Their tunnel shortcuts 10 normal
// hops at 1-tier (the paper's "long attack link") and beats the 2x5 bridge
// for every source/destination pair, which is why the paper sees 100% of
// cluster-topology routes affected. Attackers are removed from the
// source/destination pools. wormholes may be 0..2; pair 1 claims (2,2) and
// (11,1).
func Cluster(k, wormholes int) *Network {
	if k < 1 {
		panic("topology: tier must be >= 1")
	}
	t := New(fmt.Sprintf("cluster-%dtier", k), TierRange(k, 1))
	net := &Network{Topo: t}

	// Cluster A: 4x4 at x in [0,3], y in [0,3].
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			id := t.AddNode(geom.Pt(float64(x), float64(y)))
			net.SrcPool = append(net.SrcPool, id)
		}
	}
	// Bridge: 2 rows x 5 columns at x in [4,8], y in {1,2}.
	for x := 4; x <= 8; x++ {
		for y := 1; y <= 2; y++ {
			t.AddNode(geom.Pt(float64(x), float64(y)))
		}
	}
	// Cluster B: 4x4 at x in [9,12], y in [0,3].
	for x := 9; x < 13; x++ {
		for y := 0; y < 4; y++ {
			id := t.AddNode(geom.Pt(float64(x), float64(y)))
			net.DstPool = append(net.DstPool, id)
		}
	}
	claimAttackerPairs(net, wormholes, [][2]geom.Point{
		{geom.Pt(2, 1), geom.Pt(10, 2)},
		{geom.Pt(1, 2), geom.Pt(11, 1)},
	})
	t.Freeze()
	return net
}

// Uniform builds a cols x rows uniform grid (Fig. 2 uses 6x6; the long-
// tunnel variant in Fig. 8 uses 10x6) at unit spacing and tier k. Sources
// are drawn from the leftmost two columns and destinations from the
// rightmost two, per the paper ("close to one attacker ... opposite side").
//
// Attacker pair 0 is a malicious insider on each vertical edge, offset one
// row from each other: (0,2) and (cols-1,3) for six rows. That reproduces
// the paper's tunnel spans exactly — 6 hops in the 6x6 grid, 10 hops in the
// 10x6 grid of Fig. 8. wormholes may be 0..2; pair 1 claims (1,0) and
// (cols-2,rows-1).
func Uniform(cols, rows, k, wormholes int) *Network {
	if cols < 3 || rows < 3 {
		panic("topology: uniform grid too small")
	}
	if k < 1 {
		panic("topology: tier must be >= 1")
	}
	t := New(fmt.Sprintf("uniform%dx%d-%dtier", cols, rows, k), TierRange(k, 1))
	net := &Network{Topo: t}
	for x := 0; x < cols; x++ {
		for y := 0; y < rows; y++ {
			id := t.AddNode(geom.Pt(float64(x), float64(y)))
			if x < 2 {
				net.SrcPool = append(net.SrcPool, id)
			}
			if x >= cols-2 {
				net.DstPool = append(net.DstPool, id)
			}
		}
	}
	mid := rows / 2
	claimAttackerPairs(net, wormholes, [][2]geom.Point{
		{geom.Pt(0, float64(mid-1)), geom.Pt(float64(cols-1), float64(mid))},
		{geom.Pt(1, 0), geom.Pt(float64(cols-2), float64(rows-1))},
	})
	t.Freeze()
	return net
}

// RandomConfig parameterizes Random.
type RandomConfig struct {
	N      int     // node count (default 60)
	Side   float64 // square side length (default 15)
	Radius float64 // radio range (default 2.3)
	// Wormholes is the number of attacker pairs (0..2). Attackers sit at
	// fixed positions on the left/right edges, as in the paper's fixed-
	// position assumption.
	Wormholes int
	// MaxTries bounds the rejection sampling for a connected placement
	// (default 50000). About 1 draw in 250 is connected at the other
	// defaults, and some placements an experiment sweep needs take more
	// than 2000 tries.
	MaxTries int
}

func (c *RandomConfig) defaults() {
	if c.N == 0 {
		c.N = 60
	}
	if c.Side == 0 {
		c.Side = 15
	}
	if c.Radius == 0 {
		c.Radius = 2.3
	}
	if c.MaxTries == 0 {
		c.MaxTries = 50000
	}
}

// validate panics, naming the field, when a defaulted config cannot describe
// a placement: a negative Side would mirror the square and skew the pools,
// and a negative N or MaxTries, or too few nodes for the attackers, would
// fail far from its cause.
func (c *RandomConfig) validate() {
	finite := func(x float64) bool { return x > 0 && !math.IsInf(x, 1) }
	switch {
	case c.N < 1:
		panic(fmt.Sprintf("topology: RandomConfig.N must be >= 1, got %d", c.N))
	case !finite(c.Side):
		panic(fmt.Sprintf("topology: RandomConfig.Side must be positive and finite, got %v", c.Side))
	case !finite(c.Radius):
		panic(fmt.Sprintf("topology: RandomConfig.Radius must be positive and finite, got %v", c.Radius))
	case c.MaxTries < 1:
		panic(fmt.Sprintf("topology: RandomConfig.MaxTries must be >= 1, got %d", c.MaxTries))
	case c.Wormholes < 0 || c.Wormholes > 2:
		panic(fmt.Sprintf("topology: RandomConfig.Wormholes must be in [0,2], got %d", c.Wormholes))
	case c.N < 2*c.Wormholes:
		panic(fmt.Sprintf("topology: RandomConfig.N must be >= 2*Wormholes = %d, got %d", 2*c.Wormholes, c.N))
	}
}

// Random builds a random topology (Fig. 9): N nodes placed uniformly at
// random in a Side x Side square, redrawn until the network is connected.
// Sources come from the left quarter and destinations from the right
// quarter ("close to one attacker ... opposite side", as in the paper's
// uniform setup); if a draw leaves either pool empty it is rejected too.
// Attacker pair 0 claims the placed nodes nearest (Side/6, Side/2) and
// (5*Side/6, Side/2) — one embedded in each end region, mirroring the grid
// setups where each attacker sits close to one traffic pool; pair 1 claims
// nodes displaced a quarter-side vertically from pair 0.
//
// Most draws are disconnected at the paper's density (about 1 in 250 is
// connected at the defaults), so a draw is tested on its positions alone and
// a Topology is built only once it passes; rejected draws allocate nothing.
// Most rejected draws leave some node isolated, and the test rejects those
// before it runs a BFS. Callers that need one placement again keep the
// network and Clone it instead of redrawing it.
//
// Random panics, before its first try and naming the field, on a config
// that zero fields cannot fix: N < 1, a Side or Radius that is not positive
// and finite, MaxTries < 1, Wormholes outside [0, 2], or fewer than two
// nodes per attacker pair. It also panics when MaxTries draws find no
// connected placement.
func Random(cfg RandomConfig, rng *rand.Rand) *Network {
	cfg.defaults()
	cfg.validate()
	pos := make([]geom.Point, cfg.N)
	rest := make([]int32, cfg.N)
	queue := make([]int32, 0, cfg.N)
	for try := 0; try < cfg.MaxTries; try++ {
		for i := range pos {
			pos[i] = geom.Pt(rng.Float64()*cfg.Side, rng.Float64()*cfg.Side)
		}
		if !placementConnected(pos, cfg.Radius, rest, queue) {
			continue
		}
		if net := randomNetwork(cfg, pos); net != nil {
			return net
		}
	}
	panic("topology: could not draw a connected random topology; raise Radius or N")
}

// randomNetwork builds Random's network over one connected placement, or
// returns nil if claiming the attackers leaves either traffic pool empty.
func randomNetwork(cfg RandomConfig, pos []geom.Point) *Network {
	t := New("random", cfg.Radius)
	net := &Network{Topo: t}
	for _, p := range pos {
		id := t.AddNode(p)
		switch {
		case p.X < cfg.Side/4:
			net.SrcPool = append(net.SrcPool, id)
		case p.X > 3*cfg.Side/4:
			net.DstPool = append(net.DstPool, id)
		}
	}
	mid := cfg.Side / 2
	claimAttackerPairs(net, cfg.Wormholes, [][2]geom.Point{
		{geom.Pt(cfg.Side/6, mid), geom.Pt(5*cfg.Side/6, mid)},
		{geom.Pt(cfg.Side/6, mid/2), geom.Pt(5*cfg.Side/6, 3*mid/2)},
	})
	if len(net.SrcPool) == 0 || len(net.DstPool) == 0 {
		return nil
	}
	t.Freeze()
	return net
}

// placementConnected reports whether the unit-disk graph of the given
// radius over pos is connected: the predicate Topology.build and Connected
// evaluate, without building either. rest and queue are caller-owned scratch
// with capacity len(pos); the check allocates nothing.
//
// It first rejects a placement in which some node has no neighbor in range
// (someIsolated), which settles most disconnected draws cheaply; queue's
// backing array serves as that scan's bitset. Otherwise it is a BFS from
// node 0 in which each dequeued node scans only the nodes not yet reached,
// removing the ones in range from rest by swap-remove. Both stages use the
// same Dist2 <= r*r test, so the first stage never changes the answer.
func placementConnected(pos []geom.Point, radius float64, rest, queue []int32) bool {
	if len(pos) == 0 {
		return true
	}
	r2 := radius * radius
	if len(pos) > 1 && someIsolated(pos, r2, queue[:(len(pos)+31)/32]) {
		return false
	}
	rest = rest[:len(pos)-1]
	for i := range rest {
		rest[i] = int32(i + 1)
	}
	queue = append(queue[:0], 0)
	for head := 0; head < len(queue) && len(rest) > 0; head++ {
		p := pos[queue[head]]
		for k := 0; k < len(rest); {
			if v := rest[k]; p.Dist2(pos[v]) <= r2 {
				queue = append(queue, v)
				rest[k] = rest[len(rest)-1]
				rest = rest[:len(rest)-1]
			} else {
				k++
			}
		}
	}
	return len(rest) == 0
}

// someIsolated reports whether some node of pos has no other node within
// squared distance r2. Each node's scan stops at its first neighbor. A node
// that finds neighbor j marks j in marked, a caller-owned bitset of
// ceil(len(pos)/32) words, and the scan skips marked nodes: Dist2 is
// symmetric, so j has a neighbor too. Each scan looks ahead of i first,
// where a found neighbor is one still to be scanned.
func someIsolated(pos []geom.Point, r2 float64, marked []int32) bool {
	clear(marked)
nodes:
	for i := range pos {
		if marked[i>>5]&(1<<(i&31)) != 0 {
			continue
		}
		p := pos[i]
		for j := i + 1; j < len(pos); j++ {
			if p.Dist2(pos[j]) <= r2 {
				marked[j>>5] |= 1 << (j & 31)
				continue nodes
			}
		}
		for _, q := range pos[:i] {
			if p.Dist2(q) <= r2 {
				continue nodes
			}
		}
		return true
	}
	return false
}

// claimAttackerPairs designates, for each requested wormhole, the two
// existing nodes nearest the given anchor points as the attacker pair —
// malicious insiders at fixed positions, per the paper's model. Claimed
// nodes are removed from the source/destination pools.
func claimAttackerPairs(net *Network, wormholes int, anchors [][2]geom.Point) {
	if wormholes < 0 || wormholes > len(anchors) {
		panic(fmt.Sprintf("topology: wormholes must be in [0,%d]", len(anchors)))
	}
	claimed := make(map[NodeID]bool)
	for i := 0; i < wormholes; i++ {
		a := NearestUnclaimed(net.Topo, anchors[i][0], claimed)
		claimed[a] = true
		b := NearestUnclaimed(net.Topo, anchors[i][1], claimed)
		claimed[b] = true
		net.AttackerPairs = append(net.AttackerPairs, [2]NodeID{a, b})
	}
	net.SrcPool = WithoutNodes(net.SrcPool, claimed)
	net.DstPool = WithoutNodes(net.DstPool, claimed)
}

// NearestUnclaimed returns the placed node nearest p that is not in
// claimed (ties go to the lower ID). It panics when every node is claimed.
func NearestUnclaimed(t *Topology, p geom.Point, claimed map[NodeID]bool) NodeID {
	best := None
	bestD := math.MaxFloat64
	for i := 0; i < t.N(); i++ {
		id := NodeID(i)
		if claimed[id] {
			continue
		}
		if d := t.Pos(id).Dist2(p); d < bestD {
			best, bestD = id, d
		}
	}
	if best == None {
		panic("topology: every node is already claimed")
	}
	return best
}

// WithoutNodes filters the nodes in drop out of a source/destination pool in
// place.
func WithoutNodes(pool []NodeID, drop map[NodeID]bool) []NodeID {
	out := pool[:0]
	for _, id := range pool {
		if !drop[id] {
			out = append(out, id)
		}
	}
	return out
}
