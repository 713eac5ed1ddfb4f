package sam

import (
	"sync"

	"samnet/internal/topology"
)

// NeighborTables collects per-node neighbor claims — the "who do you hear"
// reports a neighbor-table-comparison check audits. Honest nodes report
// their radio neighborhood; colluding wormhole nodes also claim the tunnel
// (both endpoints corroborate it, so a mutual-claim check alone cannot see
// it). Two audits run over the claims:
//
//   - Corroborated: a link is believable only if both endpoints claim each
//     other. Fabricated links in forged route replies fail this — the
//     invented neighbor never claimed the forger.
//   - detourHops: for a corroborated link, the hop distance between its
//     endpoints through the rest of the claimed graph. Radio links always
//     have short detours (their endpoints share a physical neighborhood); a
//     tunnel's endpoints are many honest hops apart, however loudly the
//     colluders corroborate the link itself.
//
// Claims are dense per-node lists indexed by node ID: claims[r] holds the
// neighbors r claims, each once. Node IDs are dense and degrees small on
// every topology the package audits, so both audits scan short lists and
// index flat arrays instead of hashing. Memory grows with the largest
// reporter ID, so a caller fed IDs from outside the program must bound them.
type NeighborTables struct {
	claims [][]topology.NodeID
}

// RadioNeighborTables builds the honest baseline: every node claims exactly
// its radio (in-range) neighborhood, tunnels excluded. All lists share one
// backing array, each capped at its own length, so a later ClaimLink that
// grows a list moves that list instead of overwriting the next node's.
func RadioNeighborTables(topo *topology.Topology) *NeighborTables {
	n := topo.N()
	total := 0
	for a := 0; a < n; a++ {
		total += topo.Degree(topology.NodeID(a))
	}
	flat := make([]topology.NodeID, 0, total)
	claims := make([][]topology.NodeID, n)
	for a := range claims {
		start := len(flat)
		for _, b := range topo.Neighbors(topology.NodeID(a)) {
			if topo.InRange(topology.NodeID(a), b) {
				flat = append(flat, b)
			}
		}
		claims[a] = flat[start:len(flat):len(flat)]
	}
	return &NeighborTables{claims: claims}
}

// Claim records that reporter lists neighbor in its neighbor table. A
// self-claim or a negative node ID is a caller bug and panics.
func (t *NeighborTables) Claim(reporter, neighbor topology.NodeID) {
	if reporter == neighbor {
		panic("sam: self neighbor claim")
	}
	if reporter < 0 || neighbor < 0 {
		panic("sam: negative node id in neighbor claim")
	}
	if t.claimed(reporter, neighbor) {
		return
	}
	if grow := int(reporter) + 1 - len(t.claims); grow > 0 {
		t.claims = append(t.claims, make([][]topology.NodeID, grow)...)
	}
	t.claims[reporter] = append(t.claims[reporter], neighbor)
}

// ClaimLink records mutual claims for both endpoints — how colluding
// attackers corroborate their own tunnel, and how honest radio links enter
// the tables.
func (t *NeighborTables) ClaimLink(a, b topology.NodeID) {
	t.Claim(a, b)
	t.Claim(b, a)
}

// claimed reports whether reporter lists neighbor. IDs outside the table
// claim nothing.
func (t *NeighborTables) claimed(reporter, neighbor topology.NodeID) bool {
	if reporter < 0 || int(reporter) >= len(t.claims) {
		return false
	}
	for _, x := range t.claims[reporter] {
		if x == neighbor {
			return true
		}
	}
	return false
}

// Corroborated reports whether a and b both claim each other.
func (t *NeighborTables) Corroborated(a, b topology.NodeID) bool {
	return t.claimed(a, b) && t.claimed(b, a)
}

// detourScratch is the breadth-first search state detourHops reuses across
// links. Between searches every dist entry is -1; queue lists the nodes a
// search reached, which are exactly the entries it must reset.
type detourScratch struct {
	dist  []int32
	queue []topology.NodeID
}

// detourPool lends scratch to audits, keeping NeighborTables and the
// HybridDetector that holds one safe for concurrent use.
var detourPool = sync.Pool{New: func() any { return new(detourScratch) }}

// detourHops returns the hop distance between l's endpoints through the
// corroborated claim graph with l itself removed — the length of the honest
// detour around the link. It returns -1 when no detour exists. Radio links
// detour in 2–3 hops on the paper's topologies; a corroborated tunnel can
// only detour over the many-hop honest path it shortcuts.
func (t *NeighborTables) detourHops(l topology.Link, sc *detourScratch) int {
	if l.A == l.B {
		return 0
	}
	if l.A < 0 || int(l.A) >= len(t.claims) {
		return -1 // an endpoint that claims nothing has no edges
	}
	for len(sc.dist) < len(t.claims) {
		sc.dist = append(sc.dist, -1)
	}
	// Plain BFS; the hop count does not depend on the order neighbors are
	// visited in. A corroborated neighbor claims x back, so it is inside the
	// table and indexes dist.
	dist := sc.dist
	dist[l.A] = 0
	queue := append(sc.queue[:0], l.A)
	hops := -1
	for head := 0; head < len(queue) && hops < 0; head++ {
		x := queue[head]
		for _, y := range t.claims[x] {
			if !t.claimed(y, x) {
				continue // uncorroborated: not a usable edge
			}
			if (x == l.A && y == l.B) || (x == l.B && y == l.A) {
				continue // the link under audit is excluded
			}
			if dist[y] >= 0 {
				continue
			}
			dist[y] = dist[x] + 1
			queue = append(queue, y)
			if y == l.B {
				hops = int(dist[y])
				break
			}
		}
	}
	for _, x := range queue {
		dist[x] = -1
	}
	sc.queue = queue
	return hops
}
