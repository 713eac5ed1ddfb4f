// Package topology models the static layout of a wireless ad hoc network:
// node positions, the unit-disk connectivity induced by a transmission
// range, and any out-of-band links (wormhole tunnels) layered on top.
//
// The paper's "k-tier" systems — each node can communicate with its
// neighbors up to k (grid) hops away — are reproduced by setting the radio
// range to k grid spacings plus a small epsilon.
package topology

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"samnet/internal/geom"
)

// NodeID identifies a node within one Topology. IDs are dense, starting at 0,
// in the order nodes were added.
type NodeID int

// None is the sentinel for "no node".
const None NodeID = -1

// RangeEpsilon is added to k grid spacings when deriving the radio range for
// a k-tier system, so that nodes exactly k units apart are neighbors while
// diagonal nodes at distance sqrt(2)k are not (for k=1).
const RangeEpsilon = 1e-3

// TierRange returns the unit-disk radius of a k-tier system on a grid with
// the given spacing.
func TierRange(k int, spacing float64) float64 {
	return float64(k)*spacing + RangeEpsilon
}

// Link is an undirected edge between two nodes, stored with A < B so that
// links compare equal regardless of direction.
type Link struct {
	A, B NodeID
}

// MkLink returns the normalized undirected link between a and b.
func MkLink(a, b NodeID) Link {
	if a > b {
		a, b = b, a
	}
	return Link{A: a, B: b}
}

// String implements fmt.Stringer.
func (l Link) String() string { return fmt.Sprintf("%d-%d", l.A, l.B) }

// Topology is an immutable-after-build node layout plus connectivity.
// It is not safe for concurrent mutation; concurrent reads are fine once
// building has finished (Freeze, or any read method, computes adjacency).
type Topology struct {
	name   string
	pos    []geom.Point
	radius float64
	extra  map[Link]bool // out-of-band links (wormhole tunnels)
	adj    [][]NodeID    // lazily built; nil when stale (nodes added or moved)
}

// New returns an empty topology whose radio range is radius.
func New(name string, radius float64) *Topology {
	if radius <= 0 {
		panic("topology: radius must be positive")
	}
	return &Topology{
		name:   name,
		radius: radius,
		extra:  make(map[Link]bool),
	}
}

// Name returns the human-readable topology name ("cluster", "uniform6x6", ...).
func (t *Topology) Name() string { return t.name }

// Radius returns the radio range.
func (t *Topology) Radius() float64 { return t.radius }

// N returns the number of nodes.
func (t *Topology) N() int { return len(t.pos) }

// AddNode appends a node at p and returns its id.
func (t *Topology) AddNode(p geom.Point) NodeID {
	t.pos = append(t.pos, p)
	t.adj = nil
	return NodeID(len(t.pos) - 1)
}

// Pos returns the position of id.
func (t *Topology) Pos(id NodeID) geom.Point { return t.pos[id] }

// SetPos moves node id to p and invalidates the adjacency cache. The
// mobility models use it between discoveries; moving nodes mid-simulation
// is not supported (a discovery sees one frozen topology, which matches the
// paper's quasi-static assumption).
func (t *Topology) SetPos(id NodeID, p geom.Point) {
	t.checkID(id)
	t.pos[id] = p
	t.adj = nil
}

// Positions returns a copy of all node positions indexed by NodeID.
func (t *Topology) Positions() []geom.Point {
	out := make([]geom.Point, len(t.pos))
	copy(out, t.pos)
	return out
}

// AddExtraLink installs an out-of-band link between a and b regardless of
// their distance. Wormhole tunnels are modeled this way: the two attacker
// nodes behave like one-hop neighbors no matter how far apart they sit.
// Built adjacency is updated in place: each endpoint enters the other's
// sorted row, unless the two are already radio neighbors.
func (t *Topology) AddExtraLink(a, b NodeID) {
	if a == b {
		panic("topology: self link")
	}
	t.checkID(a)
	t.checkID(b)
	l := MkLink(a, b)
	if t.extra[l] {
		return
	}
	t.extra[l] = true
	if t.adj != nil && !t.InRange(a, b) {
		t.adj[a] = insertSorted(t.adj[a], b)
		t.adj[b] = insertSorted(t.adj[b], a)
	}
}

// RemoveExtraLink removes a previously installed out-of-band link, updating
// built adjacency in place like AddExtraLink. It is a no-op if the link is
// not present.
func (t *Topology) RemoveExtraLink(a, b NodeID) {
	l := MkLink(a, b)
	if !t.extra[l] {
		return
	}
	delete(t.extra, l)
	if t.adj != nil && !t.InRange(a, b) {
		t.adj[a] = deleteSorted(t.adj[a], b)
		t.adj[b] = deleteSorted(t.adj[b], a)
	}
}

// ExtraLinks returns all out-of-band links in deterministic order.
func (t *Topology) ExtraLinks() []Link {
	out := make([]Link, 0, len(t.extra))
	for l := range t.extra {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// InRange reports whether a and b are within radio range of each other
// (excluding out-of-band links).
func (t *Topology) InRange(a, b NodeID) bool {
	if a == b {
		return false
	}
	return t.pos[a].Dist2(t.pos[b]) <= t.radius*t.radius
}

// Adjacent reports whether a and b share a link, via radio or tunnel.
func (t *Topology) Adjacent(a, b NodeID) bool {
	return t.InRange(a, b) || t.extra[MkLink(a, b)]
}

// Neighbors returns the neighbor list of id in ascending order. The returned
// slice is shared; callers must not modify it, nor read it after a tunnel
// change, which edits the rows in place.
func (t *Topology) Neighbors(id NodeID) []NodeID {
	t.checkID(id)
	if t.adj == nil {
		t.build()
	}
	return t.adj[id]
}

// Degree returns the number of neighbors of id.
func (t *Topology) Degree(id NodeID) int { return len(t.Neighbors(id)) }

// Links returns every link in the topology (radio and tunnel), each once,
// in deterministic order.
func (t *Topology) Links() []Link {
	t.build()
	var out []Link
	for a := range t.adj {
		for _, b := range t.adj[a] {
			if NodeID(a) < b {
				out = append(out, Link{A: NodeID(a), B: b})
			}
		}
	}
	return out
}

// Freeze forces adjacency construction now, so that later concurrent reads
// never race on the lazy build.
func (t *Topology) Freeze() { t.build() }

// Clone returns an independent copy of t: positions, extra links and, if
// built, the adjacency rows, copied into one backing array with each row
// capped at its own length. Changing the copy never changes t, so a frozen
// topology can serve as a prototype that hands out per-run copies without
// rebuilding adjacency; concurrent Clones of a frozen topology are safe.
func (t *Topology) Clone() *Topology {
	c := &Topology{
		name:   t.name,
		pos:    t.Positions(),
		radius: t.radius,
		extra:  maps.Clone(t.extra),
	}
	if t.adj != nil {
		total := 0
		for _, row := range t.adj {
			total += len(row)
		}
		flat := make([]NodeID, 0, total)
		c.adj = make([][]NodeID, len(t.adj))
		for i, row := range t.adj {
			start := len(flat)
			flat = append(flat, row...)
			c.adj[i] = flat[start:len(flat):len(flat)]
		}
	}
	return c
}

func (t *Topology) checkID(id NodeID) {
	if id < 0 || int(id) >= len(t.pos) {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", id, len(t.pos)))
	}
}

func (t *Topology) build() {
	if t.adj != nil {
		return
	}
	n := len(t.pos)
	r2 := t.radius * t.radius
	// Count degrees first so every row can be a capped window of one
	// backing array: three allocations per build (degrees, backing array,
	// row headers) instead of a few appends per node. O(n^2) is fine at the
	// paper's scales (tens of nodes); a grid index would only pay off far
	// beyond them.
	deg := make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if t.pos[i].Dist2(t.pos[j]) <= r2 {
				deg[i]++
				deg[j]++
				total += 2
			}
		}
	}
	for l := range t.extra {
		deg[l.A]++
		deg[l.B]++
		total += 2
	}
	flat := make([]NodeID, total)
	adj := make([][]NodeID, n)
	off := 0
	for i := range adj {
		adj[i] = flat[off : off : off+deg[i]]
		off += deg[i]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if t.pos[i].Dist2(t.pos[j]) <= r2 {
				adj[i] = append(adj[i], NodeID(j))
				adj[j] = append(adj[j], NodeID(i))
			}
		}
	}
	for l := range t.extra {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	for i := range adj {
		slices.Sort(adj[i])
		// Deduplicate in case a tunnel doubles a radio link.
		adj[i] = dedupSorted(adj[i])
	}
	t.adj = adj
}

// insertSorted adds v to the sorted row s if it is absent. A row at capacity
// moves to a new array; rows are capped at their own window of the shared
// backing array, so growing one never overwrites the next.
func insertSorted(s []NodeID, v NodeID) []NodeID {
	i, found := slices.BinarySearch(s, v)
	if found {
		return s
	}
	return slices.Insert(s, i, v)
}

// deleteSorted removes v from the sorted row s, within the row's window.
func deleteSorted(s []NodeID, v NodeID) []NodeID {
	if i, found := slices.BinarySearch(s, v); found {
		return slices.Delete(s, i, i+1)
	}
	return s
}

func dedupSorted(s []NodeID) []NodeID {
	if len(s) < 2 {
		return s
	}
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
