// Package routing defines the protocol-independent vocabulary of on-demand
// route discovery: routes, RREQ/RREP packets, and the Discovery record that
// a protocol run produces, plus the one flood engine (RunDiscovery) that the
// protocols are built on. The dsr and mr subpackages implement the two
// protocols the paper compares; aomdv and mdsr implement the future-work
// protocols from its conclusion, and cdsr the cached-DSR blackhole target of
// its Section IV.
package routing

import (
	"fmt"
	"math"
	"strings"

	"samnet/internal/sim"
	"samnet/internal/topology"
)

// Route is an ordered node sequence from source to destination, both
// inclusive.
type Route []topology.NodeID

// Clone returns a copy of r.
func (r Route) Clone() Route {
	out := make(Route, len(r))
	copy(out, r)
	return out
}

// Hops returns the hop count (number of links) of r.
func (r Route) Hops() int {
	if len(r) == 0 {
		return 0
	}
	return len(r) - 1
}

// Links returns the undirected links of r in order.
func (r Route) Links() []topology.Link {
	if len(r) < 2 {
		return nil
	}
	out := make([]topology.Link, 0, len(r)-1)
	for i := 0; i+1 < len(r); i++ {
		out = append(out, topology.MkLink(r[i], r[i+1]))
	}
	return out
}

// Contains reports whether id appears in r.
func (r Route) Contains(id topology.NodeID) bool {
	for _, n := range r {
		if n == id {
			return true
		}
	}
	return false
}

// ContainsLink reports whether r traverses l (in either direction).
func (r Route) ContainsLink(l topology.Link) bool {
	for i := 0; i+1 < len(r); i++ {
		if topology.MkLink(r[i], r[i+1]) == l {
			return true
		}
	}
	return false
}

// Equal reports whether r and s visit the same nodes in the same order.
func (r Route) Equal(s Route) bool {
	if len(r) != len(s) {
		return false
	}
	for i := range r {
		if r[i] != s[i] {
			return false
		}
	}
	return true
}

// Simple reports whether r has no repeated node.
func (r Route) Simple() bool {
	seen := make(map[topology.NodeID]bool, len(r))
	for _, n := range r {
		if seen[n] {
			return false
		}
		seen[n] = true
	}
	return true
}

// Valid reports whether every consecutive pair of r is adjacent in t.
func (r Route) Valid(t *topology.Topology) bool {
	for i := 0; i+1 < len(r); i++ {
		if !t.Adjacent(r[i], r[i+1]) {
			return false
		}
	}
	return true
}

// SharedLinks returns how many of s's links (counted with repetition) r
// also traverses. Routes are a few hops long, so a nested scan beats
// building a set.
func (r Route) SharedLinks(s Route) int {
	n := 0
	for i := 0; i+1 < len(s); i++ {
		if r.ContainsLink(topology.MkLink(s[i], s[i+1])) {
			n++
		}
	}
	return n
}

// String implements fmt.Stringer, e.g. "0>5>11".
func (r Route) String() string {
	parts := make([]string, len(r))
	for i, n := range r {
		parts[i] = fmt.Sprint(int(n))
	}
	return strings.Join(parts, ">")
}

// RREQ is a route request flooded from Src toward Dst by RunDiscovery. Its
// path so far lives in the discovery's path arena, which shares prefixes
// between copies, so the request itself is a fixed-size reference; read the
// path through Hops and PathContains, which are valid only on requests
// RunDiscovery issued.
type RREQ struct {
	ReqID uint64
	Src   topology.NodeID
	Dst   topology.NodeID

	arena *pathArena
	ref   int32
}

// Hops returns the hop count of the request so far — the number the
// paper's forwarding rules compare.
func (q *RREQ) Hops() int { return int(q.arena.hops[q.ref]) }

// PathContains reports whether the request's path so far traverses id.
func (q *RREQ) PathContains(id topology.NodeID) bool { return q.arena.contains(q.ref, id) }

// RREP carries a discovered route back toward the source. Pos is the index
// (into Route) of the node currently holding the reply; it decreases as the
// reply travels src-ward (RelayRREP). aomdv's distance-vector replies do not
// follow Route and leave Pos at -1.
type RREP struct {
	ReqID uint64
	Route Route
	Pos   int
}

// PayloadPacket marks packet types that carry application payload rather
// than routing control. Attack drop policies key on this marker: wormhole
// attackers relay control traffic (to stay attractive) while destroying
// payload, so any packet an attacker may legitimately destroy — Data, ACK,
// and the verify package's challenge/proof probes — implements it.
type PayloadPacket interface {
	IsPayload()
}

// Data is a payload packet sent along a fixed source route — the probe
// packets of SAM's step 2 use it. ACK acknowledges one back to the source.
type Data struct {
	SeqNo uint64
	Route Route
	Pos   int
}

// IsPayload implements PayloadPacket.
func (*Data) IsPayload() {}

// ACK acknowledges a Data packet end-to-end along the reversed route.
type ACK struct {
	SeqNo uint64
	Route Route // the original forward route; the ACK walks it backwards
	Pos   int
}

// IsPayload implements PayloadPacket.
func (*ACK) IsPayload() {}

// Discovery is the outcome of one route discovery: the route set R the
// destination observed, plus bookkeeping.
type Discovery struct {
	Protocol string
	Src, Dst topology.NodeID

	// Routes is R — each distinct route the destination observed, in
	// arrival order. SAM's statistics are computed over this set.
	Routes []Route

	// Times holds the virtual arrival time of each collected route's RREQ
	// copy at the destination, parallel to Routes. Dividing by the route's
	// hop count gives the per-hop latency a delay-consistency detector
	// compares against the nominal hop delay.
	Times []sim.Time

	// Replies are the routes actually returned to the source (a subset of
	// Routes chosen by the protocol's reply policy — or, under a route-reply
	// forgery attack, fabricated routes that never reached the destination).
	Replies []Route

	// ReplyTimes holds the virtual time each reply reached the source,
	// parallel to Replies. Honest replies travel back only after the flood
	// completes (FloodEnd); forged replies are injected mid-flood and arrive
	// implausibly early.
	ReplyTimes []sim.Time

	// FloodEnd is the virtual time the request flood died out — the moment
	// the destination starts answering. Reply travel time is measured from
	// it.
	FloodEnd sim.Time

	// TxTotal and RxTotal are the total transmissions/receptions at all
	// nodes during discovery, including replies — Table II's overhead.
	TxTotal, RxTotal int64
}

// Overhead returns Tx+Rx, the paper's single overhead number per run.
func (d *Discovery) Overhead() int64 { return d.TxTotal + d.RxTotal }

// AffectedBy reports the fraction of discovered routes containing the given
// link (the tunnel), the paper's Table I metric. It returns 0 when no routes
// were found.
func (d *Discovery) AffectedBy(l topology.Link) float64 {
	if len(d.Routes) == 0 {
		return 0
	}
	n := 0
	for _, r := range d.Routes {
		if r.ContainsLink(l) {
			n++
		}
	}
	return float64(n) / float64(len(d.Routes))
}

// Protocol is an on-demand route-discovery protocol. Discover installs its
// handlers on net, floods a request from src to dst, runs the simulation to
// completion and returns the resulting Discovery. Implementations must be
// usable for several sequential discoveries on fresh networks; they must not
// retain references to net afterwards.
type Protocol interface {
	Name() string
	Discover(net *sim.Network, src, dst topology.NodeID) *Discovery
}

// SelectDisjoint greedily picks up to max routes from candidates, starting
// with the first (fastest) route and then repeatedly choosing the candidate
// sharing the fewest links with those already picked (ties: fewer hops, then
// earlier arrival). This is the "maximally disjoint" reply policy of SMR.
//
// Each candidate's shared-link count is a running total: a newly picked
// route is folded into every total with one pass over each candidate's
// links (disjointCounter), instead of rescanning every picked route.
func SelectDisjoint(candidates []Route, max int) []Route {
	if max <= 0 || len(candidates) == 0 {
		return nil
	}
	n := min(max, len(candidates))
	picked := make([]Route, 1, n)
	picked[0] = candidates[0]
	if n == 1 {
		return picked
	}
	dc := newDisjointCounter(candidates)
	dc.shared[0] = -1 // picked
	for len(picked) < n {
		last := picked[len(picked)-1]
		dc.mark(last)
		best, bestShared, bestHops := -1, int32(math.MaxInt32), int(^uint(0)>>1)
		for i, c := range candidates {
			if dc.shared[i] < 0 {
				continue
			}
			dc.shared[i] += dc.count(c, last, int32(i+1))
			if shared := dc.shared[i]; shared < bestShared || (shared == bestShared && c.Hops() < bestHops) {
				best, bestShared, bestHops = i, shared, c.Hops()
			}
		}
		dc.unmark(last)
		dc.shared[best] = -1
		picked = append(picked, candidates[best])
	}
	return picked
}

// disjointCounter is SelectDisjoint's scratch, carved from one allocation.
type disjointCounter struct {
	// shared[i] is candidate i's running count of links shared with the
	// picked routes, or -1 once it is picked itself.
	shared []int32
	// pos[v] is 1 + v's index in the marked route, or 0 off it; nil when a
	// candidate holds a negative node ID, which forces the nested scan.
	pos []int32
	// hit[j] is the stamp of the last candidate seen to traverse the marked
	// route's link j, so a candidate repeating a link counts it once.
	hit []int32
	// simple reports whether the marked route repeats no node, which makes
	// each of its links unique and identified by its position.
	simple bool
}

func newDisjointCounter(candidates []Route) disjointCounter {
	lo, hi, maxLen := topology.NodeID(0), topology.NodeID(0), 0
	for _, c := range candidates {
		maxLen = max(maxLen, len(c))
		for _, v := range c {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	k, nodes := len(candidates), 0
	if lo >= 0 {
		nodes = int(hi) + 1
	}
	buf := make([]int32, k+nodes+maxLen)
	d := disjointCounter{shared: buf[:k], hit: buf[k+nodes:]}
	if lo >= 0 {
		d.pos = buf[k : k+nodes]
	}
	return d
}

// mark records p's node positions for count.
func (d *disjointCounter) mark(p Route) {
	clear(d.hit)
	d.simple = d.pos != nil
	if !d.simple {
		return
	}
	for j, v := range p {
		if d.pos[v] != 0 {
			d.simple = false
		}
		d.pos[v] = int32(j + 1)
	}
}

// unmark clears what mark recorded.
func (d *disjointCounter) unmark(p Route) {
	if d.pos == nil {
		return
	}
	for _, v := range p {
		d.pos[v] = 0
	}
}

// count returns c.SharedLinks(p) for the marked route p; stamp is unique to
// c within one mark. When p is simple, a link of c lies on p exactly when
// its two nodes sit at adjacent positions of p, and each of p's links counts
// once however often c traverses it. A route with a repeated node falls back
// to the nested scan.
func (d *disjointCounter) count(c, p Route, stamp int32) int32 {
	if !d.simple {
		return int32(c.SharedLinks(p))
	}
	var n int32
	for i := 0; i+1 < len(c); i++ {
		a, b := d.pos[c[i]], d.pos[c[i+1]]
		if a == 0 || b == 0 || (a-b != 1 && b-a != 1) {
			continue
		}
		if j := min(a, b) - 1; d.hit[j] != stamp {
			d.hit[j] = stamp
			n++
		}
	}
	return n
}
