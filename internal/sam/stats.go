// Package sam implements the paper's contribution: Statistical Analysis of
// Multi-path routing (SAM). Given the set R of routes obtained by one route
// discovery, SAM computes link-frequency statistics — the maximum relative
// frequency p_max and the normalized top-two gap phi — and compares them (and
// the full PMF of relative frequencies) against a profile trained under
// normal conditions. A wormhole makes its tunnel link appear in nearly every
// route, so both statistics jump; the most frequent link then localizes the
// attacker pair. No time synchronization, GPS, or protocol changes are
// needed: SAM consumes only information multi-path routing already collects.
package sam

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"

	"samnet/internal/routing"
	"samnet/internal/stats"
	"samnet/internal/topology"
)

// LinkCount pairs a distinct link with its occurrence count n_i and relative
// frequency p_i = n_i/N.
type LinkCount struct {
	Link  topology.Link
	Count int
	P     float64
}

// Stats holds the statistics of one route set R, using the paper's notation:
// L is the set of distinct links, n_i the occurrences of link i, N the total
// (non-distinct) link count, p_i = n_i/N, PMax = max p_i, and
// Phi = (n_max - n_2nd) / n_max.
type Stats struct {
	Routes int // |R|
	N      int // total non-distinct links across R

	// ByLink lists every distinct link sorted by decreasing count (ties:
	// ascending link order), so ByLink[0] is the most frequent link.
	ByLink []LinkCount

	PMax    float64       // maximum relative frequency
	MaxLink topology.Link // the link achieving PMax
	NMax    int           // n_max
	N2nd    int           // n_2nd: highest count among other links
	Phi     float64       // (n_max - n_2nd)/n_max; 0 if N == 0

	// Suspect is the localization answer: the accused link. Usually it is
	// MaxLink, but when several links tie at the maximum (they then lie on
	// every route), links incident to the source or destination are
	// discarded — a bottleneck at an endpoint is expected, not evidence —
	// and the middle of the remaining chain is accused: a wormhole's entry
	// and exit links tie with the tunnel itself, and the tunnel sits
	// between them.
	Suspect topology.Link
}

// scratch holds the per-call working state of Analyze. Link counting is the
// hot path of every experiment run and every service request, so the counts
// live in a pooled open-addressing table keyed by the whole topology.Link
// (both ids, any value, one code path), and only the ByLink slice (which the
// returned Stats owns) is freshly allocated. A slot with count 0 is empty.
// used lists the occupied slots, so a call clears only what it wrote and
// sorts only the distinct links. The table doubles at half load; a table
// grown past maxRetainedSlots by one huge route set is dropped instead of
// pooled, so a single hostile request cannot pin its memory.
type scratch struct {
	slots []linkSlot // power-of-two length
	shift uint       // 64 - log2(len(slots)): a hash's top bits pick its home slot
	used  []int32    // occupied slot indices, in first-seen order
}

type linkSlot struct {
	link  topology.Link
	count int
}

// Table sizes: a new table holds 128 links before it first doubles, and one
// of more than 16,384 slots (over 8,192 distinct links, 384 KiB) is not
// pooled.
const (
	minTableBits     = 8
	maxRetainedSlots = 1 << 14
)

var scratchPool = sync.Pool{
	New: func() any { return &scratch{slots: make([]linkSlot, 1<<minTableBits), shift: 64 - minTableBits} },
}

// Analyze computes the SAM statistics of a route set. It counts links in a
// pooled table (see scratch) and allocates only the returned ByLink; a table
// that outgrew maxRetainedSlots goes to the garbage collector, not the pool.
func Analyze(routes []routing.Route) Stats {
	sc := scratchPool.Get().(*scratch)
	s := analyzeInto(sc, routes)
	if len(sc.slots) <= maxRetainedSlots {
		sc.reset()
		scratchPool.Put(sc)
	}
	return s
}

// tableSeed keys the link hash per process, so a request body cannot be
// crafted to pile its links onto one probe chain.
var tableSeed = rand.Uint64()

// find returns the slot holding l, or the empty slot where l belongs.
func (sc *scratch) find(l topology.Link) int {
	h := (uint64(l.A)^tableSeed)*0x9e3779b97f4a7c15 ^ uint64(l.B)
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	mask := len(sc.slots) - 1
	for i := int(h >> sc.shift); ; i = (i + 1) & mask {
		if s := &sc.slots[i]; s.count == 0 || s.link == l {
			return i
		}
	}
}

// add counts one occurrence of l.
func (sc *scratch) add(l topology.Link) {
	i := sc.find(l)
	if sc.slots[i].count == 0 {
		if 2*(len(sc.used)+1) > len(sc.slots) {
			sc.grow()
			i = sc.find(l)
		}
		sc.slots[i].link = l
		sc.used = append(sc.used, int32(i))
	}
	sc.slots[i].count++
}

// grow doubles the table and re-homes every occupied slot.
func (sc *scratch) grow() {
	old := sc.slots
	sc.slots = make([]linkSlot, 2*len(old))
	sc.shift--
	for k, i := range sc.used {
		j := sc.find(old[i].link)
		sc.slots[j] = old[i]
		sc.used[k] = int32(j)
	}
}

// reset empties the slots the last call used.
func (sc *scratch) reset() {
	for _, i := range sc.used {
		sc.slots[i] = linkSlot{}
	}
	sc.used = sc.used[:0]
}

// analyzeInto computes the statistics using sc's table, which must be empty
// on entry; the caller resets it afterwards.
func analyzeInto(sc *scratch, routes []routing.Route) Stats {
	var s Stats
	s.Routes = len(routes)
	// Count links in place rather than materializing a Route.Links() slice
	// per route.
	for _, r := range routes {
		for i := 0; i+1 < len(r); i++ {
			sc.add(topology.MkLink(r[i], r[i+1]))
		}
		if len(r) > 1 {
			s.N += len(r) - 1
		}
	}
	if s.N == 0 {
		return s
	}
	s.ByLink = make([]LinkCount, len(sc.used))
	for k, i := range sc.used {
		slot := sc.slots[i]
		s.ByLink[k] = LinkCount{Link: slot.link, Count: slot.count, P: float64(slot.count) / float64(s.N)}
	}
	slices.SortFunc(s.ByLink, func(a, b LinkCount) int {
		if a.Count != b.Count {
			return b.Count - a.Count
		}
		if a.Link.A != b.Link.A {
			return cmp.Compare(a.Link.A, b.Link.A)
		}
		return cmp.Compare(a.Link.B, b.Link.B)
	})
	top := s.ByLink[0]
	s.MaxLink = top.Link
	s.NMax = top.Count
	s.PMax = top.P
	if len(s.ByLink) > 1 {
		s.N2nd = s.ByLink[1].Count
	}
	// Phi = (n_max - n_2nd)/n_max. When two links tie for the maximum,
	// n_2nd == n_max and Phi = 0 — the paper's special case (attackers in
	// the same row/column as source or destination).
	s.Phi = float64(s.NMax-s.N2nd) / float64(s.NMax)
	s.Suspect = localize(sc, routes, s)
	return s
}

// localize picks the accused link from the statistics, reading the tied
// links' counts from sc's still-filled table. See Stats.Suspect.
func localize(sc *scratch, routes []routing.Route, s Stats) topology.Link {
	ties := 0
	for _, lc := range s.ByLink {
		if lc.Count != s.NMax {
			break // ByLink is sorted by decreasing count
		}
		ties++
	}
	if ties == 1 {
		// The common case: a unique maximum needs no tie-breaking state.
		return s.MaxLink
	}
	// Every tied link appears n_max times; when n_max equals the route
	// count they all lie on every route, so the first route orders them.
	// Degenerate sets may open with empty or single-node routes that carry
	// no links; skip to the first route that can order anything.
	var ref routing.Route
	for _, r := range routes {
		if len(r) >= 2 {
			ref = r
			break
		}
	}
	if ref == nil {
		return s.MaxLink
	}
	src, dst := ref[0], ref[len(ref)-1]
	tied := func(l topology.Link) bool { return sc.slots[sc.find(l)].count == s.NMax }
	inner := func(l topology.Link) bool { return l.A != src && l.B != src && l.A != dst && l.B != dst }
	// The accused link is the middle of the tied chain along ref, or of its
	// inner part (the links off both endpoints) when that is not empty. One
	// pass sizes both chains and a second walks to the middle, so a tie
	// allocates nothing.
	ordered, filtered := 0, 0
	for i := 0; i+1 < len(ref); i++ {
		if l := topology.MkLink(ref[i], ref[i+1]); tied(l) {
			ordered++
			if inner(l) {
				filtered++
			}
		}
	}
	want, innerOnly := ordered/2, false
	switch {
	case filtered > 0:
		want, innerOnly = filtered/2, true
	case ordered == 0:
		return s.MaxLink
	}
	for i := 0; ; i++ {
		l := topology.MkLink(ref[i], ref[i+1])
		if !tied(l) || innerOnly && !inner(l) {
			continue
		}
		if want == 0 {
			return l
		}
		want--
	}
}

// PMF bins the relative frequencies into a stats.PMF with the given bin
// count.
func (s Stats) PMF(bins int) *stats.PMF {
	p := stats.NewPMF(bins)
	for _, lc := range s.ByLink {
		p.Add(lc.P)
	}
	return p
}

// TopLinks returns the k most frequent links (fewer if not available).
func (s Stats) TopLinks(k int) []LinkCount {
	if k > len(s.ByLink) {
		k = len(s.ByLink)
	}
	return s.ByLink[:k]
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("routes=%d N=%d distinct=%d pmax=%.4f (link %s) phi=%.4f",
		s.Routes, s.N, len(s.ByLink), s.PMax, s.MaxLink, s.Phi)
}
