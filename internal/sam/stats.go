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
	"fmt"
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
// hot path of every experiment run and every service request, so the count
// map is pooled and reused instead of reallocated per route set; only the
// ByLink slice (which the returned Stats owns) is freshly allocated.
type scratch struct {
	counts map[topology.Link]int
}

var scratchPool = sync.Pool{
	New: func() any { return &scratch{counts: make(map[topology.Link]int, 128)} },
}

// Analyze computes the SAM statistics of a route set.
func Analyze(routes []routing.Route) Stats {
	sc := scratchPool.Get().(*scratch)
	s := analyzeInto(sc, routes)
	clear(sc.counts)
	scratchPool.Put(sc)
	return s
}

// analyzeInto computes the statistics using sc's buffers. sc.counts must be
// empty on entry; the caller clears it afterwards.
func analyzeInto(sc *scratch, routes []routing.Route) Stats {
	var s Stats
	s.Routes = len(routes)
	counts := sc.counts
	// Count links in place rather than materializing a Route.Links() slice
	// per route.
	for _, r := range routes {
		for i := 0; i+1 < len(r); i++ {
			counts[topology.MkLink(r[i], r[i+1])]++
		}
		if len(r) > 1 {
			s.N += len(r) - 1
		}
	}
	if s.N == 0 {
		return s
	}
	s.ByLink = make([]LinkCount, 0, len(counts))
	for l, c := range counts {
		s.ByLink = append(s.ByLink, LinkCount{Link: l, Count: c, P: float64(c) / float64(s.N)})
	}
	slices.SortFunc(s.ByLink, func(a, b LinkCount) int {
		if a.Count != b.Count {
			return b.Count - a.Count
		}
		if a.Link.A != b.Link.A {
			return int(a.Link.A) - int(b.Link.A)
		}
		return int(a.Link.B) - int(b.Link.B)
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
	s.Suspect = localize(routes, s)
	return s
}

// localize picks the accused link from the statistics. See Stats.Suspect.
func localize(routes []routing.Route, s Stats) topology.Link {
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
	top := make(map[topology.Link]bool, ties)
	for _, lc := range s.ByLink[:ties] {
		top[lc.Link] = true
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
	var ordered, filtered []topology.Link
	for i := 0; i+1 < len(ref); i++ {
		l := topology.MkLink(ref[i], ref[i+1])
		if !top[l] {
			continue
		}
		ordered = append(ordered, l)
		if l.A != src && l.B != src && l.A != dst && l.B != dst {
			filtered = append(filtered, l)
		}
	}
	switch {
	case len(filtered) > 0:
		return filtered[len(filtered)/2]
	case len(ordered) > 0:
		return ordered[len(ordered)/2]
	default:
		return s.MaxLink
	}
}

// Frequencies returns all relative frequencies p_i (the samples whose PMF
// Fig. 5 plots), in ByLink order.
func (s Stats) Frequencies() []float64 {
	out := make([]float64, len(s.ByLink))
	for i, lc := range s.ByLink {
		out[i] = lc.P
	}
	return out
}

// PMF bins the relative frequencies into a stats.PMF with the given bin
// count.
func (s Stats) PMF(bins int) *stats.PMF {
	p := stats.NewPMF(bins)
	for _, lc := range s.ByLink {
		p.Add(lc.P) // straight from ByLink: no Frequencies() slice
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
