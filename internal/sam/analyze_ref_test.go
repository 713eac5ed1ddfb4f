package sam

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"samnet/internal/routing"
	"samnet/internal/topology"
)

// analyzeReference computes Stats with a Go map of link counts and a set of
// tied links: the differential reference for the open-addressing link table.
// It shares nothing with analyzeInto but the Stats type.
func analyzeReference(routes []routing.Route) Stats {
	var s Stats
	s.Routes = len(routes)
	counts := map[topology.Link]int{}
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
	s.MaxLink, s.NMax, s.PMax = s.ByLink[0].Link, s.ByLink[0].Count, s.ByLink[0].P
	if len(s.ByLink) > 1 {
		s.N2nd = s.ByLink[1].Count
	}
	s.Phi = float64(s.NMax-s.N2nd) / float64(s.NMax)

	// The tie rule, with the tied links as a set.
	s.Suspect = s.MaxLink
	top := map[topology.Link]bool{}
	for _, lc := range s.ByLink {
		if lc.Count == s.NMax {
			top[lc.Link] = true
		}
	}
	if len(top) == 1 {
		return s
	}
	var ref routing.Route
	for _, r := range routes {
		if len(r) >= 2 {
			ref = r
			break
		}
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
		s.Suspect = filtered[len(filtered)/2]
	case len(ordered) > 0:
		s.Suspect = ordered[len(ordered)/2]
	}
	return s
}

// TestAnalyzeMatchesMapReference is the property test of the link table:
// over random route sets with repeated links, empty and one-node routes,
// negative ids, ids of 2^32 and above, and ties, every Stats field equals
// the map-based reference's. Sets range past the table's starting size, so
// growth and the pooled table's reuse after a reset are exercised too.
func TestAnalyzeMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	ids := []topology.NodeID{-1 << 40, -7, -1, 0, 1, 2, 3, 1 << 31, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 40, 1<<62 - 3}
	for i := 0; i < 64; i++ {
		ids = append(ids, topology.NodeID(rng.IntN(200)))
	}
	ties := 0
	for iter := 0; iter < 2000; iter++ {
		// A narrow id pool repeats links and ties counts; a wide one spreads
		// the set over hundreds of distinct links.
		pool := ids[:2+rng.IntN(len(ids)-1)]
		routes := make([]routing.Route, rng.IntN(40))
		for i := range routes {
			r := make(routing.Route, rng.IntN(12)) // 0 and 1 nodes carry no link
			for j := range r {
				r[j] = pool[rng.IntN(len(pool))]
			}
			routes[i] = r
		}
		if iter%5 == 0 && len(routes) > 1 {
			routes[1] = slices.Clone(routes[0]) // every link of route 0 ties
		}
		got, want := Analyze(routes), analyzeReference(routes)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d, routes %v:\n got %+v\nwant %+v", iter, routes, got, want)
		}
		if got.N > 0 && got.N2nd == got.NMax {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no route set had a tie at the maximum")
	}
	// One set past the retention cap: its table is not pooled, and the next
	// call still counts from an empty table.
	var big []routing.Route
	for a := topology.NodeID(0); a < 100; a++ {
		r := routing.Route{}
		for b := topology.NodeID(0); b < 100; b++ {
			r = append(r, -a-1, b<<33)
		}
		big = append(big, r)
	}
	for _, routes := range [][]routing.Route{big, big[:3]} {
		if got, want := Analyze(routes), analyzeReference(routes); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-route set: got %+v, want %+v", len(routes), got.String(), want.String())
		}
	}
}
