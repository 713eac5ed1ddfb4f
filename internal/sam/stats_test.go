package sam

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"samnet/internal/routing"
	"samnet/internal/topology"
)

func TestAnalyzeEmpty(t *testing.T) {
	s := Analyze(nil)
	if s.N != 0 || s.PMax != 0 || s.Phi != 0 || len(s.ByLink) != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestAnalyzeSingleRoute(t *testing.T) {
	s := Analyze([]routing.Route{{0, 1, 2}})
	if s.N != 2 {
		t.Errorf("N = %d", s.N)
	}
	if s.PMax != 0.5 {
		t.Errorf("PMax = %v", s.PMax)
	}
	// Both links appear once: tie at the top, so phi = 0.
	if s.Phi != 0 {
		t.Errorf("Phi = %v", s.Phi)
	}
}

func TestAnalyzeDominantLink(t *testing.T) {
	// Three routes all crossing the 5-6 "tunnel", with diverse other links.
	routes := []routing.Route{
		{0, 5, 6, 9},
		{1, 5, 6, 8},
		{2, 5, 6, 7},
	}
	s := Analyze(routes)
	if s.MaxLink != topology.MkLink(5, 6) {
		t.Errorf("MaxLink = %v", s.MaxLink)
	}
	if s.NMax != 3 || s.N2nd != 1 {
		t.Errorf("NMax/N2nd = %d/%d", s.NMax, s.N2nd)
	}
	if want := 3.0 / 9.0; math.Abs(s.PMax-want) > 1e-12 {
		t.Errorf("PMax = %v, want %v", s.PMax, want)
	}
	if want := 2.0 / 3.0; math.Abs(s.Phi-want) > 1e-12 {
		t.Errorf("Phi = %v, want %v", s.Phi, want)
	}
}

func TestAnalyzePhiZeroOnTie(t *testing.T) {
	// The paper's special case: two links sharing the maximum count.
	routes := []routing.Route{
		{0, 1, 2}, // links 0-1 and 1-2
		{0, 1, 2},
	}
	s := Analyze(routes)
	if s.Phi != 0 {
		t.Errorf("Phi = %v, want 0 on a tie", s.Phi)
	}
}

func TestAnalyzeCountsDirectionless(t *testing.T) {
	s := Analyze([]routing.Route{{0, 1}, {1, 0}})
	if len(s.ByLink) != 1 || s.ByLink[0].Count != 2 {
		t.Errorf("directionless counting broken: %+v", s.ByLink)
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

func TestFrequenciesSumToOne(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		var routes []routing.Route
		n := 1 + rng.IntN(10)
		for i := 0; i < n; i++ {
			hops := 1 + rng.IntN(6)
			r := routing.Route{topology.NodeID(rng.IntN(5))}
			for j := 0; j < hops; j++ {
				next := topology.NodeID(rng.IntN(20) + 5*(j+1))
				r = append(r, next)
			}
			routes = append(routes, r)
		}
		s := Analyze(routes)
		var sum float64
		for _, p := range s.Frequencies() {
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestByLinkSortedDescending(t *testing.T) {
	routes := []routing.Route{{0, 1, 2, 3}, {0, 1, 2, 4}, {0, 1, 5}}
	s := Analyze(routes)
	for i := 1; i < len(s.ByLink); i++ {
		if s.ByLink[i].Count > s.ByLink[i-1].Count {
			t.Fatalf("ByLink not sorted: %+v", s.ByLink)
		}
	}
	if s.ByLink[0].Link != topology.MkLink(0, 1) {
		t.Errorf("top link = %v", s.ByLink[0].Link)
	}
}

// TestByLinkOrderTotalAtExtremeIDs pins ByLink's order as total for any
// node ids: ids more than 2^63 apart overflow a subtracting comparator, whose
// answer then depends on the order links were counted in. Every rotation of
// one route set counts the same links, so it must sort them the same way.
func TestByLinkOrderTotalAtExtremeIDs(t *testing.T) {
	const big = 1 << 62
	// Links run from near -2^62 to near +2^62 on both ends, so the smaller
	// ends of two links can lie more than 2^63 apart.
	routes := []routing.Route{
		{-big - 3, -big, 0},
		{big + 2, big + 9, 1},
		{-big - 3, -big + 5, big},
		{big, big + 2, 0},
		{-big, -big + 5, big + 9},
		{big - 7, big + 9, -big - 3},
	}
	var want []LinkCount
	for call := 0; call < 50; call++ {
		rot := make([]routing.Route, len(routes))
		for i := range routes {
			rot[i] = routes[(i+call)%len(routes)]
		}
		got := Analyze(rot).ByLink
		if call == 0 {
			for i := 1; i < len(got); i++ {
				a, b := got[i-1], got[i]
				if a.Count < b.Count || a.Count == b.Count && (a.Link.A > b.Link.A || a.Link.A == b.Link.A && a.Link.B > b.Link.B) {
					t.Fatalf("ByLink[%d:%d] out of order: %+v, %+v", i-1, i+1, a, b)
				}
			}
			want = got
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("rotation %d: ByLink = %+v, want %+v", call, got, want)
		}
	}
}

func TestPMFOfStats(t *testing.T) {
	routes := []routing.Route{{0, 5, 6, 9}, {1, 5, 6, 8}}
	s := Analyze(routes)
	pmf := s.PMF(10)
	if pmf.Total != len(s.ByLink) {
		t.Errorf("PMF total = %d, want %d distinct links", pmf.Total, len(s.ByLink))
	}
}

func TestTopLinks(t *testing.T) {
	routes := []routing.Route{{0, 1, 2, 3}}
	s := Analyze(routes)
	if got := len(s.TopLinks(2)); got != 2 {
		t.Errorf("TopLinks(2) = %d entries", got)
	}
	if got := len(s.TopLinks(99)); got != 3 {
		t.Errorf("TopLinks(99) = %d entries", got)
	}
}

func TestStatsString(t *testing.T) {
	s := Analyze([]routing.Route{{0, 1, 2}})
	if s.String() == "" {
		t.Error("String empty")
	}
}

func TestAnalyzeInvariantsProperty(t *testing.T) {
	// For any route set: 0 <= phi <= 1, pmax in (0,1], N equals the summed
	// link counts, and MaxLink has the top count.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		var routes []routing.Route
		for i := 0; i < 1+rng.IntN(8); i++ {
			r := routing.Route{}
			for j := 0; j <= 1+rng.IntN(5); j++ {
				r = append(r, topology.NodeID(rng.IntN(12)))
			}
			routes = append(routes, r)
		}
		s := Analyze(routes)
		if s.N == 0 {
			return true
		}
		if s.Phi < 0 || s.Phi > 1 || s.PMax <= 0 || s.PMax > 1 {
			return false
		}
		total := 0
		for _, lc := range s.ByLink {
			if lc.Count > s.NMax {
				return false
			}
			total += lc.Count
		}
		return total == s.N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLocalizeUniqueMax(t *testing.T) {
	// Unique maximum: the suspect is simply the max link.
	s := Analyze([]routing.Route{
		{0, 5, 6, 9},
		{1, 5, 6, 8},
	})
	if s.Suspect != topology.MkLink(5, 6) {
		t.Errorf("suspect = %v", s.Suspect)
	}
}

func TestLocalizeTieFiltersEndpointLinks(t *testing.T) {
	// Every route is src -> x -> A1 -> A2 -> y -> dst: the source's first
	// link (src,x) ties with the tunnel (A1,A2) at count |R|, but being
	// incident to the source it must be discarded, leaving the tunnel.
	routes := []routing.Route{
		{0, 1, 5, 6, 7, 9},
		{0, 1, 5, 6, 8, 9},
	}
	// Counts: 0-1:2, 1-5:2, 5-6:2 all tie; 6-7,6-8,7-9,8-9 once each.
	s := Analyze(routes)
	if s.NMax != 2 {
		t.Fatalf("unexpected counts: %+v", s.ByLink)
	}
	// Tied chain along route 0: [0-1, 1-5, 5-6]; drop 0-1 (source-incident);
	// middle of [1-5, 5-6] is index 1 -> 5-6.
	if s.Suspect != topology.MkLink(5, 6) {
		t.Errorf("suspect = %v, want 5-6", s.Suspect)
	}
}

func TestLocalizeFullFunnelChain(t *testing.T) {
	// src adjacent to the wormhole entry x, dst adjacent to the exit y:
	// chain [src-x, x-A1, A1-A2, A2-y, y-dst]; endpoint-incident links are
	// dropped, leaving [x-A1, A1-A2, A2-y], whose middle is the tunnel.
	routes := []routing.Route{
		{0, 1, 5, 6, 7, 9},
	}
	s := Analyze(routes)
	// Single route: all 5 links tie at 1. Filtered: 1-5, 5-6, 6-7; middle
	// is 5-6.
	if s.Suspect != topology.MkLink(5, 6) {
		t.Errorf("suspect = %v, want the chain middle 5-6", s.Suspect)
	}
}

func TestLocalizeAllEndpointIncident(t *testing.T) {
	// Two-hop routes: every link touches src or dst; the fallback keeps the
	// ordered chain and accuses its middle.
	s := Analyze([]routing.Route{{0, 5, 9}})
	mid := topology.MkLink(5, 9) // ordered [0-5, 5-9], len 2, middle index 1
	if s.Suspect != mid {
		t.Errorf("suspect = %v, want %v", s.Suspect, mid)
	}
}

func TestLocalizeMatchesVerdictSuspects(t *testing.T) {
	routes := attackRoutesForStats()
	s := Analyze(routes)
	if s.Suspect != topology.MkLink(100, 101) {
		t.Errorf("suspect = %v", s.Suspect)
	}
}

// attackRoutesForStats mirrors detector_test's attackRoutes without
// depending on its file.
func attackRoutesForStats() []routing.Route {
	return []routing.Route{
		{0, 100, 101, 11, 19},
		{1, 100, 101, 12, 19},
		{2, 100, 101, 13, 19},
	}
}
