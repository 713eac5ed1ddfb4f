package sam

import (
	"math"
	"slices"
	"testing"

	"samnet/internal/geom"
	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/stats"
	"samnet/internal/topology"
)

// hubTables builds neighbor tables that corroborate every link of the given
// route sets and give each a short detour via a shared hub node — the
// honest-radio shape, where every link's endpoints share a neighborhood.
func hubTables(routeSets ...[]routing.Route) *NeighborTables {
	const hub = topology.NodeID(1 << 20)
	nt := NewNeighborTables()
	for _, routes := range routeSets {
		for _, r := range routes {
			for i := 0; i+1 < len(r); i++ {
				nt.ClaimLink(r[i], r[i+1])
				nt.ClaimLink(r[i], hub)
				nt.ClaimLink(r[i+1], hub)
			}
		}
	}
	return nt
}

// honestTimes returns per-route timings at exactly one nominal hop delay per
// hop.
func honestTimes(routes []routing.Route) []sim.Time {
	ts := make([]sim.Time, len(routes))
	for i, r := range routes {
		ts[i] = sim.Time(r.Hops())
	}
	return ts
}

func trainedHybrid(t *testing.T, nt *NeighborTables, cfg HybridConfig) *HybridDetector {
	t.Helper()
	tr := NewTrainer("hybrid-test", 0)
	for v := 0; v < 12; v++ {
		tr.ObserveRoutes(normalRoutes(v))
	}
	prof, err := tr.Profile()
	if err != nil {
		t.Fatal(err)
	}
	return NewHybridDetector(prof, nt, cfg)
}

func TestHybridNormalStaysQuiet(t *testing.T) {
	routes := normalRoutes(99)
	h := trainedHybrid(t, hubTables(routes), HybridConfig{})
	v := h.Evaluate(Analyze(routes), routes, honestTimes(routes))
	if v.Attacked {
		t.Fatalf("normal routes flagged: %+v", v)
	}
	if v.ByZ || v.ByNeighbor || v.ByDelay {
		t.Errorf("side channels fired on honest evidence: %+v", v)
	}
}

func TestHybridFlagsClassicWormholeByFrequency(t *testing.T) {
	routes := attackRoutes()
	// Corroborate even the tunnel (colluders do) and give it a short detour:
	// each frequency channel must still catch the classic spike on its own.
	h := trainedHybrid(t, hubTables(routes), HybridConfig{})
	v := h.Evaluate(Analyze(routes), routes, honestTimes(routes))
	if !v.Attacked || !v.BySAM || !v.ByPMF || !v.ByZ {
		t.Errorf("classic frequency spike not caught: %+v", v)
	}
}

// TestHybridPMFFlagsWormholeByTail pins the PMF test's tail half on its own:
// the attack's isolated high-frequency link sits where the trained profile
// has almost no mass, while its distribution stays within pmfTVThreshold.
func TestHybridPMFFlagsWormholeByTail(t *testing.T) {
	h := trainedHybrid(t, nil, HybridConfig{})
	v := h.Evaluate(Analyze(attackRoutes()), nil, nil)
	if !v.ByPMF || !v.Attacked {
		t.Fatalf("attack not flagged by the PMF test: %+v", v)
	}
	if v.SAM.TV >= pmfTVThreshold {
		t.Errorf("fixture: TV %v reaches the threshold, so the tail test is not alone", v.SAM.TV)
	}
	if v.SAM.SuspectLink != topology.MkLink(100, 101) {
		t.Errorf("suspect = %v", v.SAM.SuspectLink)
	}
}

func TestHybridEmpty(t *testing.T) {
	h := trainedHybrid(t, nil, HybridConfig{})
	if v := h.Evaluate(Analyze(nil), nil, nil); v.Attacked || v.ByPMF {
		t.Errorf("empty route set flagged: %+v", v)
	}
}

// TestHybridPMFCutPoints pins the PMF test's cut points through Evaluate:
// a TV distance of exactly pmfTVThreshold fires, and a tail mass of exactly
// pmfTailProb does not. The profile puts 49 of 50 samples in bin 0 and one
// in bin 8, so the tail mass at or above bin 8 is exactly 1/50.
func TestHybridPMFCutPoints(t *testing.T) {
	const bins = 10
	prof := &Profile{
		Label: "pmf-cuts",
		PMax:  stats.Summary{Mean: 0.5, Std: 0.1},
		Phi:   stats.Summary{Mean: 0.5, Std: 0.1},
		PMF:   stats.NewPMF(bins),
	}
	for i := 0; i < 49; i++ {
		prof.PMF.Add(0.05)
	}
	prof.PMF.Add(0.85)
	h := NewHybridDetector(prof, nil, HybridConfig{})
	// mk builds a route set's statistics from its links' frequencies; the
	// largest is p_max.
	mk := func(ps ...float64) Stats {
		s := Stats{Routes: 1, N: len(ps)}
		for i, p := range ps {
			s.ByLink = append(s.ByLink, LinkCount{Link: topology.MkLink(topology.NodeID(i), 99), Count: 1, P: p})
			s.PMax = max(s.PMax, p)
		}
		return s
	}
	nine := func(p float64) Stats {
		return mk(0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, p)
	}
	cases := []struct {
		name     string
		s        Stats
		tv, tail float64
		want     bool
	}{
		// Live mass 1/2 in bin 0 and 1/2 in bin 5.
		{"tv at threshold", mk(0.05, 0.55), 0.5, 0.02, true},
		// Live mass 2/3 in bin 0 and 1/3 in bin 5; the tail at bin 5 is
		// exactly the cut point, so neither half fires.
		{"tv below threshold", mk(0.05, 0.05, 0.55), 1.0 / 3, 0.02, false},
		{"tail at cut point", nine(0.85), 0.08, 0.02, false},
		{"tail below cut point", nine(0.95), 0.1, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := h.Evaluate(tc.s, nil, nil)
			if math.Abs(v.SAM.TV-tc.tv) > 1e-9 {
				t.Errorf("TV = %v, want %v", v.SAM.TV, tc.tv)
			}
			if tail := prof.PMF.TailMass(tc.s.PMax); tail != tc.tail {
				t.Errorf("tail mass = %v, want %v", tail, tc.tail)
			}
			if v.ByPMF != tc.want {
				t.Errorf("ByPMF = %v at TV %v, want %v", v.ByPMF, v.SAM.TV, tc.want)
			}
		})
	}
}

func TestHybridNilProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil profile should panic")
		}
	}()
	NewHybridDetector(nil, nil, HybridConfig{})
}

func TestHybridFlagsUncorroboratedLink(t *testing.T) {
	routes := normalRoutes(0)
	nt := hubTables(routes)
	// One more route claims a link whose far end never claimed back — a
	// forged reply's fabricated relay.
	forged := routing.Route{0, 777, 19}
	routes = append(routes, forged)
	nt.Claim(0, 777) // one-sided: node 777 does not answer

	h := trainedHybrid(t, nt, HybridConfig{})
	v := h.Evaluate(Analyze(routes), routes, nil)
	if !v.ByNeighbor || !v.Attacked {
		t.Fatalf("fabricated link not flagged: %+v", v)
	}
	if len(v.SuspectLinks) == 0 {
		t.Error("suspect links should name the fabricated link")
	}
}

// TestHybridFlagsUncorroboratedShortLink pins the mutual-claim audit on its
// own: a forged link between two-hop radio neighbors detours in 2 hops, well
// under detourHops, so only the missing corroboration can condemn it.
func TestHybridFlagsUncorroboratedShortLink(t *testing.T) {
	// A 5x2 ladder at unit spacing: nodes 0-4 along the bottom row, 5-9
	// above them.
	topo := topology.New("ladder", 1.001)
	for y := 0; y < 2; y++ {
		for x := 0; x < 5; x++ {
			topo.AddNode(geom.Pt(float64(x), float64(y)))
		}
	}
	nt := RadioNeighborTables(topo)
	forged := topology.MkLink(0, 2)
	if nt.Corroborated(forged.A, forged.B) || nt.DetourHops(forged) != 2 {
		t.Fatalf("fixture: want an unclaimed link with a 2-hop detour, got detour %d", nt.DetourHops(forged))
	}

	routes := []routing.Route{{0, 2, 3, 4}}
	h := trainedHybrid(t, nt, HybridConfig{})
	v := h.Evaluate(Analyze(routes), routes, nil)
	if !v.ByNeighbor || !v.Attacked {
		t.Fatalf("uncorroborated short link not flagged: %+v", v)
	}
	if !slices.Equal(v.SuspectLinks, []topology.Link{forged}) {
		t.Errorf("suspect links = %v, want [%v]", v.SuspectLinks, forged)
	}
}

func TestHybridFlagsLongDetourTunnel(t *testing.T) {
	// A corroborated shortcut 200-206 across a 6-hop line of colluders: both
	// endpoints claim the link (as wormhole endpoints do), but the only
	// detour around it is the line itself — a wormhole's signature.
	nt := hubTables(normalRoutes(0))
	for i := topology.NodeID(200); i < 206; i++ {
		nt.ClaimLink(i, i+1)
	}
	nt.ClaimLink(200, 206)

	routes := append(normalRoutes(0), routing.Route{200, 206})
	h := trainedHybrid(t, nt, HybridConfig{})
	v := h.Evaluate(Analyze(routes), routes, nil)
	if !v.ByNeighbor || !v.Attacked {
		t.Fatalf("long-detour tunnel not flagged: %+v", v)
	}
}

func TestHybridFlagsDelayOutliers(t *testing.T) {
	routes := normalRoutes(0)
	h := trainedHybrid(t, hubTables(routes), HybridConfig{})

	slow := honestTimes(routes)
	slow[0] *= 3 // one route paid tunnel store-and-forward cost
	v := h.Evaluate(Analyze(routes), routes, slow)
	if !v.ByDelay || v.SlowRoutes != 1 {
		t.Fatalf("slow route not flagged: %+v", v)
	}

	fast := honestTimes(routes)
	fast[1] = -2 // a forged reply lands before the flood even ends
	v = h.Evaluate(Analyze(routes), routes, fast)
	if !v.ByDelay || v.FastRoutes != 1 {
		t.Fatalf("fast route not flagged: %+v", v)
	}

	if v = h.Evaluate(Analyze(routes), routes, nil); v.ByDelay {
		t.Error("nil times must disable the delay check")
	}
}

func TestHybridNilNeighborsDisablesCheck(t *testing.T) {
	routes := append(normalRoutes(0), routing.Route{0, 777, 19})
	h := trainedHybrid(t, nil, HybridConfig{})
	if v := h.Evaluate(Analyze(routes), routes, nil); v.ByNeighbor {
		t.Error("nil tables must disable the neighbor check")
	}
}

func TestNeighborTablesCorroboration(t *testing.T) {
	nt := NewNeighborTables()
	nt.Claim(1, 2)
	if nt.Corroborated(1, 2) {
		t.Error("one-sided claim must not corroborate")
	}
	nt.Claim(2, 1)
	if !nt.Corroborated(1, 2) || !nt.Corroborated(2, 1) {
		t.Error("mutual claims corroborate in both orders")
	}
	defer func() {
		if recover() == nil {
			t.Error("self-claim should panic")
		}
	}()
	nt.Claim(3, 3)
}

func TestNeighborTablesDetourHops(t *testing.T) {
	nt := NewNeighborTables()
	// Triangle 1-2-3: removing any edge leaves a 2-hop detour.
	nt.ClaimLink(1, 2)
	nt.ClaimLink(2, 3)
	nt.ClaimLink(1, 3)
	if d := nt.DetourHops(topology.MkLink(1, 3)); d != 2 {
		t.Errorf("triangle detour = %d, want 2", d)
	}
	// An isolated edge has no detour at all.
	nt.ClaimLink(8, 9)
	if d := nt.DetourHops(topology.MkLink(8, 9)); d != -1 {
		t.Errorf("isolated edge detour = %d, want -1", d)
	}
	// Uncorroborated edges are not usable as detour hops.
	nt2 := NewNeighborTables()
	nt2.ClaimLink(1, 2)
	nt2.Claim(1, 4)
	nt2.Claim(4, 2) // 1-4-2 exists only as one-sided claims
	if d := nt2.DetourHops(topology.MkLink(1, 2)); d != -1 {
		t.Errorf("one-sided detour accepted: %d", d)
	}
}

func TestRadioNeighborTablesMatchesInRange(t *testing.T) {
	net := topology.Cluster(1, 1)
	w := topology.MkLink(net.AttackerPairs[0][0], net.AttackerPairs[0][1])
	net.Topo.AddExtraLink(w.A, w.B)
	defer net.Topo.RemoveExtraLink(w.A, w.B)

	nt := RadioNeighborTables(net.Topo)
	if nt.Corroborated(w.A, w.B) {
		t.Error("tunnel link must not enter honest radio tables")
	}
	n := net.Topo.N()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			ida, idb := topology.NodeID(a), topology.NodeID(b)
			if net.Topo.InRange(ida, idb) != nt.Corroborated(ida, idb) {
				t.Fatalf("radio tables disagree with InRange at (%d,%d)", a, b)
			}
		}
	}
}
