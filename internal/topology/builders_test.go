package topology

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"samnet/internal/geom"
)

func TestClusterLayout(t *testing.T) {
	net := Cluster(1, 1)
	topo := net.Topo
	if topo.N() != 42 {
		t.Fatalf("cluster has %d nodes, want 42 (16+10+16)", topo.N())
	}
	if !topo.Connected() {
		t.Fatal("cluster topology must be connected")
	}
	if len(net.SrcPool) != 15 || len(net.DstPool) != 15 {
		// 16 per cluster minus the claimed attacker.
		t.Errorf("pools = %d/%d, want 15/15", len(net.SrcPool), len(net.DstPool))
	}
	if len(net.AttackerPairs) != 1 {
		t.Fatalf("attacker pairs = %d", len(net.AttackerPairs))
	}
}

func TestClusterTunnelSpanIsLong(t *testing.T) {
	net := Cluster(1, 1)
	// The paper's "long attack link": the tunnel shortcuts on the order of
	// 10 hops at 1-tier.
	if span := net.TunnelSpan(0); span < 8 || span > 11 {
		t.Errorf("cluster tunnel span = %d, want ~9-10", span)
	}
}

func TestClusterTiers(t *testing.T) {
	n1 := Cluster(1, 0)
	n2 := Cluster(2, 0)
	d1 := n1.Topo.Degree(0)
	d2 := n2.Topo.Degree(0)
	if d2 <= d1 {
		t.Errorf("2-tier degree (%d) should exceed 1-tier (%d)", d2, d1)
	}
	if diameter(n2.Topo) >= diameter(n1.Topo) {
		t.Error("2-tier diameter should shrink")
	}
}

// diameter returns the longest hop distance between two connected nodes.
func diameter(topo *Topology) int {
	max := 0
	for i := 0; i < topo.N(); i++ {
		for _, d := range topo.BFSDist(NodeID(i)) {
			if d > max {
				max = d
			}
		}
	}
	return max
}

func TestClusterAttackersExcludedFromPools(t *testing.T) {
	net := Cluster(1, 2)
	attackers := net.Attackers()
	if len(attackers) != 4 {
		t.Fatalf("attackers = %d, want 4", len(attackers))
	}
	for _, id := range append(append([]NodeID{}, net.SrcPool...), net.DstPool...) {
		if attackers[id] {
			t.Errorf("attacker %d found in a pool", id)
		}
	}
}

func TestClusterTunnelDominatesEveryPair(t *testing.T) {
	// The design requirement behind Table I's 100%: for every (src,dst)
	// pair, routing via the tunnel is strictly shorter than any normal
	// path.
	net := Cluster(1, 1)
	a1, a2 := net.AttackerPairs[0][0], net.AttackerPairs[0][1]
	normal := make(map[NodeID][]int) // distances without tunnel
	for _, s := range net.SrcPool {
		normal[s] = net.Topo.BFSDist(s)
	}
	dA1 := net.Topo.BFSDist(a1)
	dA2 := net.Topo.BFSDist(a2)
	for _, s := range net.SrcPool {
		for _, d := range net.DstPool {
			direct := normal[s][d]
			viaTunnel := dA1[s] + 1 + dA2[d]
			if viaTunnel >= direct {
				t.Errorf("tunnel does not win for %d->%d: %d vs %d", s, d, viaTunnel, direct)
			}
		}
	}
}

func TestUniformLayout(t *testing.T) {
	net := Uniform(6, 6, 1, 1)
	if net.Topo.N() != 36 {
		t.Fatalf("6x6 grid has %d nodes", net.Topo.N())
	}
	if !net.Topo.Connected() {
		t.Fatal("grid must be connected")
	}
	// Interior grid node at 1-tier has exactly 4 neighbors.
	var interior NodeID = None
	for i := 0; i < net.Topo.N(); i++ {
		p := net.Topo.Pos(NodeID(i))
		if p.X == 2 && p.Y == 2 {
			interior = NodeID(i)
		}
	}
	if interior == None {
		t.Fatal("no node at (2,2)")
	}
	if got := net.Topo.Degree(interior); got != 4 {
		t.Errorf("interior degree = %d, want 4", got)
	}
}

func TestUniformTunnelSpansMatchPaper(t *testing.T) {
	// Paper: 6-hop attack link in the 6x6 grid, 10-hop in the 10x6 grid.
	if span := Uniform(6, 6, 1, 1).TunnelSpan(0); span != 6 {
		t.Errorf("6x6 tunnel span = %d, want 6", span)
	}
	if span := Uniform(10, 6, 1, 1).TunnelSpan(0); span != 10 {
		t.Errorf("10x6 tunnel span = %d, want 10", span)
	}
}

func TestUniformPools(t *testing.T) {
	net := Uniform(6, 6, 1, 0)
	if len(net.SrcPool) != 12 || len(net.DstPool) != 12 {
		t.Fatalf("pools = %d/%d, want 12/12", len(net.SrcPool), len(net.DstPool))
	}
	for _, id := range net.SrcPool {
		if net.Topo.Pos(id).X >= 2 {
			t.Errorf("source %d not on the left side", id)
		}
	}
	for _, id := range net.DstPool {
		if net.Topo.Pos(id).X < 4 {
			t.Errorf("destination %d not on the right side", id)
		}
	}
}

func TestUniformRejectsBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { Uniform(2, 6, 1, 0) },
		func() { Uniform(6, 6, 0, 0) },
		func() { Cluster(0, 0) },
		func() { Cluster(1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRandomTopology(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	net := Random(RandomConfig{Wormholes: 1}, rng)
	if net.Topo.N() != 60 {
		t.Fatalf("random N = %d, want 60", net.Topo.N())
	}
	if !net.Topo.Connected() {
		t.Fatal("random topology must be connected")
	}
	if len(net.SrcPool) == 0 || len(net.DstPool) == 0 {
		t.Fatal("pools must be non-empty")
	}
	if len(net.AttackerPairs) != 1 {
		t.Fatal("wanted one attacker pair")
	}
	side := 15.0
	a1 := net.Topo.Pos(net.AttackerPairs[0][0])
	a2 := net.Topo.Pos(net.AttackerPairs[0][1])
	if a1.X >= a2.X {
		t.Errorf("attacker 0 (%v) should be left of attacker 1 (%v)", a1, a2)
	}
	for _, id := range net.SrcPool {
		if net.Topo.Pos(id).X >= side/4 {
			t.Errorf("source %v outside left quarter", net.Topo.Pos(id))
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a := Random(RandomConfig{}, rand.New(rand.NewPCG(9, 9)))
	b := Random(RandomConfig{}, rand.New(rand.NewPCG(9, 9)))
	if a.Topo.N() != b.Topo.N() {
		t.Fatal("node counts differ")
	}
	for i := 0; i < a.Topo.N(); i++ {
		if a.Topo.Pos(NodeID(i)) != b.Topo.Pos(NodeID(i)) {
			t.Fatalf("node %d differs across identical seeds", i)
		}
	}
}

func TestRandomImpossiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unconnectable config")
		}
	}()
	Random(RandomConfig{N: 10, Side: 100, Radius: 1, MaxTries: 5}, rand.New(rand.NewPCG(1, 1)))
}

// randomReference is Random as first written: every draw builds a full
// Topology, claims attackers and checks Topology.Connected before deciding.
// Random must return the identical network from the identical RNG stream.
// It also reports how many draws it made, and how many connected draws it
// rejected for an empty source or destination pool.
func randomReference(cfg RandomConfig, rng *rand.Rand) (*Network, int, int) {
	cfg.defaults()
	poolRejects := 0
	for try := 0; try < cfg.MaxTries; try++ {
		t := New("random", cfg.Radius)
		net := &Network{Topo: t}
		for i := 0; i < cfg.N; i++ {
			p := geom.Pt(rng.Float64()*cfg.Side, rng.Float64()*cfg.Side)
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
		t.Freeze()
		if len(net.SrcPool) > 0 && len(net.DstPool) > 0 && t.Connected() {
			return net, try + 1, poolRejects
		}
		if t.Connected() {
			poolRejects++
		}
	}
	panic("topology: could not draw a connected random topology; raise Radius or N")
}

// panicText runs fn and returns the value it panicked with, or nil.
func panicText(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

func TestRandomMatchesReference(t *testing.T) {
	const seeds = 300
	for _, tc := range []struct {
		name string
		cfg  RandomConfig
		// poolRejects: some connected draw must be rejected for an empty
		// pool. undrawable: every seed must panic.
		poolRejects, undrawable bool
	}{
		{name: "defaults-0wh", cfg: RandomConfig{}},
		{name: "defaults-1wh", cfg: RandomConfig{Wormholes: 1}},
		{name: "defaults-2wh", cfg: RandomConfig{Wormholes: 2}},
		{name: "small-pools", cfg: RandomConfig{N: 12, Side: 6, Radius: 2, Wormholes: 1}, poolRejects: true},
		{name: "undrawable-sparse", cfg: RandomConfig{N: 10, Side: 100, Radius: 1, MaxTries: 5}, undrawable: true},
		// Always connected, but the attackers claim every node.
		{name: "undrawable-pools", cfg: RandomConfig{N: 4, Side: 1, Radius: 5, Wormholes: 2, MaxTries: 5}, undrawable: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			poolRejects, panics := 0, 0
			for s := uint64(0); s < seeds; s++ {
				rngA := rand.New(rand.NewPCG(s, 0x5eed))
				rngB := rand.New(rand.NewPCG(s, 0x5eed))
				var got, want *Network
				var rej int
				gotPanic := panicText(func() { got = Random(tc.cfg, rngA) })
				wantPanic := panicText(func() { want, _, rej = randomReference(tc.cfg, rngB) })
				if gotPanic != wantPanic {
					t.Fatalf("seed %d: Random panicked with %v, reference with %v", s, gotPanic, wantPanic)
				}
				if gotPanic != nil {
					panics++
					continue
				}
				poolRejects += rej
				if !slices.Equal(got.Topo.Positions(), want.Topo.Positions()) {
					t.Fatalf("seed %d: positions differ", s)
				}
				if !slices.Equal(got.SrcPool, want.SrcPool) || !slices.Equal(got.DstPool, want.DstPool) {
					t.Fatalf("seed %d: pools %v/%v, want %v/%v", s, got.SrcPool, got.DstPool, want.SrcPool, want.DstPool)
				}
				if !slices.Equal(got.AttackerPairs, want.AttackerPairs) {
					t.Fatalf("seed %d: attacker pairs %v, want %v", s, got.AttackerPairs, want.AttackerPairs)
				}
				if !slices.Equal(got.Topo.Links(), want.Topo.Links()) {
					t.Fatalf("seed %d: links differ", s)
				}
				// Callers keep drawing from rng, so the stream must be left
				// exactly where the reference leaves it.
				if rngA.Uint64() != rngB.Uint64() {
					t.Fatalf("seed %d: RNG stream diverges after the build", s)
				}
			}
			if tc.undrawable && panics != seeds {
				t.Errorf("%d of %d seeds drew a network; the config is meant to be undrawable", seeds-panics, seeds)
			}
			if tc.poolRejects && poolRejects == 0 {
				t.Error("no connected draw was rejected for an empty pool; the config no longer covers that path")
			}
		})
	}
}

// isolatedReference reports whether some node of pos has no other node
// within squared distance r2, scanning every node's row in full order.
func isolatedReference(pos []geom.Point, r2 float64) bool {
nodes:
	for i, p := range pos {
		for j, q := range pos {
			if j != i && p.Dist2(q) <= r2 {
				continue nodes
			}
		}
		return true
	}
	return false
}

func TestPlacementConnectedMatchesTopology(t *testing.T) {
	t.Parallel()
	// side keeps the paper's density, 60 nodes in a 15x15 square, at n nodes.
	side := func(n int) float64 { return 15 * math.Sqrt(float64(n)/60) }
	for _, tc := range []struct {
		cfg   RandomConfig
		draws int
	}{
		// Three 60-node configs make 10^5 draws.
		{RandomConfig{N: 60, Side: 15, Radius: 2}, 34000},   // sparse: almost never connected
		{RandomConfig{N: 60, Side: 15, Radius: 2.3}, 34000}, // the paper's random setup
		{RandomConfig{N: 60, Side: 15, Radius: 4}, 34000},   // dense: almost always connected
		// The isolation scan's bitset at the paper's density: its last
		// word full, and one node into the next word; 130 nodes take
		// several words.
		{RandomConfig{N: 64, Side: side(64), Radius: 2.3}, 10000},
		{RandomConfig{N: 65, Side: side(65), Radius: 2.3}, 10000},
		{RandomConfig{N: 130, Side: side(130), Radius: 2.3}, 10000},
	} {
		cfg, draws := tc.cfg, tc.draws
		rng := rand.New(rand.NewPCG(uint64(cfg.Radius*10), 3+uint64(cfg.N-60)))
		pos := make([]geom.Point, cfg.N)
		rest := make([]int32, cfg.N)
		queue := make([]int32, 0, cfg.N)
		marks := make([]int32, (cfg.N+31)/32)
		r2 := cfg.Radius * cfg.Radius
		connected := 0
		for d := 0; d < draws; d++ {
			topo := New("check", cfg.Radius)
			for i := range pos {
				pos[i] = geom.Pt(rng.Float64()*cfg.Side, rng.Float64()*cfg.Side)
				topo.AddNode(pos[i])
			}
			// The isolation scan alone must agree with an unmarked scan of
			// every pair, so a wrong bit cannot hide behind the BFS.
			if got, want := someIsolated(pos, r2, marks), isolatedReference(pos, r2); got != want {
				t.Fatalf("N %d radius %v draw %d: someIsolated = %v, want %v", cfg.N, cfg.Radius, d, got, want)
			}
			got := placementConnected(pos, cfg.Radius, rest, queue)
			if want := topo.Connected(); got != want {
				t.Fatalf("N %d radius %v draw %d: placementConnected = %v, Topology.Connected = %v", cfg.N, cfg.Radius, d, got, want)
			}
			if got {
				connected++
			}
		}
		t.Logf("N %d radius %v: %d of %d draws connected", cfg.N, cfg.Radius, connected, draws)
	}
}

// TestRandomRejectsInvalidConfig requires Random to refuse, before its
// first try, a config that no placement can satisfy, naming the field.
func TestRandomRejectsInvalidConfig(t *testing.T) {
	for _, tc := range []struct {
		cfg   RandomConfig
		field string
	}{
		{RandomConfig{N: -1}, "N"},
		{RandomConfig{Side: -15}, "Side"},
		{RandomConfig{Side: math.NaN()}, "Side"},
		{RandomConfig{Side: math.Inf(1)}, "Side"},
		{RandomConfig{Radius: -2.3}, "Radius"},
		{RandomConfig{Radius: math.Inf(1)}, "Radius"},
		{RandomConfig{MaxTries: -1}, "MaxTries"},
		{RandomConfig{Wormholes: -1}, "Wormholes"},
		{RandomConfig{Wormholes: 3}, "Wormholes"},
		{RandomConfig{N: 1, Wormholes: 1}, "N"},
		{RandomConfig{N: 3, Wormholes: 2}, "N"},
	} {
		rng := rand.New(rand.NewPCG(1, 2))
		p := panicText(func() { Random(tc.cfg, rng) })
		msg, _ := p.(string)
		if !strings.Contains(msg, "RandomConfig."+tc.field+" ") {
			t.Errorf("%+v: panic %v, want one naming RandomConfig.%s", tc.cfg, p, tc.field)
		}
		if p != nil && rng.Uint64() != rand.New(rand.NewPCG(1, 2)).Uint64() {
			t.Errorf("%+v: drew from the RNG before refusing the config", tc.cfg)
		}
	}
}

func TestPlacementConnectedEdgeCases(t *testing.T) {
	const r = 2.3
	for _, tc := range []struct {
		name string
		pos  []geom.Point
		want bool
	}{
		{"no nodes", nil, true},
		{"one node", []geom.Point{geom.Pt(1, 1)}, true},
		{"two nodes out of range", []geom.Point{geom.Pt(0, 0), geom.Pt(r+0.01, 0)}, false},
		{"two nodes exactly at range", []geom.Point{geom.Pt(0, 0), geom.Pt(r, 0)}, true},
		{"isolated third node", []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(9, 9)}, false},
		// No node is isolated, so the BFS decides: two separate pairs.
		{"two components", []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(8, 0), geom.Pt(9, 0)}, false},
	} {
		rest := make([]int32, len(tc.pos))
		queue := make([]int32, 0, len(tc.pos))
		if got := placementConnected(tc.pos, r, rest, queue); got != tc.want {
			t.Errorf("%s: placementConnected = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRandomRejectedTriesAllocFree(t *testing.T) {
	cfg := RandomConfig{Wormholes: 1}
	cfg.defaults()
	// Seeds picked for their try counts: the first needs only a few draws,
	// the second needs many.
	seeds := []uint64{0, 0}
	tries := []int{0, 0}
	for s := uint64(1); tries[0] == 0 || tries[1] == 0; s++ {
		_, n, _ := randomReference(cfg, rand.New(rand.NewPCG(s, s)))
		switch {
		case n <= 20 && tries[0] == 0:
			seeds[0], tries[0] = s, n
		case n >= 500 && tries[1] == 0:
			seeds[1], tries[1] = s, n
		}
	}
	var overhead [2]float64
	for i, s := range seeds {
		pcg := rand.NewPCG(s, s)
		rng := rand.New(pcg)
		random := testing.AllocsPerRun(5, func() {
			pcg.Seed(s, s)
			Random(cfg, rng)
		})
		accepted := Random(cfg, rand.New(rand.NewPCG(s, s))).Topo.Positions()
		build := testing.AllocsPerRun(5, func() { randomNetwork(cfg, accepted) })
		overhead[i] = random - build
		t.Logf("seed %d: %d tries, %.0f allocs (%.0f for the accepted build)", s, tries[i], random, build)
		if random > 330 {
			t.Errorf("seed %d: Random allocates %.0f times, want at most one accepted build (<= 330)", s, random)
		}
	}
	// The few allocations beyond the accepted build are the draw's scratch,
	// allocated once per call: rejected tries add nothing.
	if overhead[0] != overhead[1] || overhead[0] > 3 {
		t.Errorf("allocations beyond the accepted build: %v for %d tries, %v for %d tries; want equal and at most 3",
			overhead[0], tries[0], overhead[1], tries[1])
	}
}

func TestPickPairNeverPicksAttacker(t *testing.T) {
	net := Cluster(1, 2)
	attackers := net.Attackers()
	rng := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < 200; i++ {
		s, d := net.PickPair(rng)
		if attackers[s] || attackers[d] {
			t.Fatal("picked an attacker as src/dst")
		}
		if s == d {
			t.Fatal("src == dst")
		}
	}
}

func TestTunnelSpanRestoresTunnels(t *testing.T) {
	net := Cluster(1, 1)
	p := net.AttackerPairs[0]
	net.Topo.AddExtraLink(p[0], p[1])
	span := net.TunnelSpan(0)
	if span < 2 {
		t.Fatalf("span = %d", span)
	}
	if !net.Topo.extra[MkLink(p[0], p[1])] {
		t.Error("TunnelSpan must restore the tunnel afterwards")
	}
}

func TestKTierNeighborhoodMatchesPaperDefinition(t *testing.T) {
	// The paper defines a k-tier system as "each node can communicate with
	// its neighbors up to k hops away", where hops are 1-tier grid hops.
	// Verify: the k-tier neighborhood of an interior node is exactly the
	// set of nodes within 1-tier hop distance <= k.
	base := Uniform(7, 7, 1, 0)
	for _, k := range []int{1, 2} {
		tiered := Uniform(7, 7, k, 0)
		var center NodeID = None
		for i := 0; i < base.Topo.N(); i++ {
			p := base.Topo.Pos(NodeID(i))
			if p.X == 3 && p.Y == 3 {
				center = NodeID(i)
			}
		}
		if center == None {
			t.Fatal("no center node")
		}
		oneHop := base.Topo.BFSDist(center)
		want := map[NodeID]bool{}
		for i, d := range oneHop {
			if d >= 1 && d <= k {
				want[NodeID(i)] = true
			}
		}
		got := map[NodeID]bool{}
		for _, nb := range tiered.Topo.Neighbors(center) {
			got[nb] = true
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d neighbors, want %d", k, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Errorf("k=%d: node %d (1-tier dist %d) missing from neighborhood", k, id, oneHop[id])
			}
		}
	}
}

func BenchmarkClusterBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := Cluster(1, 2)
		net.Topo.Freeze()
	}
}

func BenchmarkBFSDist(b *testing.B) {
	net := Uniform(30, 30, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Topo.BFSDist(0)
	}
}

func BenchmarkRandomBuild(b *testing.B) {
	// Cycle through a fixed set of drawable seeds: one long stream would
	// eventually hit MaxTries disconnected draws in a row and panic.
	pcg := rand.NewPCG(0, 0)
	rng := rand.New(pcg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pcg.Seed(uint64(i%64), 1)
		Random(RandomConfig{}, rng)
	}
}
