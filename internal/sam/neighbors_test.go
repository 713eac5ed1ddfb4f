package sam

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"

	"samnet/internal/attack"
	"samnet/internal/routing"
	"samnet/internal/routing/mr"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// NewNeighborTables returns an empty claim set.
func NewNeighborTables() *NeighborTables {
	return &NeighborTables{}
}

// DetourHops runs detourHops on scratch borrowed from the pool the hybrid's
// audit uses.
func (t *NeighborTables) DetourHops(l topology.Link) int {
	sc := detourPool.Get().(*detourScratch)
	d := t.detourHops(l, sc)
	detourPool.Put(sc)
	return d
}

// refNeighborTables is the previous map-of-maps implementation, kept as the
// reference the slice-backed tables are diffed against.
type refNeighborTables struct {
	claims map[topology.NodeID]map[topology.NodeID]bool
}

func (t *refNeighborTables) Claim(reporter, neighbor topology.NodeID) {
	m := t.claims[reporter]
	if m == nil {
		m = make(map[topology.NodeID]bool, 8)
		t.claims[reporter] = m
	}
	m[neighbor] = true
}

func (t *refNeighborTables) Corroborated(a, b topology.NodeID) bool {
	return t.claims[a][b] && t.claims[b][a]
}

func (t *refNeighborTables) DetourHops(l topology.Link) int {
	if l.A == l.B {
		return 0
	}
	dist := map[topology.NodeID]int{l.A: 0}
	queue := []topology.NodeID{l.A}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for y := range t.claims[x] {
			if !t.claims[y][x] {
				continue
			}
			if (x == l.A && y == l.B) || (x == l.B && y == l.A) {
				continue
			}
			if _, seen := dist[y]; seen {
				continue
			}
			dist[y] = dist[x] + 1
			if y == l.B {
				return dist[y]
			}
			queue = append(queue, y)
		}
	}
	return -1
}

// TestNeighborTablesMatchReference builds random claim graphs — mutual and
// one-sided claims, repeated claims, isolated nodes — into both tables and
// diffs every audit, including queries on IDs beyond the table and
// negative IDs.
func TestNeighborTablesMatchReference(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := 2 + rng.IntN(30)
		got := NewNeighborTables()
		ref := &refNeighborTables{claims: map[topology.NodeID]map[topology.NodeID]bool{}}
		for k := rng.IntN(4 * n); k > 0; k-- {
			a, b := topology.NodeID(rng.IntN(n)), topology.NodeID(rng.IntN(n))
			if a == b {
				continue
			}
			got.Claim(a, b)
			ref.Claim(a, b)
			if rng.IntN(4) > 0 { // a quarter of claims stay one-sided
				got.Claim(b, a)
				ref.Claim(b, a)
			}
		}
		for a := topology.NodeID(-2); a < topology.NodeID(n+3); a++ {
			for b := topology.NodeID(-2); b < topology.NodeID(n+3); b++ {
				if g, w := got.Corroborated(a, b), ref.Corroborated(a, b); g != w {
					t.Fatalf("seed %d: Corroborated(%d,%d) = %v, reference %v", seed, a, b, g, w)
				}
				l := topology.MkLink(a, b)
				if g, w := got.DetourHops(l), ref.DetourHops(l); g != w {
					t.Fatalf("seed %d: DetourHops(%v) = %d, reference %d", seed, l, g, w)
				}
			}
		}
	}
}

func TestNeighborTablesHostileInput(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "sam: ") {
				t.Errorf("%s: panic %v, want a sam: message", name, r)
			}
		}()
		fn()
	}
	nt := NewNeighborTables()
	mustPanic("negative reporter", func() { nt.Claim(-1, 2) })
	mustPanic("negative neighbor", func() { nt.Claim(2, -3) })
	mustPanic("negative link", func() { nt.ClaimLink(-4, 1) })
	mustPanic("self claim", func() { nt.Claim(5, 5) })

	// IDs nobody claimed answer as the map did: no corroboration, no detour.
	nt.ClaimLink(0, 1)
	for _, id := range []topology.NodeID{2, 9, 1 << 20} {
		if nt.Corroborated(0, id) || nt.Corroborated(id, 0) {
			t.Errorf("unclaimed node %d corroborated", id)
		}
		if d := nt.DetourHops(topology.MkLink(0, id)); d != -1 {
			t.Errorf("DetourHops to unclaimed node %d = %d, want -1", id, d)
		}
		if d := nt.DetourHops(topology.MkLink(id, id+1)); d != -1 {
			t.Errorf("DetourHops between unclaimed nodes %d = %d, want -1", id, d)
		}
	}
	if NewNeighborTables().Corroborated(0, 1) {
		t.Error("empty tables corroborated a link")
	}
}

// chainCase is the ROC matrix's chain cell on the 1-tier cluster: a profile
// trained on clean MR discoveries, and one attacked discovery with the
// neighbor tables the colluders present.
type chainCase struct {
	hybrid *HybridDetector
	stats  Stats
	routes []routing.Route
	times  []sim.Time
}

func newChainCase(tb testing.TB, run uint64) chainCase {
	tb.Helper()
	const seed = 2005
	net := topology.Cluster(1, 2)
	proto := &mr.Protocol{}
	tr := NewTrainer("cluster-1tier", 0)
	for r := uint64(0); r < 15; r++ {
		sn := sim.NewNetwork(net.Topo, sim.Config{Seed: seed + r})
		src, dst := net.PickPair(rand.New(rand.NewPCG(seed, r)))
		tr.ObserveRoutes(proto.Discover(sn, src, dst).Routes)
	}
	prof, err := tr.Profile()
	if err != nil {
		tb.Fatal(err)
	}

	sc, err := attack.Named("chain", net, attack.Forward)
	if err != nil {
		tb.Fatal(err)
	}
	defer sc.Teardown()
	sn := sim.NewNetwork(net.Topo, sim.Config{Seed: seed + run})
	sc.Arm(sn)
	nbr := RadioNeighborTables(net.Topo)
	for _, w := range sc.Tunnels {
		if w.Installed() {
			nbr.ClaimLink(w.A, w.B)
		}
	}
	src, dst := net.PickPair(rand.New(rand.NewPCG(seed, run)))
	d := proto.Discover(sn, src, dst)
	return chainCase{
		hybrid: NewHybridDetector(prof, nbr, HybridConfig{}),
		stats:  Analyze(d.Routes),
		routes: d.Routes,
		times:  d.Times,
	}
}

// TestHybridEvaluateAllocs pins the audit's allocation budget: the
// neighbor-table comparison borrows one pooled scratch for all links, so
// Evaluate allocates only for the verdict it returns.
func TestHybridEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of Puts under the race detector, so pooled-path allocation counts are meaningless")
	}
	c := newChainCase(t, 100)
	if len(c.stats.ByLink) < 10 {
		t.Fatalf("chain discovery claimed only %d links; the guard needs a real audit", len(c.stats.ByLink))
	}
	c.hybrid.Evaluate(c.stats, c.routes, c.times) // warm the pool
	if got := testing.AllocsPerRun(200, func() {
		c.hybrid.Evaluate(c.stats, c.routes, c.times)
	}); got > 7 {
		t.Errorf("HybridDetector.Evaluate allocates %.1f times per call, want at most 7", got)
	}
}

// TestRadioNeighborTablesAllocs requires the honest baseline to cost a
// constant number of allocations — one backing array for every node's list
// — not one or more per node.
func TestRadioNeighborTablesAllocs(t *testing.T) {
	for _, net := range []*topology.Network{topology.Cluster(1, 2), topology.Uniform(10, 6, 2, 1)} {
		net.Topo.Freeze()
		if got := testing.AllocsPerRun(50, func() { RadioNeighborTables(net.Topo) }); got > 3 {
			t.Errorf("%s (%d nodes): RadioNeighborTables allocates %.0f times, want at most 3",
				net.Topo.Name(), net.Topo.N(), got)
		}
	}
}

// TestHybridConcurrentEvaluate shares one HybridDetector between 8
// goroutines; their verdicts must equal a serial run's (run with -race).
func TestHybridConcurrentEvaluate(t *testing.T) {
	base := newChainCase(t, 100)
	cases := []chainCase{base}
	for run := uint64(101); run < 106; run++ {
		cases = append(cases, newChainCase(t, run))
	}
	want := make([]HybridVerdict, len(cases))
	for i, c := range cases {
		want[i] = base.hybrid.Evaluate(c.stats, c.routes, c.times)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g + k) % len(cases)
				c := cases[i]
				if got := base.hybrid.Evaluate(c.stats, c.routes, c.times); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: case %d verdict %+v, serial %+v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkHybridEvaluate(b *testing.B) {
	c := newChainCase(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchVerdict = c.hybrid.Evaluate(c.stats, c.routes, c.times)
	}
}

var benchVerdict HybridVerdict
