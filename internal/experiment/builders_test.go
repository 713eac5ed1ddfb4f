package experiment

import (
	"slices"
	"sync"
	"testing"

	"samnet/internal/attack"
	"samnet/internal/runner"
	"samnet/internal/topology"
)

// sameNetwork fails t unless got is the network want describes: the same
// placement, pools, attacker pairs and links.
func sameNetwork(t *testing.T, what string, got, want *topology.Network) {
	t.Helper()
	switch {
	case !slices.Equal(got.Topo.Positions(), want.Topo.Positions()):
		t.Errorf("%s: positions differ from a fresh draw", what)
	case !slices.Equal(got.SrcPool, want.SrcPool) || !slices.Equal(got.DstPool, want.DstPool):
		t.Errorf("%s: pools %v/%v, want %v/%v", what, got.SrcPool, got.DstPool, want.SrcPool, want.DstPool)
	case !slices.Equal(got.AttackerPairs, want.AttackerPairs):
		t.Errorf("%s: attacker pairs %v, want %v", what, got.AttackerPairs, want.AttackerPairs)
	case !slices.Equal(got.Topo.Links(), want.Topo.Links()):
		t.Errorf("%s: links differ from a fresh draw", what)
	}
}

// freshDraw is what buildRandom's builder returned before it kept its
// draws: a new rejection-sampled placement per call.
func freshDraw(seed uint64, run int) *topology.Network {
	return topology.Random(topology.RandomConfig{Wormholes: 2}, topoRNG(seed, run))
}

func TestBuildRandomRebuildsTheDraw(t *testing.T) {
	for _, seed := range []uint64{2005, 99} {
		build := buildRandom(2)
		for run := range 3 {
			first := build(Config{Seed: seed}, run)
			again := build(Config{Seed: seed}, run)
			if first == again || first.Topo == again.Topo {
				t.Fatalf("seed %d run %d: two calls share one network", seed, run)
			}
			want := freshDraw(seed, run)
			sameNetwork(t, "first call", first, want)
			sameNetwork(t, "memoised call", again, want)

			// An attack scenario's tunnels land on its own network only.
			links := again.Topo.Links()
			sc := attack.NewScenario(first, 2, attack.Forward)
			if len(first.Topo.ExtraLinks()) != 2 {
				t.Fatalf("seed %d run %d: scenario installed %d tunnels, want 2", seed, run, len(first.Topo.ExtraLinks()))
			}
			if len(again.Topo.ExtraLinks()) != 0 || !slices.Equal(again.Topo.Links(), links) {
				t.Errorf("seed %d run %d: arming one network changed the other's links", seed, run)
			}
			sc.Teardown()
		}
	}
}

func TestBuildRandomConcurrent(t *testing.T) {
	const seed, runs, workers = 7, 3, 8
	want := make([]*topology.Network, runs)
	for run := range runs {
		want[run] = freshDraw(seed, run)
	}
	// Every goroutine starts at once and walks the keys in the same order,
	// so each key's first calls overlap.
	build := buildRandom(2)
	start := make(chan struct{})
	got := make([][]*topology.Network, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range 2 * runs {
				got[w] = append(got[w], build(Config{Seed: seed}, i%runs))
			}
		}()
	}
	close(start)
	wg.Wait()
	for _, nets := range got {
		for i, net := range nets {
			sameNetwork(t, "concurrent call", net, want[i%runs])
		}
	}
}

// TestRandomDrawsEverySweepSeed names the master seeds in 1..200 at which a
// repro-paper sweep needs a placement that takes more than 2,000 tries: the
// detection experiment's training run at key (seed+1, run). The default
// MaxTries must draw each of them.
func TestRandomDrawsEverySweepSeed(t *testing.T) {
	for _, k := range []struct {
		master uint64
		run    int
	}{{12, 29}, {84, 20}, {89, 29}, {97, 17}, {174, 11}} {
		seed := k.master + 1
		if panicked(func() {
			topology.Random(topology.RandomConfig{Wormholes: 2, MaxTries: 2000}, topoRNG(seed, k.run))
		}) == nil {
			t.Errorf("master seed %d: key (%d, %d) draws within 2,000 tries; the test no longer covers a hard draw", k.master, seed, k.run)
		}
		if p := panicked(func() { freshDraw(seed, k.run) }); p != nil {
			t.Errorf("master seed %d: key (%d, %d) at the default MaxTries: %v", k.master, seed, k.run, p)
		}
	}
}

// panicked runs fn and returns the value it panicked with, or nil.
func panicked(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// sameRows fails t unless got's adjacency rows equal want's.
func sameRows(t *testing.T, what string, got, want *topology.Topology) {
	t.Helper()
	for id := range want.N() {
		if g, w := got.Neighbors(topology.NodeID(id)), want.Neighbors(topology.NodeID(id)); !slices.Equal(g, w) {
			t.Errorf("%s: node %d neighbors %v, want %v", what, id, g, w)
			return
		}
	}
}

// TestBuilderClonesAreIndependent arms tunnel and chain scenarios on the
// networks every builder hands out, two workers at once, and requires that
// neither a sibling network handed out before nor one handed out after
// changes: the prototype keeps its rows and pools. Run it with -race.
func TestBuilderClonesAreIndependent(t *testing.T) {
	const seed, runs = 2005, 12
	for _, b := range []struct {
		name  string
		build func(Config, int) *topology.Network
		fresh func(run int) *topology.Network
	}{
		{"cluster", buildCluster(1), func(int) *topology.Network { return topology.Cluster(1, 2) }},
		{"uniform", buildUniform(6, 6, 1), func(int) *topology.Network { return topology.Uniform(6, 6, 1, 2) }},
		{"random", buildRandom(2), func(run int) *topology.Network { return freshDraw(seed, run) }},
	} {
		want := make([]*topology.Network, runs)
		for run := range runs {
			want[run] = b.fresh(run)
		}
		cfg := Config{Seed: seed}
		runner.MapWorker(2, runs, func() struct{} { return struct{}{} }, func(run int, _ struct{}) bool {
			sibling := b.build(cfg, run)
			net := b.build(cfg, run)
			var sc *attack.Scenario
			if run%2 == 0 {
				sc = attack.NewChainScenario(net, attack.DefaultChainRelays, attack.DefaultChainDelay, attack.Forward)
			} else {
				sc = attack.NewScenario(net, 2, attack.Forward)
			}
			if len(net.Topo.ExtraLinks()) == 0 {
				t.Errorf("%s run %d: the scenario installed no tunnel", b.name, run)
			}
			later := b.build(cfg, run)
			for _, other := range []*topology.Network{sibling, later} {
				sameNetwork(t, b.name+" sibling", other, want[run])
				sameRows(t, b.name+" sibling", other.Topo, want[run].Topo)
			}
			sc.Teardown()
			return true
		})
	}
}

// TestBuilderCloneAllocs pins what a warm builder call costs: one Clone of
// the prototype, a constant handful of allocations (topology.Cluster itself
// takes 26), whatever the topology's size.
func TestBuilderCloneAllocs(t *testing.T) {
	cfg := Config{Seed: 2005}
	for _, b := range []struct {
		name  string
		build func(Config, int) *topology.Network
		max   float64
	}{
		{"cluster", buildCluster(1), 9},
		{"uniform", buildUniform(10, 6, 1), 9},
		{"random", buildRandom(2), 9},
	} {
		b.build(cfg, 0)
		if got := testing.AllocsPerRun(50, func() { b.build(cfg, 0) }); got > b.max {
			t.Errorf("%s: a warm builder call allocates %.1f times, want at most %.0f", b.name, got, b.max)
		}
	}
}
