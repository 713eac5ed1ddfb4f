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

// memoDraws returns the prototypes the memo holds for seed, by
// {wormholes, run} key.
func memoDraws(m *placementMemo, seed uint64) map[[2]int]*topology.Network {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[[2]int]*topology.Network)
	for _, s := range m.seeds {
		if s.seed == seed {
			for k, draw := range s.draws {
				out[k] = draw()
			}
		}
	}
	return out
}

// memoSeeds returns the seeds the memo keeps, least recently used first.
func memoSeeds(m *placementMemo) []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []uint64
	for _, s := range m.seeds {
		out = append(out, s.seed)
	}
	return out
}

// TestPlacementMemoSharedAcrossExperiments runs the random-topology
// experiments of one master seed in turn on an empty process memo and
// requires that each key is drawn once: a later experiment finds the
// earlier one's prototype and draws no key again.
func TestPlacementMemoSharedAcrossExperiments(t *testing.T) {
	placements.mu.Lock()
	placements.seeds = nil
	placements.mu.Unlock()
	run := func(id string) {
		d, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		d.Run(Config{Seed: 2005})
	}
	// same fails t unless every key of want is still drawn, to the same
	// prototype, and seed holds n keys in all.
	same := func(after string, seed uint64, n int, want map[[2]int]*topology.Network) map[[2]int]*topology.Network {
		t.Helper()
		got := memoDraws(&placements, seed)
		if len(got) != n {
			t.Errorf("after %s: seed %d holds %d draws, want %d", after, seed, len(got), n)
		}
		for k, net := range want {
			if got[k] != net {
				t.Errorf("after %s: key %v at seed %d was drawn again", after, k, seed)
			}
		}
		return got
	}

	run("fig10")
	fig10 := same("fig10", 2005, 10, nil)
	for k := range fig10 {
		if k[0] != 2 || k[1] < 0 || k[1] >= 10 {
			t.Errorf("fig10 drew key %v at seed 2005, want (2, 0..9)", k)
		}
	}
	run("detection")
	same("detection", 2005, 10, fig10)
	for k := range same("detection", 2006, 30, nil) {
		if k[0] != 2 {
			t.Errorf("detection trained on key %v at seed 2006, want two wormholes", k)
		}
	}
	if got := memoSeeds(&placements); !slices.Equal(got, []uint64{2006, 2005}) {
		t.Errorf("memo keeps seeds %v, want [2006 2005]", got)
	}

	run("fig9")
	withFig9 := same("fig9", 2005, 11, fig10)
	if withFig9[[2]int{1, 0}] == nil {
		t.Fatal("fig9 did not draw key (1, 2005, 0)")
	}
	run("adaptive")
	same("adaptive", 2005, 11, withFig9)
	run("mobility")
	same("mobility", 2005, 20, withFig9)
}

// TestPlacementMemoEvictsWholeSeeds touches one seed more than the memo
// keeps and requires that the least recently used seed goes, every key of
// it, while a seed touched since keeps its prototype.
func TestPlacementMemoEvictsWholeSeeds(t *testing.T) {
	var m placementMemo
	for seed := uint64(1); seed <= keptSeeds; seed++ {
		m.clone(2, seed, 0)
	}
	m.clone(2, 2, 1) // seed 2 holds two keys
	for _, seed := range []uint64{3, 4, 1} {
		m.clone(2, seed, 0) // seed 1, the oldest, is used again; 2 is now least recent
	}
	kept := memoDraws(&m, 1)[[2]int{2, 0}]

	m.clone(2, keptSeeds+1, 0)
	want := []uint64{3, 4, 1, keptSeeds + 1}
	if got := memoSeeds(&m); !slices.Equal(got, want) {
		t.Fatalf("memo keeps seeds %v, want %v", got, want)
	}
	if n := len(memoDraws(&m, 2)); n != 0 {
		t.Errorf("evicted seed 2 still holds %d draws", n)
	}
	if memoDraws(&m, 1)[[2]int{2, 0}] != kept {
		t.Error("seed 1 was inserted first but used since, and lost its prototype")
	}
	// A returning seed draws again, to the same placement.
	sameNetwork(t, "redrawn seed 2", m.clone(2, 2, 1), freshDraw(2, 1))
	if got := memoSeeds(&m); !slices.Equal(got, []uint64{4, 1, keptSeeds + 1, 2}) {
		t.Errorf("after seed 2 returns the memo keeps %v", got)
	}
}

// TestPlacementMemoConcurrentSeeds has workers walk more seeds than the memo
// keeps, each in its own order, so draws, hits and evictions interleave.
// Every call must still return the fresh draw. Run it with -race.
func TestPlacementMemoConcurrentSeeds(t *testing.T) {
	const seeds, runs, workers = keptSeeds + 2, 2, 6
	want := make(map[[2]int]*topology.Network)
	for seed := 1; seed <= seeds; seed++ {
		for run := range runs {
			want[[2]int{seed, run}] = freshDraw(uint64(seed), run)
		}
	}
	var m placementMemo
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range 2 * seeds * runs {
				k := (i + w*runs) % (seeds * runs)
				seed, run := k/runs+1, k%runs
				sameNetwork(t, "concurrent seed", m.clone(2, uint64(seed), run), want[[2]int{seed, run}])
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := len(memoSeeds(&m)); n > keptSeeds {
		t.Errorf("memo keeps %d seeds, want at most %d", n, keptSeeds)
	}
}
