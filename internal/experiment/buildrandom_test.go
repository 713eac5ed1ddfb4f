package experiment

import (
	"slices"
	"sync"
	"testing"

	"samnet/internal/attack"
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
		build := buildRandom()
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
	build := buildRandom()
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
