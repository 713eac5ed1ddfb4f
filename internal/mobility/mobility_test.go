package mobility

import (
	"math/rand/v2"
	"testing"

	"samnet/internal/geom"
	"samnet/internal/topology"
)

func arena() geom.Rect { return geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10)) }

func testTopo(n int) *topology.Topology {
	t := topology.New("mob", 3)
	for i := 0; i < n; i++ {
		t.AddNode(geom.Pt(float64(i%5)*2, float64(i/5)*2))
	}
	return t
}

func TestAdvanceMovesNodes(t *testing.T) {
	topo := testTopo(10)
	before := topo.Positions()
	m := New(topo, Config{Arena: arena()}, rand.New(rand.NewPCG(1, 1)))
	m.Advance(5)
	moved := 0
	for i, p := range topo.Positions() {
		if p != before[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no node moved after 5 time units")
	}
}

func TestPinnedNodesStay(t *testing.T) {
	topo := testTopo(10)
	m := New(topo, Config{Arena: arena()}, rand.New(rand.NewPCG(1, 1)))
	m.Pin(0, 3)
	p0, p3 := topo.Pos(0), topo.Pos(3)
	m.Advance(20)
	if topo.Pos(0) != p0 || topo.Pos(3) != p3 {
		t.Error("pinned nodes moved")
	}
}

func TestNodesStayInArena(t *testing.T) {
	topo := testTopo(10)
	m := New(topo, Config{Arena: arena()}, rand.New(rand.NewPCG(2, 2)))
	for step := 0; step < 200; step++ {
		m.Advance(0.37)
		for i, p := range topo.Positions() {
			if !arena().Contains(p) {
				t.Fatalf("node %d left the arena at step %d: %v", i, step, p)
			}
		}
	}
}

func TestMovementIsContinuous(t *testing.T) {
	// Over a small dt, no node may jump farther than MaxSpeed*dt.
	topo := testTopo(10)
	cfg := Config{Arena: arena(), MinSpeed: 0.5, MaxSpeed: 1.5}
	m := New(topo, cfg, rand.New(rand.NewPCG(3, 3)))
	const dt = 0.1
	prev := topo.Positions()
	for step := 0; step < 500; step++ {
		m.Advance(dt)
		cur := topo.Positions()
		for i := range cur {
			if d := cur[i].Dist(prev[i]); d > cfg.MaxSpeed*dt+1e-9 {
				t.Fatalf("node %d jumped %.3f in dt=%.2f (max %.3f)", i, d, dt, cfg.MaxSpeed*dt)
			}
		}
		prev = cur
	}
}

func TestAdvanceZeroIsNoop(t *testing.T) {
	topo := testTopo(5)
	m := New(topo, Config{Arena: arena()}, rand.New(rand.NewPCG(4, 4)))
	before := topo.Positions()
	m.Advance(0)
	for i, p := range topo.Positions() {
		if p != before[i] {
			t.Error("Advance(0) moved a node")
		}
	}
	if m.now != 0 {
		t.Error("time advanced")
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	topo := testTopo(2)
	m := New(topo, Config{Arena: arena()}, rand.New(rand.NewPCG(5, 5)))
	defer func() {
		if recover() == nil {
			t.Error("negative dt should panic")
		}
	}()
	m.Advance(-1)
}

func TestBadConfigPanics(t *testing.T) {
	topo := testTopo(2)
	rng := rand.New(rand.NewPCG(6, 6))
	for _, cfg := range []Config{
		{}, // no arena
		{Arena: arena(), MinSpeed: 2, MaxSpeed: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(topo, cfg, rng)
		}()
	}
}

func TestAdjacencyTracksMovement(t *testing.T) {
	// Two nodes start adjacent; after enough movement, adjacency must be
	// recomputed from the new positions (cache invalidation).
	topo := topology.New("pair", 1.5)
	a := topo.AddNode(geom.Pt(0, 0))
	b := topo.AddNode(geom.Pt(1, 0))
	if !topo.Adjacent(a, b) {
		t.Fatal("should start adjacent")
	}
	m := New(topo, Config{Arena: geom.NewRect(geom.Pt(0, 0), geom.Pt(50, 50))}, rand.New(rand.NewPCG(7, 7)))
	changed := false
	for step := 0; step < 400 && !changed; step++ {
		m.Advance(1)
		if !topo.Adjacent(a, b) {
			changed = true
		}
	}
	if !changed {
		t.Error("adjacency never changed despite roaming a 50x50 arena")
	}
}

// TestExplicitZeroPauseNeverDwells pins the ExplicitZero convention on
// Config.Pause: previously a requested zero pause was silently coerced to
// the default dwell of 1, making the classic zero-pause waypoint model
// unreachable. With Pause: ExplicitZero every node must be in motion at
// every sampling instant.
func TestExplicitZeroPauseNeverDwells(t *testing.T) {
	topo := testTopo(6)
	m := New(topo, Config{Arena: arena(), Pause: ExplicitZero}, rand.New(rand.NewPCG(3, 3)))
	if m.cfg.Pause != 0 {
		t.Fatalf("ExplicitZero resolved to %v, want 0", m.cfg.Pause)
	}
	prev := topo.Positions()
	for step := 0; step < 500; step++ {
		m.Advance(0.05)
		cur := topo.Positions()
		for i := range cur {
			if cur[i] == prev[i] {
				t.Fatalf("node %d dwelled at %v during step %d despite zero pause", i, cur[i], step)
			}
		}
		prev = cur
	}
}

// TestPauseZeroStillDefaults pins the compatibility half of the convention:
// a plain zero keeps selecting the default dwell.
func TestPauseZeroStillDefaults(t *testing.T) {
	m := New(testTopo(2), Config{Arena: arena()}, rand.New(rand.NewPCG(4, 4)))
	if m.cfg.Pause != 1 {
		t.Errorf("unset Pause resolved to %v, want default 1", m.cfg.Pause)
	}
}
