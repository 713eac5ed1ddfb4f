package topology

import (
	"math/rand/v2"
	"slices"
	"testing"

	"samnet/internal/geom"
)

func line(t *testing.T, n int, radius float64) *Topology {
	t.Helper()
	topo := New("line", radius)
	for i := 0; i < n; i++ {
		topo.AddNode(geom.Pt(float64(i), 0))
	}
	return topo
}

func TestMkLinkNormalizes(t *testing.T) {
	if MkLink(3, 1) != MkLink(1, 3) {
		t.Error("MkLink is not direction-independent")
	}
	l := MkLink(5, 2)
	if l.A != 2 || l.B != 5 {
		t.Errorf("MkLink(5,2) = %+v", l)
	}
}

func TestTierRange(t *testing.T) {
	r1 := TierRange(1, 1)
	if !(r1 > 1 && r1 < 1.01) {
		t.Errorf("TierRange(1,1) = %v", r1)
	}
	if TierRange(2, 1) <= TierRange(1, 1) {
		t.Error("2-tier range should exceed 1-tier")
	}
}

func TestAdjacencyUnitDisk(t *testing.T) {
	topo := line(t, 3, 1.001)
	if !topo.Adjacent(0, 1) || !topo.Adjacent(1, 2) {
		t.Error("unit neighbors should be adjacent")
	}
	if topo.Adjacent(0, 2) {
		t.Error("distance-2 nodes adjacent at 1-tier")
	}
	if topo.Adjacent(1, 1) {
		t.Error("node adjacent to itself")
	}
}

func TestNeighborsSortedAndShared(t *testing.T) {
	topo := New("t", 1.5)
	c := topo.AddNode(geom.Pt(0, 0))
	n1 := topo.AddNode(geom.Pt(1, 0))
	n2 := topo.AddNode(geom.Pt(0, 1))
	n3 := topo.AddNode(geom.Pt(-1, 0))
	topo.AddNode(geom.Pt(5, 5)) // out of range
	got := topo.Neighbors(c)
	want := []NodeID{n1, n2, n3}
	if len(got) != len(want) {
		t.Fatalf("Neighbors = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Errorf("neighbors not sorted: %v", got)
		}
	}
}

func TestExtraLinkCreatesAdjacency(t *testing.T) {
	topo := line(t, 12, 1.001)
	if topo.Adjacent(0, 11) {
		t.Fatal("far nodes should not be adjacent")
	}
	topo.AddExtraLink(0, 11)
	if !topo.Adjacent(0, 11) {
		t.Error("tunnel endpoints should be adjacent")
	}
	if !topo.extra[MkLink(11, 0)] {
		t.Error("extra links should be direction-independent")
	}
	found := false
	for _, n := range topo.Neighbors(0) {
		if n == 11 {
			found = true
		}
	}
	if !found {
		t.Error("tunnel peer missing from neighbor list")
	}
	topo.RemoveExtraLink(11, 0)
	if topo.Adjacent(0, 11) {
		t.Error("tunnel should be gone after removal")
	}
}

func TestExtraLinkDoesNotDuplicateRadioLink(t *testing.T) {
	topo := line(t, 2, 1.001)
	topo.AddExtraLink(0, 1) // doubles an existing radio link
	if got := len(topo.Neighbors(0)); got != 1 {
		t.Errorf("neighbor list has %d entries, want 1", got)
	}
	if got := len(topo.Links()); got != 1 {
		t.Errorf("Links has %d entries, want 1", got)
	}
}

func TestLinksEnumeratesEachOnce(t *testing.T) {
	topo := line(t, 4, 1.001)
	links := topo.Links()
	if len(links) != 3 {
		t.Fatalf("Links = %v", links)
	}
	seen := map[Link]bool{}
	for _, l := range links {
		if l.A >= l.B {
			t.Errorf("link %v not normalized", l)
		}
		if seen[l] {
			t.Errorf("duplicate link %v", l)
		}
		seen[l] = true
	}
}

func TestSelfLinkPanics(t *testing.T) {
	topo := line(t, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("AddExtraLink(self) should panic")
		}
	}()
	topo.AddExtraLink(1, 1)
}

func TestBFSDist(t *testing.T) {
	topo := line(t, 5, 1.001)
	d := topo.BFSDist(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want)
		}
	}
}

func TestHopDistUsesTunnel(t *testing.T) {
	topo := line(t, 12, 1.001)
	if got := topo.HopDist(0, 11); got != 11 {
		t.Fatalf("HopDist = %d", got)
	}
	topo.AddExtraLink(0, 11)
	if got := topo.HopDist(0, 11); got != 1 {
		t.Errorf("HopDist with tunnel = %d, want 1", got)
	}
}

// TestShortestPathDisconnected: no path crosses a gap, so the hop distance
// is -1 and the topology is not connected.
func TestShortestPathDisconnected(t *testing.T) {
	topo := New("gap", 1.001)
	topo.AddNode(geom.Pt(0, 0))
	topo.AddNode(geom.Pt(10, 0))
	if got := topo.HopDist(0, 1); got != -1 {
		t.Errorf("HopDist across gap = %d", got)
	}
	if topo.Connected() {
		t.Error("disconnected topology reported connected")
	}
}

func TestCheckIDPanics(t *testing.T) {
	topo := line(t, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("Neighbors(out of range) should panic")
		}
	}()
	topo.Neighbors(7)
}

// freshRows returns t's adjacency as a build from scratch computes it over
// t's current positions and extra links.
func freshRows(t *Topology) [][]NodeID {
	fresh := t.Clone()
	fresh.adj = nil
	fresh.build()
	return fresh.adj
}

// TestExtraLinkEditsMatchRebuild applies random tunnel installs and removals
// to built topologies, tunnels that double a radio link and repeated or
// absent links included, and requires the in-place rows to equal a fresh
// build's after every step.
func TestExtraLinkEditsMatchRebuild(t *testing.T) {
	nets := []*Network{
		Cluster(1, 2),
		Cluster(2, 1),
		Uniform(6, 6, 1, 2),
		Random(RandomConfig{Wormholes: 2}, rand.New(rand.NewPCG(3, 4))),
	}
	rng := rand.New(rand.NewPCG(28, 1))
	for _, net := range nets {
		topo := net.Topo
		n := topo.N()
		var installed []Link
		for step := 0; step < 400; step++ {
			a := NodeID(rng.IntN(n))
			b := a
			switch {
			case len(installed) > 0 && rng.IntN(3) == 0:
				l := installed[rng.IntN(len(installed))]
				topo.RemoveExtraLink(l.B, l.A)
			case rng.IntN(3) == 0 && len(topo.Neighbors(a)) > 0:
				// Double a radio link (or re-add a tunnel).
				nbrs := topo.Neighbors(a)
				b = nbrs[rng.IntN(len(nbrs))]
			case rng.IntN(4) == 0:
				topo.RemoveExtraLink(a, NodeID(rng.IntN(n))) // mostly absent
			default:
				for b == a {
					b = NodeID(rng.IntN(n))
				}
			}
			if b != a {
				topo.AddExtraLink(a, b)
			}
			installed = topo.ExtraLinks()
			want := freshRows(topo)
			for id := range want {
				if got := topo.Neighbors(NodeID(id)); !slices.Equal(got, want[id]) {
					t.Fatalf("%s step %d: node %d neighbors %v, fresh build %v", topo.Name(), step, id, got, want[id])
				}
			}
		}
		if len(installed) == 0 {
			t.Errorf("%s: the sequence left no tunnel installed", topo.Name())
		}
	}
}

// TestCloneIsIndependent checks that a Clone equals its original and that
// tunnels and pool edits on the copy leave the original alone.
func TestCloneIsIndependent(t *testing.T) {
	orig := Cluster(1, 2)
	rows := freshRows(orig.Topo)
	src := slices.Clone(orig.SrcPool)
	c := orig.Clone()
	if c.Topo == orig.Topo || !slices.Equal(c.Topo.Links(), orig.Topo.Links()) ||
		c.Topo.Name() != orig.Topo.Name() || c.Topo.Radius() != orig.Topo.Radius() {
		t.Fatal("clone differs from its original")
	}
	c.Topo.AddExtraLink(0, 41)
	c.Topo.AddExtraLink(5, 30)
	c.Topo.RemoveExtraLink(0, 41)
	c.Topo.SetPos(3, geom.Pt(50, 50))
	c.SrcPool = WithoutNodes(c.SrcPool, map[NodeID]bool{src[0]: true})
	c.AttackerPairs[0][0] = 7
	for id := range rows {
		if got := orig.Topo.Neighbors(NodeID(id)); !slices.Equal(got, rows[id]) {
			t.Fatalf("node %d neighbors %v after editing the clone, want %v", id, got, rows[id])
		}
	}
	if !slices.Equal(orig.SrcPool, src) || orig.AttackerPairs[0][0] == 7 || len(orig.Topo.ExtraLinks()) != 0 {
		t.Error("editing the clone changed the original's pools, pairs or tunnels")
	}

	// An unbuilt topology clones unbuilt and builds on demand.
	u := line(t, 4, 1.001)
	u.AddExtraLink(0, 3)
	if uc := u.Clone(); uc.adj != nil || !slices.Equal(uc.Neighbors(0), []NodeID{1, 3}) {
		t.Errorf("unbuilt clone: adj built %v, neighbors %v", uc.adj != nil, uc.Neighbors(0))
	}
}
