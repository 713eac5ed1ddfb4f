package topology

import (
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
