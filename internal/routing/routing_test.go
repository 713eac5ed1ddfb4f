package routing

import (
	"testing"

	"samnet/internal/geom"
	"samnet/internal/topology"
)

func TestRouteBasics(t *testing.T) {
	r := Route{0, 1, 2, 3}
	if r.Hops() != 3 {
		t.Errorf("Hops = %d", r.Hops())
	}
	if (Route{}).Hops() != 0 || (Route{5}).Hops() != 0 {
		t.Error("degenerate routes should have 0 hops")
	}
	links := r.Links()
	if len(links) != 3 || links[0] != topology.MkLink(0, 1) || links[2] != topology.MkLink(2, 3) {
		t.Errorf("Links = %v", links)
	}
	if !r.Contains(2) || r.Contains(9) {
		t.Error("Contains wrong")
	}
	if !r.ContainsLink(topology.MkLink(2, 1)) {
		t.Error("ContainsLink should be direction-independent")
	}
	if r.ContainsLink(topology.MkLink(0, 2)) {
		t.Error("ContainsLink false positive")
	}
	if r.String() != "0>1>2>3" {
		t.Errorf("String = %q", r.String())
	}
}

func TestRouteCloneIndependent(t *testing.T) {
	r := Route{0, 1, 2}
	c := r.Clone()
	c[0] = 9
	if r[0] != 0 {
		t.Error("Clone aliases the original")
	}
}

func TestRouteEqual(t *testing.T) {
	if !(Route{1, 2}).Equal(Route{1, 2}) {
		t.Error("equal routes unequal")
	}
	if (Route{1, 2}).Equal(Route{2, 1}) {
		t.Error("reversed routes equal")
	}
	if (Route{1}).Equal(Route{1, 2}) {
		t.Error("prefix routes equal")
	}
}

func TestRouteSimple(t *testing.T) {
	if !(Route{0, 1, 2}).Simple() {
		t.Error("simple route misreported")
	}
	if (Route{0, 1, 0}).Simple() {
		t.Error("looping route reported simple")
	}
}

func TestRouteValid(t *testing.T) {
	topo := topology.New("line", 1.001)
	for i := 0; i < 4; i++ {
		topo.AddNode(geom.Pt(float64(i), 0))
	}
	if !(Route{0, 1, 2, 3}).Valid(topo) {
		t.Error("adjacent route invalid")
	}
	if (Route{0, 2}).Valid(topo) {
		t.Error("non-adjacent hop accepted")
	}
	topo.AddExtraLink(0, 3)
	if !(Route{0, 3}).Valid(topo) {
		t.Error("tunnel hop should be valid")
	}
}

func TestSharedLinks(t *testing.T) {
	a := Route{0, 1, 2, 3}
	b := Route{5, 1, 2, 3}
	if got := a.SharedLinks(b); got != 2 {
		t.Errorf("SharedLinks = %d, want 2", got)
	}
	if got := a.SharedLinks(Route{7, 8}); got != 0 {
		t.Errorf("disjoint SharedLinks = %d", got)
	}
}

func TestSelectDisjointPrefersDisjoint(t *testing.T) {
	fast := Route{0, 1, 2, 9}
	overlapping := Route{0, 1, 2, 5, 9}
	disjoint := Route{0, 6, 7, 8, 9}
	got := SelectDisjoint([]Route{fast, overlapping, disjoint}, 2)
	if len(got) != 2 {
		t.Fatalf("selected %d routes", len(got))
	}
	if !got[0].Equal(fast) {
		t.Error("first selected route must be the first candidate")
	}
	if !got[1].Equal(disjoint) {
		t.Errorf("second selected = %v, want the disjoint one", got[1])
	}
}

func TestSelectDisjointEdgeCases(t *testing.T) {
	if SelectDisjoint(nil, 3) != nil {
		t.Error("empty candidates should yield nil")
	}
	if SelectDisjoint([]Route{{0, 1}}, 0) != nil {
		t.Error("max=0 should yield nil")
	}
	one := []Route{{0, 1}}
	if got := SelectDisjoint(one, 5); len(got) != 1 {
		t.Errorf("selected %d from 1 candidate", len(got))
	}
}

func TestDiscoveryAffectedBy(t *testing.T) {
	tunnel := topology.MkLink(5, 6)
	d := &Discovery{Routes: []Route{
		{0, 5, 6, 9},
		{0, 1, 2, 9},
		{0, 5, 6, 8, 9},
		{0, 6, 5, 9}, // reversed traversal still contains the link
	}}
	if got := d.AffectedBy(tunnel); got != 0.75 {
		t.Errorf("AffectedBy = %v, want 0.75", got)
	}
	empty := &Discovery{}
	if got := empty.AffectedBy(tunnel); got != 0 {
		t.Errorf("empty AffectedBy = %v", got)
	}
}
