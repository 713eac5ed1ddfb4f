package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(0, 0), 0},
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(-1, -1), Pt(2, 3), 5},
		{Pt(1, 1), Pt(1, 2), 1},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); !almostEq(got, c.want) {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		a, b := Pt(clamp(ax), clamp(ay)), Pt(clamp(bx), clamp(by))
		return almostEq(a.Dist(b), b.Dist(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDist2MatchesDistSquared(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Confine to a sane range to dodge overflow-to-inf artifacts.
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		a, b := Pt(clamp(ax), clamp(ay)), Pt(clamp(bx), clamp(by))
		d := a.Dist(b)
		return math.Abs(a.Dist2(b)-d*d) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		a, b, c := Pt(clamp(ax), clamp(ay)), Pt(clamp(bx), clamp(by)), Pt(clamp(cx), clamp(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
	if got := a.Lerp(b, 2); got != Pt(20, 40) {
		t.Errorf("Lerp extrapolation = %v", got)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(Pt(5, -1), Pt(-2, 7))
	if r.Min != Pt(-2, -1) || r.Max != Pt(5, 7) {
		t.Errorf("NewRect = %+v", r)
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10))
	for _, p := range []Point{Pt(0, 0), Pt(10, 10), Pt(5, 5), Pt(0, 10)} {
		if !r.Contains(p) {
			t.Errorf("Contains(%v) = false", p)
		}
	}
	for _, p := range []Point{Pt(-0.001, 5), Pt(5, 10.001), Pt(11, 11)} {
		if r.Contains(p) {
			t.Errorf("Contains(%v) = true", p)
		}
	}
}

func TestRectGeometry(t *testing.T) {
	r := NewRect(Pt(1, 2), Pt(4, 8))
	if r.Width() != 3 || r.Height() != 6 {
		t.Errorf("Width/Height = %v/%v", r.Width(), r.Height())
	}
}

func TestBounds(t *testing.T) {
	if got := Bounds(nil); got != (Rect{}) {
		t.Errorf("Bounds(nil) = %+v", got)
	}
	pts := []Point{Pt(3, 1), Pt(-2, 4), Pt(0, 0)}
	r := Bounds(pts)
	if r.Min != Pt(-2, 0) || r.Max != Pt(3, 4) {
		t.Errorf("Bounds = %+v", r)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("bounds does not contain %v", p)
		}
	}
}

func TestBoundsContainsAllProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 {
			return true
		}
		pts := make([]Point, n)
		for i := 0; i < n; i++ {
			pts[i] = Pt(math.Mod(xs[i], 1e6), math.Mod(ys[i], 1e6))
		}
		r := Bounds(pts)
		for _, p := range pts {
			if !r.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
