package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// Mean returns the arithmetic mean of xs (0 if empty), the direct formula
// the accumulator's running mean is checked against.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// accumulate returns an accumulator holding xs.
func accumulate(xs ...float64) *Accumulator {
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	return &a
}

func TestAccumulatorBasics(t *testing.T) {
	a := accumulate(2, 4, 4, 4, 5, 5, 7, 9)
	if a.N() != 8 {
		t.Errorf("N = %d", a.N())
	}
	if got := a.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	// Unbiased sample variance of this classic set is 32/7.
	if got := a.Var(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Var = %v", got)
	}
	if s := a.Summarize(); s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Var() != 0 || a.Std() != 0 {
		t.Error("empty accumulator should be all zeros")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3)
	if a.Var() != 0 {
		t.Error("variance of one sample should be 0")
	}
	if s := a.Summarize(); s.Min != 3 || s.Max != 3 {
		t.Error("min/max of single sample")
	}
}

func TestAccumulatorMatchesDirectComputation(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) < 2 {
			return true
		}
		a := accumulate(xs...)
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		wantVar := ss / float64(len(xs)-1)
		scale := 1 + math.Abs(wantVar)
		return math.Abs(a.Mean()-mean) < 1e-6*(1+math.Abs(mean)) &&
			math.Abs(a.Var()-wantVar) < 1e-6*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryString(t *testing.T) {
	a := accumulate(1, 2, 3)
	s := a.Summarize()
	if s.N != 3 || s.Mean != 2 {
		t.Errorf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestPMFBinning(t *testing.T) {
	p := NewPMF(10)
	if p.BinOf(0) != 0 {
		t.Error("0 should land in bin 0")
	}
	if p.BinOf(0.05) != 0 || p.BinOf(0.15) != 1 {
		t.Error("bin boundaries wrong")
	}
	if p.BinOf(1.0) != 9 || p.BinOf(2.0) != 9 {
		t.Error("1.0 and beyond should clamp to last bin")
	}
	if p.BinOf(-0.5) != 0 {
		t.Error("negatives clamp to bin 0")
	}
}

func TestPMFProbsSumToOne(t *testing.T) {
	p := NewPMF(20)
	p.AddAll([]float64{0.1, 0.2, 0.2, 0.9, 0.55})
	var sum float64
	for i := range p.Counts {
		sum += p.Prob(i)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("probs sum to %v", sum)
	}
	if p.Total != 5 {
		t.Errorf("Total = %d", p.Total)
	}
}

func TestPMFTailMass(t *testing.T) {
	p := NewPMF(10)
	p.AddAll([]float64{0.05, 0.15, 0.95, 0.85})
	if got := p.TailMass(0.8); got != 0.5 {
		t.Errorf("TailMass(0.8) = %v", got)
	}
	if got := p.TailMass(0); got != 1 {
		t.Errorf("TailMass(0) = %v", got)
	}
}

func TestPMFClone(t *testing.T) {
	p := NewPMF(5)
	p.Add(0.5)
	c := p.Clone()
	c.Add(0.9)
	if p.Total != 1 || c.Total != 2 {
		t.Error("clone aliases original")
	}
}

func TestPMFBinCenter(t *testing.T) {
	p := NewPMF(4)
	if got := p.BinCenter(0); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("BinCenter(0) = %v", got)
	}
	if got := p.BinCenter(3); math.Abs(got-0.875) > 1e-12 {
		t.Errorf("BinCenter(3) = %v", got)
	}
}

func TestNewPMFPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPMF(0) should panic")
		}
	}()
	NewPMF(0)
}

func TestTVDistanceIdentical(t *testing.T) {
	a := NewPMF(10)
	b := NewPMF(10)
	xs := []float64{0.1, 0.3, 0.3, 0.7}
	a.AddAll(xs)
	b.AddAll(xs)
	if got := TVDistance(a, b); got != 0 {
		t.Errorf("TV identical = %v", got)
	}
}

func TestTVDistanceDisjoint(t *testing.T) {
	a := NewPMF(10)
	b := NewPMF(10)
	a.AddAll([]float64{0.05, 0.05})
	b.AddAll([]float64{0.95, 0.95})
	if got := TVDistance(a, b); got != 1 {
		t.Errorf("TV disjoint = %v", got)
	}
}

func TestTVDistanceRangeProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		a := NewPMF(10)
		b := NewPMF(10)
		for _, x := range xs {
			a.Add(math.Abs(math.Mod(x, 1)))
		}
		for _, y := range ys {
			b.Add(math.Abs(math.Mod(y, 1)))
		}
		d := TVDistance(a, b)
		return d >= 0 && d <= 1 && math.Abs(d-TVDistance(b, a)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTVDistanceMismatchedBinsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	TVDistance(NewPMF(5), NewPMF(10))
}

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil)")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := accumulate(2, 4).Std(); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("Std = %v", got)
	}
}

func BenchmarkAccumulatorAdd(b *testing.B) {
	var a Accumulator
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Add(float64(i % 1000))
	}
}

func BenchmarkTVDistance(b *testing.B) {
	x := NewPMF(50)
	y := NewPMF(50)
	for i := 0; i < 500; i++ {
		x.Add(float64(i%47) / 47)
		y.Add(float64(i%31) / 31)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TVDistance(x, y)
	}
}
