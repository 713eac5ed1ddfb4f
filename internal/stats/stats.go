// Package stats provides the small statistical toolkit SAM needs: running
// moments (Welford), summaries, binned PMFs over [0,1], and the total
// variation distance for comparing an observed link-frequency distribution
// against a trained normal profile.
package stats

import (
	"fmt"
	"math"
)

// Accumulator tracks count, mean and variance online using Welford's
// algorithm, numerically stable for long training streams. The zero value is
// an empty accumulator.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of samples.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 { return a.mean }

// Var returns the unbiased sample variance (0 with fewer than two samples).
func (a *Accumulator) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Accumulator) Std() float64 { return math.Sqrt(a.Var()) }

// Summary is a frozen snapshot of an accumulator.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
}

// Summarize returns the accumulator's snapshot.
func (a *Accumulator) Summarize() Summary {
	return Summary{N: a.n, Mean: a.Mean(), Std: a.Std(), Min: a.min, Max: a.max}
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f std=%.4f min=%.4f max=%.4f", s.N, s.Mean, s.Std, s.Min, s.Max)
}

// PMF is a binned probability mass function over [0,1]: bin i covers
// [i/bins, (i+1)/bins), with 1.0 folded into the last bin. It approximates
// the distribution of the per-link relative frequencies n_i/N.
type PMF struct {
	Counts []int
	Total  int
}

// NewPMF returns an empty PMF with the given number of bins (panics if <1).
func NewPMF(bins int) *PMF {
	if bins < 1 {
		panic("stats: PMF needs at least one bin")
	}
	return &PMF{Counts: make([]int, bins)}
}

// Bins returns the bin count.
func (p *PMF) Bins() int { return len(p.Counts) }

// BinOf returns the bin index for value x in [0,1]; values outside are
// clamped.
func (p *PMF) BinOf(x float64) int {
	if x < 0 {
		x = 0
	}
	if x >= 1 {
		return len(p.Counts) - 1
	}
	return int(x * float64(len(p.Counts)))
}

// Add folds one sample into the PMF.
func (p *PMF) Add(x float64) {
	p.Counts[p.BinOf(x)]++
	p.Total++
}

// AddAll folds every sample of xs in.
func (p *PMF) AddAll(xs []float64) {
	for _, x := range xs {
		p.Add(x)
	}
}

// Prob returns the probability mass of bin i (0 when empty).
func (p *PMF) Prob(i int) float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Counts[i]) / float64(p.Total)
}

// BinCenter returns the midpoint value of bin i.
func (p *PMF) BinCenter(i int) float64 {
	w := 1.0 / float64(len(p.Counts))
	return (float64(i) + 0.5) * w
}

// Clone returns a deep copy.
func (p *PMF) Clone() *PMF {
	c := NewPMF(len(p.Counts))
	copy(c.Counts, p.Counts)
	c.Total = p.Total
	return c
}

// TailMass returns the total probability mass at or above value x.
func (p *PMF) TailMass(x float64) float64 {
	if p.Total == 0 {
		return 0
	}
	var n int
	for i := p.BinOf(x); i < len(p.Counts); i++ {
		n += p.Counts[i]
	}
	return float64(n) / float64(p.Total)
}

// TVDistance returns the total-variation distance between two PMFs with the
// same binning: 0 for identical distributions, 1 for disjoint support. It
// panics on mismatched bin counts; an empty PMF compares at distance 0 to
// everything (no evidence either way).
func TVDistance(a, b *PMF) float64 {
	if a.Bins() != b.Bins() {
		panic("stats: TVDistance over mismatched bins")
	}
	if a.Total == 0 || b.Total == 0 {
		return 0
	}
	var d float64
	for i := range a.Counts {
		d += math.Abs(a.Prob(i) - b.Prob(i))
	}
	return d / 2
}
