package main

import (
	"math"
	"slices"
)

// Timings are summarised from raw samples, never from histogram buckets: a
// bucketed percentile moves in bucket-sized steps, which would hide exactly
// the small shifts the benchmark exists to catch.

// tailLadder lists the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// minBeyond is how many samples must lie above a percentile before it is
// reported: fewer than that and the "percentile" is one or two outliers.
const minBeyond = 10

// quantile returns the q-quantile of sorted samples, interpolating linearly
// between closest ranks. sorted must be non-empty and ascending.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailPercentile picks the highest ladder percentile with at least
// minBeyond of n samples beyond it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if math.Floor((1-q)*float64(n)+1e-9) >= minBeyond {
			return q
		}
	}
	return 0
}

// dist summarises one set of raw samples.
type dist struct {
	N      int
	P50    float64
	TailQ  float64 // percentile of Tail (0 = too few samples for a tail)
	Tail   float64
	Max    float64
	sorted []float64
}

// summarize sorts a copy of xs and reports its median and tail.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	d := dist{N: len(s), P50: quantile(s, 0.5), Max: s[len(s)-1], sorted: s}
	if q := tailPercentile(len(s)); q > 0 {
		d.TailQ, d.Tail = q, quantile(s, q)
	}
	return d
}

// at returns the q-quantile of the summarised samples.
func (d dist) at(q float64) float64 {
	if d.N == 0 {
		return 0
	}
	return quantile(d.sorted, q)
}

// median of unsorted samples.
func median(xs []float64) float64 { return summarize(xs).P50 }
