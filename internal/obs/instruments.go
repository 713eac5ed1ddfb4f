package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use; all methods are lock-free and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// DefaultLatencyBuckets bounds a latency histogram in seconds: 50µs to 5s,
// roughly log-spaced, chosen around the sub-millisecond cost of scoring one
// route set with headroom for queueing under load.
var DefaultLatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// RatioBuckets bounds a histogram over [0,1] quantities — p_max, phi,
// total-variation distance, lambda.
var RatioBuckets = []float64{
	0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
}

// Histogram is a fixed-bucket histogram with atomic counters, cheap enough
// to sit on a request hot path: Observe is a binary search plus four atomic
// operations, with no locks and no allocation. It additionally tracks the
// maximum observation, so tail quantiles stay meaningful when observations
// land in the +Inf bucket.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // one per bound, plus +Inf at the end
	sumBits atomic.Uint64
	maxBits atomic.Uint64
	count   atomic.Uint64
}

// NewHistogram builds a standalone histogram (one not owned by a registry)
// over the given bucket bounds, which must be sorted ascending.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Max returns the largest observation, or NaN before the first one.
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return math.NaN()
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket holding the target rank — the standard fixed-bucket
// estimate, accurate to the bucket width. Samples beyond the last bound
// report the maximum observation. Returns NaN with no observations.
//
// Concurrent observers may tick individual bucket counters mid-read; the
// estimate is then correct for some recent state, which is all a telemetry
// percentile needs.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i, bound := range h.bounds {
		c := float64(h.counts[i].Load())
		if c > 0 && cum+c >= target {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (target - cum) / c
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(bound-lo)
		}
		cum += c
	}
	return h.Max()
}
