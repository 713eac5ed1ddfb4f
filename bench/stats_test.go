package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {39, 0}, {40, 0.75}, {100, 0.9}, {199, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted
	}
	d := summarize(xs)
	if d.N != 200 || d.P50 != 100.5 || d.Max != 200 {
		t.Fatalf("summarize: n=%d p50=%v max=%v", d.N, d.P50, d.Max)
	}
	// p95 of 1..200 interpolates between ranks 190 and 191.
	if d.TailQ != 0.95 || math.Abs(d.Tail-190.05) > 1e-9 {
		t.Fatalf("tail p%v = %v, want p95 = 190.05", 100*d.TailQ, d.Tail)
	}
	if got := summarize(nil); got.N != 0 || got.at(0.5) != 0 {
		t.Fatalf("empty summary %+v", got)
	}
}
