package main

import (
	"math"
	"testing"
)

func step(rate, tail, backlog float64, failed int) stepStat {
	return stepStat{rate: rate, tail: tail, backlogMS: backlog, durMS: 1000, failed: failed}
}

func TestStepPass(t *testing.T) {
	for _, tc := range []struct {
		s    stepStat
		want bool
	}{
		{step(6000, 0.3, 1, 0), true},
		{step(6000, 1.0, 1, 0), true},
		{step(6000, 1.01, 1, 0), false}, // latency limit
		{step(6000, 0.3, 50, 0), true},  // backlog at exactly 5% of the step
		{step(6000, 0.3, 51, 0), false}, // growing backlog
		{step(6000, 0.3, 1, 1), false},  // any failure
	} {
		if got := tc.s.pass(); got != tc.want {
			t.Errorf("%+v pass() = %v, want %v", tc.s, got, tc.want)
		}
	}
}

func TestLadderDone(t *testing.T) {
	ok, bad := step(6000, 0.3, 0, 0), step(6600, 2, 0, 0)
	if ladderDone([]stepStat{ok, bad}) {
		t.Error("one failed step stopped the ladder")
	}
	if !ladderDone([]stepStat{ok, bad, bad}) {
		t.Error("two consecutive failed steps did not stop the ladder")
	}
	if ladderDone([]stepStat{bad, ok, bad}) {
		t.Error("non-consecutive failures stopped the ladder")
	}
	if !ladderDone([]stepStat{step(28000, 0.3, 0, 0)}) {
		t.Error("the ladder climbed past its rate cap")
	}
}

func TestMaxRate(t *testing.T) {
	// The limit is crossed between 8000 (p90 0.5 ms) and 8800 (2 ms): at
	// f = log(1/0.5)/log(2/0.5) = 1/2 of the way, in log-rate.
	steps := []stepStat{step(6000, 0.3, 0, 0), step(8000, 0.5, 0, 0), step(8800, 2, 0, 0), step(9680, 3, 0, 0)}
	if got, want := maxRate(steps), 8000*math.Sqrt(1.1); math.Abs(got-want) > 1e-6 {
		t.Errorf("interpolated max rate = %v, want %v", got, want)
	}
	// A step above that failed on backlog or errors is not interpolated
	// into: the highest passing rate stands.
	for _, hi := range []stepStat{step(8800, 2, 80, 0), step(8800, 2, 0, 3)} {
		if got := maxRate([]stepStat{step(8000, 0.5, 0, 0), hi}); got != 8000 {
			t.Errorf("max rate with %+v above = %v, want 8000", hi, got)
		}
	}
	// A noisy failed step below a passing one does not cap the result.
	if got := maxRate([]stepStat{step(6000, 3, 0, 0), step(6600, 0.4, 0, 0)}); got != 6600 {
		t.Errorf("max rate = %v, want 6600", got)
	}
	if got := maxRate([]stepStat{step(6000, 3, 0, 0)}); got != 0 {
		t.Errorf("max rate with no passing step = %v, want 0", got)
	}
}
