package runner

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// TestMapOrder: results land in index order for every parallelism level,
// and every index runs exactly once.
func TestMapOrder(t *testing.T) {
	const n = 203
	for _, parallel := range []int{1, 2, 4, 7, runtime.GOMAXPROCS(0), n + 5} {
		var calls atomic.Int64
		got := MapProgress(parallel, n, nil, func(i int) int {
			calls.Add(1)
			return i * i
		})
		if len(got) != n {
			t.Fatalf("parallel=%d: got %d results, want %d", parallel, len(got), n)
		}
		if calls.Load() != n {
			t.Fatalf("parallel=%d: fn ran %d times, want %d", parallel, calls.Load(), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: slot %d holds %d, want %d", parallel, i, v, i*i)
			}
		}
	}
}

// TestMapDeterministicRNG: a run whose randomness derives from its grid
// coordinates produces identical output at every parallelism level.
func TestMapDeterministicRNG(t *testing.T) {
	const n = 64
	sample := func(parallel int) []float64 {
		return MapProgress(parallel, n, nil, func(i int) float64 {
			rng := StreamRNG(2005, "determinism", i)
			s := 0.0
			for j := 0; j < 100; j++ {
				s += rng.Float64()
			}
			return s
		})
	}
	want := sample(1)
	for _, parallel := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := sample(parallel); !reflect.DeepEqual(got, want) {
			t.Errorf("parallel=%d: output differs from serial run", parallel)
		}
	}
}

// TestMapGrid: row-major flattening reassembles into the right [outer][inner]
// shape with grid-order contents.
func TestMapGrid(t *testing.T) {
	got := MapGridWorkerProgress(3, 4, 5, nil, noScratch, func(o, i int, _ struct{}) string {
		return fmt.Sprintf("%d:%d", o, i)
	})
	if len(got) != 4 {
		t.Fatalf("outer = %d, want 4", len(got))
	}
	for o, row := range got {
		if len(row) != 5 {
			t.Fatalf("row %d has %d cells, want 5", o, len(row))
		}
		for i, v := range row {
			if want := fmt.Sprintf("%d:%d", o, i); v != want {
				t.Errorf("cell (%d,%d) = %q, want %q", o, i, v, want)
			}
		}
	}
}

// TestForEachPanic: a panicking run surfaces on the caller, wrapped with its
// index, and the pool drains instead of hanging.
func TestForEachPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the worker panic to propagate")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "runner: run 13 panicked") {
			t.Fatalf("panic %q does not name the failing run", msg)
		}
	}()
	forEachWorkerProgress(4, 64, nil, noScratch, func(i int, _ struct{}) {
		if i == 13 {
			panic("boom")
		}
	})
}

// TestDeriveSeedIndependence: distinct labels and runs give distinct seeds;
// the same coordinates always give the same seed.
func TestDeriveSeedIndependence(t *testing.T) {
	seen := map[uint64]string{}
	for _, label := range []string{"pair", "topo", "cluster-1tier/MR/attack"} {
		for run := 0; run < 50; run++ {
			s := DeriveSeed(2005, label, run)
			if s != DeriveSeed(2005, label, run) {
				t.Fatal("DeriveSeed is not a pure function")
			}
			key := fmt.Sprintf("%s/%d", label, run)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s and %s", prev, key)
			}
			seen[s] = key
		}
	}
}

type countingProgress struct {
	started atomic.Int64
	done    atomic.Int64
}

func (p *countingProgress) Start(n int) { p.started.Add(int64(n)) }
func (p *countingProgress) RunDone()    { p.done.Add(1) }

// TestProgressHookCounts: Start sees the full cell count before the pool
// runs, RunDone fires exactly once per run, and the hook changes nothing
// about the results — at every parallelism level, including inline.
func TestProgressHookCounts(t *testing.T) {
	const n = 57
	want := MapWorker(1, n, noScratch, func(i int, _ struct{}) int { return i * 3 })
	for _, parallel := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		pr := &countingProgress{}
		got := MapProgress(parallel, n, pr, func(i int) int { return i * 3 })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallel=%d: progress hook perturbed results", parallel)
		}
		if pr.started.Load() != n {
			t.Errorf("parallel=%d: Start saw %d, want %d", parallel, pr.started.Load(), n)
		}
		if pr.done.Load() != n {
			t.Errorf("parallel=%d: RunDone fired %d times, want %d", parallel, pr.done.Load(), n)
		}
	}
}

// TestProgressGridFlattens: grid pools announce the flattened cell count.
func TestProgressGridFlattens(t *testing.T) {
	pr := &countingProgress{}
	MapGridWorkerProgress(3, 4, 5, pr, noScratch, func(o, i int, _ struct{}) int { return o*10 + i })
	if pr.started.Load() != 20 || pr.done.Load() != 20 {
		t.Errorf("grid progress = %d started / %d done, want 20/20", pr.started.Load(), pr.done.Load())
	}
}

// TestProgressNilSafe: a nil Progress is a no-op, not a crash.
func TestProgressNilSafe(t *testing.T) {
	got := MapProgress(4, 8, nil, func(i int) int { return i })
	if len(got) != 8 {
		t.Fatalf("nil progress broke the pool: %v", got)
	}
}

// TestMapEmpty: degenerate grids are no-ops, not crashes.
func TestMapEmpty(t *testing.T) {
	if got := MapProgress(4, 0, nil, func(i int) int { return i }); got != nil {
		t.Errorf("MapProgress over empty grid = %v, want nil", got)
	}
	if got := MapGridWorkerProgress(4, 0, 3, nil, noScratch, func(o, i int, _ struct{}) int { return 0 }); got != nil {
		t.Errorf("MapGridWorkerProgress with zero outer = %v, want nil", got)
	}
}
