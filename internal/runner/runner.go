// Package runner is the deterministic parallel experiment harness: it fans
// an indexed grid of independent runs across a bounded worker pool and
// merges the results back in grid order, so the output of any experiment is
// bitwise-identical for every parallelism level, including 1.
//
// The determinism contract has three legs:
//
//  1. Randomness derives from grid coordinates, never from workers. Every
//     run draws its RNG streams via DeriveSeed/StreamRNG from (master seed,
//     axis label, run index) — a pure function of the cell's position in the
//     grid. Which worker executes a cell, and in what order cells complete,
//     cannot influence a single random draw.
//  2. Results are merged in grid order. The pool writes each result into the
//     slot its index owns; no result ever passes through a channel whose
//     receive order depends on scheduling.
//  3. Cross-run state folds serially. Anything order-sensitive (trainer
//     accumulators, adaptive detectors, floating-point sums) is folded by
//     the caller over the merged slice, in index order, after the parallel
//     phase.
//
// Workers pull the next cell from an atomic cursor (work stealing), so an
// expensive cell never idles the pool the way static striping would.
package runner

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
)

// Progress observes the pool's lifecycle for telemetry: Start announces the
// cell count before the pool begins, RunDone fires once per completed run.
// Implementations must be safe for concurrent use, and — because completion
// order is scheduling-dependent — must never influence results: a Progress
// may aggregate counts and wall-clock time, nothing else. The obs package
// provides the standard implementation; a nil Progress is a no-op.
type Progress interface {
	Start(n int)
	RunDone()
}

// MapProgress executes fn(0..n-1) on min(parallel, n) workers and returns
// the results in index order. parallel <= 0 selects GOMAXPROCS; parallel == 1
// runs inline with no goroutines at all. A panic in any fn is re-raised on
// the caller's goroutine after the remaining workers drain. pr, when non-nil,
// observes the pool (see Progress).
func MapProgress[T any](parallel, n int, pr Progress, fn func(i int) T) []T {
	return MapWorkerProgress(parallel, n, pr, noScratch, func(i int, _ struct{}) T { return fn(i) })
}

func noScratch() struct{} { return struct{}{} }

// MapWorker is MapProgress without a hook and with per-worker scratch:
// newScratch runs once per worker goroutine (once in total when the pool is
// inline) and its value is passed to every fn call that worker executes. Scratch must be semantically inert
// — reusable buffers, pooled networks — because which cells share a scratch
// depends on scheduling; results must be bitwise-independent of it. The
// determinism contract is otherwise unchanged.
func MapWorker[T, S any](parallel, n int, newScratch func() S, fn func(i int, scratch S) T) []T {
	return MapWorkerProgress[T, S](parallel, n, nil, newScratch, fn)
}

// MapWorkerProgress is MapWorker with a progress hook (see Progress).
func MapWorkerProgress[T, S any](parallel, n int, pr Progress, newScratch func() S, fn func(i int, scratch S) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	forEachWorkerProgress(parallel, n, pr, newScratch, func(i int, s S) { out[i] = fn(i, s) })
	return out
}

// forEachWorkerProgress runs fn(0..n-1) over the pool with per-worker
// scratch; fn must write only to state its index owns. pr.Start(n) fires
// before the first run, pr.RunDone after each completed run, on whichever
// worker finished it. The determinism contract is unchanged — the hook
// observes scheduling, so it must never feed back into results.
func forEachWorkerProgress[S any](parallel, n int, pr Progress, newScratch func() S, fn func(i int, scratch S)) {
	if n <= 0 {
		return
	}
	if pr != nil {
		pr.Start(n)
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	if parallel == 1 {
		s := newScratch()
		for i := 0; i < n; i++ {
			fn(i, s)
			if pr != nil {
				pr.RunDone()
			}
		}
		return
	}
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
		once   sync.Once
		panicv any
	)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newScratch()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							once.Do(func() { panicv = fmt.Errorf("runner: run %d panicked: %v", i, r) })
							// Park the cursor past the end so the pool
							// drains instead of starting more cells.
							cursor.Store(int64(n))
						}
					}()
					fn(i, s)
					if pr != nil {
						pr.RunDone()
					}
				}()
			}
		}()
	}
	wg.Wait()
	if panicv != nil {
		panic(panicv)
	}
}

// MapGridWorkerProgress executes fn over an outer x inner grid, flattened
// row-major into one work list so parallelism spans the whole grid (a slow
// outer row never serializes behind the others), and returns results as
// [outer][inner]T in grid order. Scratch is per worker (see MapWorker); the
// hook's Start receives the flattened cell count outer*inner.
func MapGridWorkerProgress[T, S any](parallel, outer, inner int, pr Progress, newScratch func() S, fn func(o, i int, scratch S) T) [][]T {
	if outer <= 0 || inner <= 0 {
		return nil
	}
	flat := MapWorkerProgress(parallel, outer*inner, pr, newScratch, func(k int, s S) T {
		return fn(k/inner, k%inner, s)
	})
	out := make([][]T, outer)
	for o := range out {
		out[o] = flat[o*inner : (o+1)*inner]
	}
	return out
}

// DeriveSeed hashes (master seed, label, run) into an independent stream
// seed. The label names the axis or condition ("cluster-1tier/MR/attack",
// "pair", "topo"); renaming a label reshuffles its streams, nothing else
// does.
func DeriveSeed(master uint64, label string, run int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(master >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(run) >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// StreamRNG returns the PCG stream owned by grid cell (master, label, run).
// Two distinct cells get statistically independent streams; the same cell
// always gets the same stream, regardless of worker identity or completion
// order.
func StreamRNG(master uint64, label string, run int) *rand.Rand {
	return rand.New(rand.NewPCG(DeriveSeed(master, label, run), 0x9e3779b97f4a7c15))
}
