package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"time"

	"samnet/internal/experiment"
	"samnet/internal/runner"
)

// The repro workloads are what a researcher reproducing the paper runs:
// repeated sweeps of experiment.ByID(id).Run at the given size. repro-paper
// is topology-build and discovery heavy and runs the sam.Pipeline engine;
// repro-arms is its mirror image, dominated by the hybrid detector, attack
// variants, verify.Probe and discovery on cheap cluster topologies.
//
// A sweep's cost depends on its seed: repro-paper's random topologies are
// drawn by rejection sampling, and one seed's sweep can take twice
// another's. So each sweep of a run uses its own seed, derived from the
// run's, and the run reports the mean: a run averages over as many inputs
// as it has sweeps, and two runs with different seeds measure the same
// thing.

// reproSpec is one repro workload.
type reproSpec struct {
	ids  []string
	runs int // experiment.Config.Runs
	// allocRuns sizes the mirrored sweep of the allocation pass, which
	// stops the world twice per span and so cannot afford the full size.
	allocRuns int
}

var reproSpecs = map[string]reproSpec{
	"repro-paper": {
		ids:       []string{"table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "detection", "pdr"},
		runs:      10,
		allocRuns: 2,
	},
	"repro-arms": {
		ids:       []string{"rocmatrix", "verifyloop"},
		runs:      400,
		allocRuns: 10,
	},
}

// seedSeq proposes a run's sweep seeds: the run's own seed first, so the
// pinned digests apply to it, then seeds derived from it.
type seedSeq struct {
	seed uint64
	k    int
}

func (s *seedSeq) next() uint64 {
	k := s.k
	s.k++
	if k == 0 {
		return s.seed
	}
	return runner.DeriveSeed(s.seed, "bench/sweep", k)
}

// runCounter is the runner.Progress hook: it counts completed runs.
type runCounter struct{ n atomic.Int64 }

func (c *runCounter) Start(int) {}
func (c *runCounter) RunDone()  { c.n.Add(1) }

// sweepResult is one timed sweep.
type sweepResult struct {
	seed    uint64
	wall    time.Duration
	cpu     time.Duration   // process CPU time during the sweep
	perExp  []time.Duration // parallel to the spec's ids
	digests []string        // sha256 of each rendered artifact
	runs    int64
}

// undrawable is the panic of topology.Random when its rejection sampling
// runs out of tries. With the paper's node density that happens for about
// one repro-paper sweep seed in twenty; the seed is skipped, as a
// researcher would pick another.
const undrawable = "could not draw a connected random topology"

// sweep runs each experiment in ids once at seed and fingerprints its
// output. ok is false when seed cannot draw its random topologies.
func sweep(ids []string, runs int, seed uint64, workers int) (res sweepResult, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if !strings.Contains(fmt.Sprint(r), undrawable) {
				panic(r)
			}
			ok = false
		}
	}()
	var rc runCounter
	cfg := experiment.Config{Runs: runs, Seed: seed, Workers: workers, Progress: &rc}
	res = sweepResult{seed: seed, perExp: make([]time.Duration, len(ids)), digests: make([]string, len(ids))}
	t0 := time.Now()
	for i, id := range ids {
		def, err := experiment.ByID(id)
		if err != nil {
			panic(err)
		}
		e0 := time.Now()
		out := def.Run(cfg).Render()
		res.perExp[i] = time.Since(e0)
		sum := sha256.Sum256([]byte(out))
		res.digests[i] = hex.EncodeToString(sum[:])
	}
	res.wall = time.Since(t0)
	res.runs = rc.n.Load()
	return res, true
}

// nextSweep runs sweeps at the sequence's seeds until one can draw its
// inputs.
func nextSweep(spec reproSpec, seeds *seedSeq, workers int) sweepResult {
	for {
		if s, ok := sweep(spec.ids, spec.runs, seeds.next(), workers); ok {
			return s
		}
	}
}

// coldStarts measures set-up the only way a repro workload has one: a fresh
// process rendering the workload's first artifact, paying for process
// start, package initialisation and every pool and heap the later sweeps
// find warm. It runs n such processes and returns their wall times and the
// artifact's fingerprints.
func coldStarts(workload string, seed uint64, n int) ([]float64, []string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var secs []float64
	var digests []string
	for range n {
		cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-cold-start")
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		out, err := cmd.Output()
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			return secs, digests, fmt.Errorf("cold start: %w", err)
		}
		digests = append(digests, strings.TrimSpace(string(out)))
	}
	return secs, digests, nil
}

// runColdStart is the child side of coldStarts.
func runColdStart(workload string, seed uint64) {
	spec := reproSpecs[workload]
	s, ok := sweep(spec.ids[:1], spec.runs, seed, nproc())
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: %s at seed %d: %s\n", spec.ids[0], seed, undrawable)
		os.Exit(1)
	}
	fmt.Println(s.digests[0])
}

// runRepro runs a repro workload for budget and reports into r.
func runRepro(r *report, workload string, seed uint64, budget time.Duration, traced bool, outDir string) {
	spec := reproSpecs[workload]
	workers := nproc()
	seeds := &seedSeq{seed: seed}

	// The first sweep warms the process and is not timed. It is the
	// byte-identity reference: each cold process renders its first
	// artifact again, and at the pinned seed every artifact has a pinned
	// digest.
	ref := nextSweep(spec, seeds, workers)
	r.attempt(1)
	setups, coldDigests, err := coldStarts(workload, ref.seed, setupRepeats)
	r.attempt(len(setups))
	if err != nil {
		r.fail("%v", err)
	}
	r.set("setup_s", median(setups), "s")
	for i, d := range coldDigests {
		r.check(d == ref.digests[0], "%s: cold process %d rendered sha256 %s, the warm sweep %s", spec.ids[0], i, d, ref.digests[0])
	}
	if ref.seed == pinnedSeed {
		pins := pinned.Digests[workload]
		for i, id := range spec.ids {
			r.check(ref.digests[i] == pins[id], "%s at seed %d: sha256 %s, pinned %s", id, ref.seed, ref.digests[i], pins[id])
		}
	}

	measure := budget
	if traced {
		measure = budget / 2
	}
	rt := readRuntime()
	var sweeps []sweepResult
	var busy time.Duration // without sweeps skipped for their seed
	var rss []float64
	t0 := time.Now()
	for len(sweeps) < 3 || time.Since(t0) < measure {
		s := nextSweep(spec, seeds, workers)
		r.attempt(1)
		r.check(s.runs == ref.runs, "sweep at seed %d ran %d runs, the first sweep %d", s.seed, s.runs, ref.runs)
		sweeps = append(sweeps, s)
		busy += s.wall
		rss = append(rss, rssMB())
	}
	elapsed := time.Since(t0)
	rtDelta := readRuntime().since(rt, elapsed)

	walls := make([]float64, len(sweeps))
	for i, s := range sweeps {
		walls[i] = float64(s.wall) / 1e6
	}
	d := summarize(walls)
	mean := float64(busy) / 1e6 / float64(len(sweeps))
	r.note("sweeps", "%d sweeps of %d runs (%d seeds skipped): mean %.1f ms, median %.1f ms, max %.1f ms",
		d.N, ref.runs, seeds.k-1-len(sweeps), mean, d.P50, d.Max)
	r.set("latency_ms", mean, "ms")
	r.set("throughput_per_s", float64(ref.runs)*float64(len(sweeps))/busy.Seconds(), "1/s")
	r.set("rss_mb", median(rss), "MB")
	if !traced {
		return
	}

	r.set("runtime.alloc_mb_per_s", rtDelta.allocMBPerS, "MB/s")
	r.set("runtime.gc_cycles_per_s", rtDelta.gcPerS, "1/s")
	r.set("runner.runs_per_sweep", float64(ref.runs), "count")
	for i, id := range spec.ids {
		var exp time.Duration
		for _, s := range sweeps {
			exp += s.perExp[i]
		}
		r.set("experiment."+id+"_share", float64(exp)/float64(busy), "ratio")
	}

	// Timing pass: the timed sweeps' seeds again, mirrored with spans at
	// the real worker count. The work counters are read from the first
	// mirrored sweep, so they describe one sweep exactly.
	tr := newTracer(1<<18, false)
	var mirrorNS, realNS time.Duration
	var spansPerSweep int64
	var first *caller
	t1 := time.Now()
	for _, s := range sweeps {
		if first != nil && (time.Since(t1) >= budget/2 || tr.full(int(spansPerSweep))) {
			break
		}
		cl := &caller{seed: s.seed, runs: spec.runs, workers: workers, tr: tr}
		before := tr.n.Load()
		s0 := time.Now()
		cl.sweep(spec.ids)
		mirrorNS += time.Since(s0)
		realNS += s.wall
		spansPerSweep = tr.n.Load() - before
		r.check(cl.cells.Load() == ref.runs, "mirror ran %d runs per sweep, the experiments %d", cl.cells.Load(), ref.runs)
		if first == nil {
			first = cl
		}
	}
	r.check(tr.dropped.Load() == 0, "trace buffer overflowed by %d spans", tr.dropped.Load())

	// Allocation pass: one smaller mirrored sweep on one P.
	alloc := allocPass(func(t *tracer) {
		(&caller{seed: ref.seed, runs: spec.allocRuns, workers: 1, tr: t}).sweep(spec.ids)
	})

	p := buildProfile(tr, alloc)
	r.set("bench.trace_overhead", float64(mirrorNS)/float64(realNS), "ratio")
	r.set("runner.efficiency", float64(first.busyNS.Load())/float64(first.capacityNS.Load()), "ratio")
	r.set("routing.packets_per_discovery", float64(first.packets.Load())/float64(first.discoveries.Load()), "count")
	r.set("routing.routes_per_discovery", float64(first.routes.Load())/float64(first.discoveries.Load()), "count")
	condemn := 0.0
	if n := first.probed.Load(); n > 0 {
		condemn = float64(first.condemned.Load()) / float64(n)
	}
	r.set("verify.condemn_ratio", condemn, "ratio")
	r.layerProfile(p)
	if err := writeTrace(tracePath(outDir, workload), workload, seed, tr, p); err != nil {
		r.fail("writing trace: %v", err)
	}
}
