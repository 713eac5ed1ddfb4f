// Command bench is samnet's benchmark: one command that measures both of the
// system's pipelines end to end, and layer by layer in a separate traced
// run. See README.md for the workloads, the metrics and how to compare two
// commits.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds N] [-trace 0|1]
//
// With no -workload every workload runs, each in its own child process. The
// last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workloads lists every workload in the order a full run executes them.
var workloads = []string{"repro-paper", "repro-arms", "serve-detect", "serve-fleet"}

// setupRepeats is how many times each run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

func nproc() int { return runtime.NumCPU() }

// traceFlag accepts -trace 0|1 (and true/false), a value flag rather than a
// boolean one so that "-trace 0" parses as a value.
type traceFlag bool

func (t *traceFlag) String() string { return fmt.Sprint(bool(*t)) }
func (t *traceFlag) Set(s string) error {
	switch s {
	case "1", "true":
		*t = true
	case "0", "false":
		*t = false
	default:
		return fmt.Errorf("want 0 or 1, got %q", s)
	}
	return nil
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (empty runs all: "+strings.Join(workloads, ", ")+")")
		seed      = flag.Uint64("seed", pinnedSeed, "seed every input is generated from")
		seconds   = flag.Int("seconds", 20, "measured seconds per workload")
		outDir    = flag.String("out", filepath.Join("bench", "out"), "directory for traced runs' span files")
		coldStart = flag.Bool("cold-start", false, "render a repro workload's first artifact and print its fingerprint (used by set-up timing)")
		traced    traceFlag
	)
	flag.Var(&traced, "trace", "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}
	if *workload != "" && !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if *coldStart {
		runColdStart(*workload, *seed)
		return
	}
	if *workload == "" {
		os.Exit(runAll(*seed, *seconds, bool(traced), *outDir))
	}
	r := runWorkload(*workload, *seed, time.Duration(*seconds)*time.Second, bool(traced), *outDir)
	r.print(os.Stdout)
	if !r.correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process.
func runWorkload(workload string, seed uint64, budget time.Duration, traced bool, outDir string) *report {
	r := &report{workload: workload, traced: traced, correct: true, values: map[string]metricValue{}}
	if _, ok := reproSpecs[workload]; ok {
		runRepro(r, workload, seed, budget, traced, outDir)
	} else {
		runServe(r, workload, seed, budget, traced, outDir)
	}
	r.finish()
	return r
}

// runAll runs every workload in its own child process, so memory and
// collector state are per workload, and folds their results into one line.
func runAll(seed uint64, seconds int, traced bool, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	code := 0
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", traceArg, "-out", outDir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		last := ""
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if last != "" {
				fmt.Println(last)
			}
			last = sc.Text()
		}
		io.Copy(io.Discard, stdout)
		werr := cmd.Wait()
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: no result line (%v)\n", w, werr)
			all.Correct, code = false, 1
			continue
		}
		if werr != nil {
			code = 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, v := range res.Metrics {
			all.Metrics[w+"."+name] = v
		}
	}
	blob, _ := json.Marshal(all)
	fmt.Println(string(blob))
	if !all.Correct {
		code = 1
	}
	return code
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one workload run's metrics, counts and check failures.
type report struct {
	workload  string
	traced    bool
	correct   bool
	attempted int
	failed    int
	values    map[string]metricValue
	lines     []string
}

func (r *report) attempt(n int) { r.attempted += n }

// fail records a failed operation or check.
func (r *report) fail(format string, args ...any) { r.failures(1, format, args...) }

// failures records n failed operations described by one message.
func (r *report) failures(n int, format string, args ...any) {
	r.failed += n
	r.correct = false
	fmt.Fprintf(os.Stderr, "bench: %s: FAIL: %s\n", r.workload, fmt.Sprintf(format, args...))
}

// check counts one check and records it as failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// set records a metric's value.
func (r *report) set(name string, v float64, unit string) { r.values[name] = metricValue{v, unit} }

// note adds a human-readable line to the run's output.
func (r *report) note(key, format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf("# %s %s: %s", r.workload, key, fmt.Sprintf(format, args...)))
}

// layerProfile reports the per-layer metrics a trace profile yields, and
// checks that the layers account for at least 90% of the traced time.
func (r *report) layerProfile(p profile) {
	r.check(p.share("bench") <= 0.10, "the benchmark's own spans hold %.1f%% of traced time", 100*p.share("bench"))
	for _, m := range perLayer {
		if m.op == "" {
			continue
		}
		switch m.unit {
		case "us":
			r.set(m.name, p.meanUS(m.op), m.unit)
		case "ratio":
			r.set(m.name, p.share(m.op), m.unit)
		case "count":
			r.set(m.name, p.allocsPerCall(m.op), m.unit)
		}
	}
}

// finish checks that every metric this run owes was measured. Per-layer
// metrics of layers the workload never calls read 0.
func (r *report) finish() {
	if !r.traced {
		for _, m := range endToEnd {
			if _, ok := r.values[m.name]; !ok {
				r.fail("metric %s was not measured", m.name)
			}
		}
		return
	}
	for _, m := range perLayer {
		if _, ok := r.values[m.name]; ok {
			continue
		}
		if m.exercisedBy(r.workload) {
			r.fail("metric %s was not measured", m.name)
		}
		r.values[m.name] = metricValue{0, m.unit}
	}
}

// print writes every metric as "workload metric value unit", then the
// result line with the metrics this mode reports.
func (r *report) print(w io.Writer) {
	for _, line := range r.lines {
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(r.values))
	for name := range r.values {
		names = append(names, name)
	}
	slices.Sort(names)
	res := result{Correct: r.correct, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metricValue{}}
	declared := endToEnd
	if r.traced {
		declared = perLayer
	}
	for _, name := range names {
		v := r.values[name]
		fmt.Fprintf(w, "%s %s %v %s\n", r.workload, name, v.Value, v.Unit)
		if slices.ContainsFunc(declared, func(m metricDecl) bool { return m.name == name }) {
			res.Metrics[name] = v
		}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(blob))
}

func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, workload+".trace.json")
}

// rssMB is this process's resident set now, from /proc/self/statm.
func rssMB() float64 {
	blob, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(blob))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rtSample is a reading of the runtime's allocation and GC counters.
type rtSample struct{ allocBytes, gcCycles uint64 }

type rtRates struct{ allocMBPerS, gcPerS float64 }

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return rtSample{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

func (s rtSample) since(prev rtSample, d time.Duration) rtRates {
	return rtRates{
		allocMBPerS: float64(s.allocBytes-prev.allocBytes) / (1 << 20) / d.Seconds(),
		gcPerS:      float64(s.gcCycles-prev.gcCycles) / d.Seconds(),
	}
}

// allocPass runs fn twice on one P: once to fill every pool and cache, then
// with the collector off and span allocation counting on. A collection
// empties sync.Pools, and a goroutine moving to another P misses objects
// pooled on the first, so with neither the counts repeat exactly from run
// to run.
func allocPass(fn func(*tracer)) *tracer {
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	fn(nil)
	runtime.GC() // pools move to their victim caches, still served by Get
	old := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(old)
		runtime.GC()
	}()
	t := newTracer(1<<16, true)
	fn(t)
	return t
}
