// Command samsim runs one simulated route discovery and prints the route
// set, SAM's statistics, and — when a trained profile is supplied — the
// detector's verdict.
//
// Usage:
//
//	samsim [-topo cluster|uniform6x6|uniform10x6|random] [-tier K]
//	       [-wormholes 0|1|2] [-behavior forward|blackhole|greyhole]
//	       [-protocol mr|smr|dsr|aomdv|aodv|mdsr] [-seed S]
//	       [-profile file.json] [-v] [-runs N] [-parallel P] [-progress]
//	       [-log-format text|json]
//	       [-cpuprofile file] [-memprofile file]
//
// Every run is a cell of the scenario grid batch training sweeps
// (internal/cli): run i has the topology, source/destination pair and
// simulation seed that /v1/train/batch and samtrain use for run i of the
// same scenario and seed, with the wormholes armed on top. With -runs N > 1,
// samsim runs cells 0..N-1 on a worker pool (-parallel, default all cores)
// and prints one summary line per run plus aggregates; the output is
// bitwise-identical for any -parallel level, including 1. A single run is
// cell 0, reported in detail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"samnet/internal/cli"
	"samnet/internal/obs"
	"samnet/internal/routing"
	"samnet/internal/runner"
	"samnet/internal/sam"
	"samnet/internal/topology"
	"samnet/internal/viz"
)

// logger is the command's structured logger, set before any work begins.
var logger = slog.Default()

func main() {
	var (
		topoName  = flag.String("topo", "cluster", "topology: cluster, uniform6x6, uniform10x6, random")
		tier      = flag.Int("tier", 1, "transmission range in grid spacings (grid topologies)")
		wormholes = flag.Int("wormholes", 1, "active wormhole pairs (0-2)")
		behavior  = flag.String("behavior", "forward", "attacker payload behaviour: forward, blackhole, greyhole")
		protoName = flag.String("protocol", "mr", "routing protocol: "+strings.Join(cli.ProtocolNames, ", "))
		seed      = flag.Uint64("seed", 1, "master seed of the scenario grid")
		profile   = flag.String("profile", "", "trained profile JSON (from samtrain) to evaluate a verdict")
		verbose   = flag.Bool("v", false, "print every route (single-run mode)")
		showMap   = flag.Bool("map", false, "render an ASCII map with the first route overlaid (single-run mode)")
		runsN     = flag.Int("runs", 1, "independent discoveries of this condition")
		parallel  = flag.Int("parallel", 0, "worker pool size with -runs > 1 (0 = all cores, 1 = serial)")
		progress  = flag.Bool("progress", false, "report run progress (runs/s, ETA) on stderr with -runs > 1")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	var err error
	if logger, err = cli.NewLogger(*logFormat); err != nil {
		fatal(err)
	}

	stopProfiles, err := cli.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	sc, err := cli.Resolve(*topoName, *tier, *protoName)
	if err == nil {
		sc, err = sc.Armed(*wormholes, *behavior, "")
	}
	if err != nil {
		fatal(err)
	}
	det := loadDetector(*profile)
	if *runsN > 1 {
		runBatch(sc, det, *seed, *runsN, *parallel, *progress)
		return
	}

	c := sc.Cell(*seed, 0)
	disc := c.Discover()
	o := summarize(c, disc, det)
	net := c.Net
	fmt.Printf("topology %s (%d nodes), protocol %s, src=%d dst=%d, seed=%d\n",
		net.Topo.Name(), net.Topo.N(), sc.Proto.Name(), o.src, o.dst, *seed)
	if c.Attack != nil {
		for i, l := range c.Attack.TunnelLinks() {
			fmt.Printf("wormhole %d: link %v (spans %d normal hops), behaviour %v\n",
				i+1, l, net.TunnelSpan(i), sc.Behavior)
		}
	}
	fmt.Printf("\nroutes: %d   overhead (tx+rx): %d\n", o.routes, o.overhead)
	fmt.Printf("traffic: tx=%d rx=%d dropped=%d lost=%d\n", o.tx, o.rx, o.dropped, o.lost)
	if *verbose {
		for _, r := range disc.Routes {
			fmt.Println("  ", r)
		}
	}
	st := o.stats
	fmt.Printf("p_max = %.4f (link %v)\nphi   = %.4f\nsuspect link: %v\n",
		st.PMax, st.MaxLink, st.Phi, st.Suspect)
	if *showMap {
		fmt.Println()
		if len(disc.Routes) > 0 {
			fmt.Print(viz.Discovery(net, disc.Routes[0]))
		} else {
			fmt.Print(viz.Network(net))
		}
	}
	if c.Attack != nil {
		fmt.Printf("routes affected by a tunnel: %.0f%%\n", 100*o.affected)
	}
	if v := o.verdict; v != nil {
		fmt.Printf("\nverdict vs profile %q: %v (lambda=%.3f, z_pmax=%.2f, z_phi=%.2f, tv=%.2f)\n",
			det.Profile().Label, v.Decision, v.Lambda, v.ZPMax, v.ZPhi, v.TV)
		if v.Decision != sam.Normal {
			fmt.Printf("accused pair: nodes %d and %d\n", v.Suspects[0], v.Suspects[1])
		}
	}
}

// loadDetector reads a trained profile JSON (from samtrain) into a detector;
// an empty path means no verdicts.
func loadDetector(path string) *sam.Detector {
	if path == "" {
		return nil
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var p sam.Profile
	if err := json.Unmarshal(blob, &p); err != nil {
		fatal(err)
	}
	return sam.NewDetector(&p, sam.DetectorConfig{})
}

// runOut is the result of one run. Fields are written by exactly one
// worker (the run's own) and read only after the pool drains.
type runOut struct {
	src, dst topology.NodeID
	routes   int
	overhead int64
	stats    sam.Stats
	affected float64 // fraction of routes crossing a tunnel
	verdict  *sam.Verdict
	tx, rx   int64 // simulator traffic totals for this run
	dropped  int64 // malicious payload drops (black/grey hole)
	lost     int64 // channel loss
}

// summarize reduces one cell's discovery to its report line. Evaluate is
// read-only on the detector (Update is never called here), so sharing one
// detector across workers is safe and keeps every run scored against the
// same frozen profile.
func summarize(c cli.Cell, disc *routing.Discovery, det *sam.Detector) runOut {
	o := runOut{
		src: c.Src, dst: c.Dst,
		routes:   len(disc.Routes),
		overhead: disc.Overhead(),
		stats:    sam.Analyze(disc.Routes),
		dropped:  c.Sim.Dropped(),
		lost:     c.Sim.Lost(),
	}
	o.tx, o.rx = c.Sim.TotalTraffic()
	if c.Attack != nil {
		for _, l := range c.Attack.TunnelLinks() {
			o.affected = max(o.affected, disc.AffectedBy(l))
		}
	}
	if det != nil {
		v := det.Evaluate(o.stats)
		o.verdict = &v
	}
	return o
}

// runBatch runs cells 0..runs-1 on the runner pool and prints one line per
// run, in run order, plus aggregates. The progress hook observes run
// completion only; stdout is identical with or without it.
func runBatch(sc cli.Scenario, det *sam.Detector, seed uint64, runs, parallel int, progress bool) {
	var pr *obs.Progress
	if progress {
		pr = obs.NewProgress(os.Stderr, "samsim", 0)
	}
	outs := runner.MapProgress(parallel, runs, pr, func(run int) runOut {
		c := sc.Cell(seed, run)
		return summarize(c, c.Discover(), det)
	})
	pr.Finish()

	fmt.Printf("condition %s, %d wormholes (%v), %d runs, master seed %d\n\n",
		sc.Label, sc.Wormholes, sc.Behavior, runs, seed)
	fmt.Printf("%4s %5s %5s %9s %8s %8s %8s  %s\n",
		"run", "src", "dst", "routes", "p_max", "phi", "affected", verdictHeader(det))
	var (
		sumPMax, sumPhi, sumAff    float64
		totalRoutes                int
		flagged                    int
		totTx, totRx, totDr, totLo int64
	)
	for run, o := range outs {
		v := ""
		if o.verdict != nil {
			v = fmt.Sprintf("%s (lambda=%.3f)", o.verdict.Decision, o.verdict.Lambda)
			if o.verdict.Decision != sam.Normal {
				flagged++
			}
		}
		fmt.Printf("%4d %5d %5d %9d %8.4f %8.4f %7.0f%%  %s\n",
			run, o.src, o.dst, o.routes, o.stats.PMax, o.stats.Phi, 100*o.affected, v)
		sumPMax += o.stats.PMax
		sumPhi += o.stats.Phi
		sumAff += o.affected
		totalRoutes += o.routes
		totTx += o.tx
		totRx += o.rx
		totDr += o.dropped
		totLo += o.lost
	}
	n := float64(len(outs))
	fmt.Printf("\nmean p_max = %.4f   mean phi = %.4f   mean affected = %.0f%%   routes/run = %.1f\n",
		sumPMax/n, sumPhi/n, sumAff/n*100, float64(totalRoutes)/n)
	fmt.Printf("traffic totals: tx=%d rx=%d dropped=%d lost=%d\n", totTx, totRx, totDr, totLo)
	if det != nil {
		fmt.Printf("flagged (suspicious or attacked): %d/%d\n", flagged, len(outs))
	}
}

func verdictHeader(det *sam.Detector) string {
	if det == nil {
		return ""
	}
	return "verdict"
}

func fatal(err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}
