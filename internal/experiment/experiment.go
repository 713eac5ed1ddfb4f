// Package experiment reproduces the paper's evaluation: every table and
// figure has a runner that regenerates it from the simulator, plus extension
// experiments (packet-leash comparison, end-to-end detection rates) and the
// registry the samrepro command and the benchmark suite drive.
//
// Determinism and parallelism: each run's simulation seed is derived from
// (master seed, condition label, run index), and the source/destination pair
// of run i is derived from (master seed, run index) only — so the same pairs
// are compared across normal/attacked conditions and across protocols, as a
// paired experiment should. Runs fan out over the internal/runner harness
// and are merged back in grid order, so output is byte-stable for every
// worker count, including 1.
package experiment

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"samnet/internal/attack"
	"samnet/internal/routing"
	"samnet/internal/routing/dsr"
	"samnet/internal/routing/mr"
	"samnet/internal/runner"
	"samnet/internal/sam"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// Config controls an experiment invocation.
type Config struct {
	// Runs is the number of simulation runs per condition (default 10, as
	// in the paper).
	Runs int
	// Seed is the master seed all per-run seeds derive from (default 2005,
	// the paper's year).
	Seed uint64
	// Workers bounds run-level parallelism (default NumCPU).
	Workers int
	// Progress, when non-nil, observes run completion for telemetry (run
	// counts and wall-clock only — see runner.Progress). It cannot influence
	// results: seeds derive from grid coordinates and results merge in grid
	// order regardless of the hook.
	Progress runner.Progress
}

func (c Config) withDefaults() Config {
	if c.Runs == 0 {
		c.Runs = 10
	}
	if c.Seed == 0 {
		c.Seed = 2005
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	return c
}

// deriveSeed hashes (master seed, label, run) into a simulation seed.
func deriveSeed(master uint64, label string, run int) uint64 {
	return runner.DeriveSeed(master, label, run)
}

// pairRNG returns the RNG that draws run i's source/destination pair. It
// depends only on (master seed, run), never on the condition, so conditions
// are compared on identical workloads.
func pairRNG(master uint64, run int) *rand.Rand {
	return rand.New(rand.NewPCG(deriveSeed(master, "pair", run), 0x9e3779b97f4a7c15))
}

// topoRNG returns the RNG used when a condition rebuilds a random topology
// per run.
func topoRNG(master uint64, run int) *rand.Rand {
	return rand.New(rand.NewPCG(deriveSeed(master, "topo", run), 0x517cc1b727220a95))
}

// Condition describes one simulated setting: a topology, a number of active
// wormholes, and a routing protocol.
type Condition struct {
	// Label names the condition ("cluster-1tier/MR/attack"); it feeds seed
	// derivation, so renaming a condition reshuffles its seeds.
	Label string
	// Build constructs the network for one run. Most conditions ignore run
	// and rebuild the same deterministic grid; random-topology conditions
	// draw each run's placement from topoRNG (see buildRandom).
	Build func(cfg Config, run int) *topology.Network
	// Wormholes is how many attacker pairs tunnel during the run.
	Wormholes int
	// Protocol constructs the routing protocol (fresh per run; protocols
	// are stateless but cheap to build).
	Protocol func() routing.Protocol
	// Behavior is the attackers' payload behaviour (default Forward).
	Behavior attack.PayloadBehavior
}

// RunResult is the outcome of one simulated route discovery.
type RunResult struct {
	Run      int
	Src, Dst topology.NodeID
	Routes   []routing.Route
	Stats    sam.Stats
	// Affected is the fraction of routes containing any active tunnel
	// link (0 under normal conditions).
	Affected float64
	// Overhead is Tx+Rx across all nodes for the discovery.
	Overhead int64
	// TunnelLinks are the active attack links (empty when Wormholes == 0).
	TunnelLinks []topology.Link
}

// simCache is one worker's reusable simulation state: a Network whose
// allocations (event queue, per-node slices) survive across the runs that
// worker executes. network() hands out the cached network retargeted onto
// the run's topology and config — behaviourally indistinguishable from a
// fresh sim.NewNetwork (see sim.Network.Retarget), so sharing it across
// whichever cells land on one worker cannot perturb results. A nil cache
// degrades to plain NewNetwork.
type simCache struct {
	net *sim.Network
}

func newSimCache() *simCache { return &simCache{} }

func (c *simCache) network(topo *topology.Topology, cfg sim.Config) *sim.Network {
	if c == nil {
		return sim.NewNetwork(topo, cfg)
	}
	if c.net == nil {
		c.net = sim.NewNetwork(topo, cfg)
	} else {
		c.net.Retarget(topo, cfg)
	}
	return c.net
}

// runOne executes one run of a condition.
func runOne(cfg Config, cond Condition, run int, sc1 *simCache) RunResult {
	net := cond.Build(cfg, run)
	var sc *attack.Scenario
	if cond.Wormholes > 0 {
		sc = attack.NewScenario(net, cond.Wormholes, cond.Behavior)
	}
	src, dst := net.PickPair(pairRNG(cfg.Seed, run))
	simNet := sc1.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, cond.Label, run)})
	if sc != nil {
		sc.Arm(simNet)
	}
	disc := cond.Protocol().Discover(simNet, src, dst)

	res := RunResult{
		Run:      run,
		Src:      src,
		Dst:      dst,
		Routes:   disc.Routes,
		Stats:    sam.Analyze(disc.Routes),
		Overhead: disc.Overhead(),
	}
	if sc != nil {
		res.TunnelLinks = sc.TunnelLinks()
		affected := 0
		for _, r := range disc.Routes {
			for _, l := range res.TunnelLinks {
				if r.ContainsLink(l) {
					affected++
					break
				}
			}
		}
		if len(disc.Routes) > 0 {
			res.Affected = float64(affected) / float64(len(disc.Routes))
		}
		sc.Teardown()
	}
	return res
}

// RunCondition executes cfg.Runs runs of cond over the runner harness and
// returns the results in run order.
func RunCondition(cfg Config, cond Condition) []RunResult {
	cfg = cfg.withDefaults()
	return runner.MapWorkerProgress(cfg.Workers, cfg.Runs, cfg.Progress, newSimCache, func(i int, sc *simCache) RunResult {
		return runOne(cfg, cond, i, sc)
	})
}

// RunConditions executes cfg.Runs runs of every condition as one flattened
// (condition x run) grid, so parallelism spans the whole grid instead of one
// condition at a time, and returns results[condition][run] in grid order.
// The output is identical to calling RunCondition per condition.
func RunConditions(cfg Config, conds []Condition) [][]RunResult {
	cfg = cfg.withDefaults()
	return runner.MapGridWorkerProgress(cfg.Workers, len(conds), cfg.Runs, cfg.Progress, newSimCache, func(c, i int, sc *simCache) RunResult {
		return runOne(cfg, conds[c], i, sc)
	})
}

// Standard network builders, shared across experiment definitions. Each
// builder builds its prototype network once, on first use, and hands every
// call a Clone of it: a run installs tunnels on its network, and a chain
// scenario filters its pools, so no two calls may share one. A prototype is
// frozen and never mutated, so workers clone it concurrently. Conditions
// that share one builder share its prototypes.

func buildCluster(k int) func(Config, int) *topology.Network {
	proto := sync.OnceValue(func() *topology.Network { return topology.Cluster(k, 2) })
	return func(Config, int) *topology.Network { return proto().Clone() }
}

func buildUniform(cols, rows, k int) func(Config, int) *topology.Network {
	proto := sync.OnceValue(func() *topology.Network { return topology.Uniform(cols, rows, k, 2) })
	return func(Config, int) *topology.Network { return proto().Clone() }
}

// buildRandom returns a builder that hands out run's placement, with the
// given number of attacker pairs, from the process's placement memo.
func buildRandom(wormholes int) func(Config, int) *topology.Network {
	return func(c Config, run int) *topology.Network { return placements.clone(wormholes, c.Seed, run) }
}

// keptSeeds is how many master seeds the placement memo keeps draws for. A
// sweep at master seed m touches m and m+1 (detection trains at m+1), so
// four seeds cover a sweep and its neighbour.
const keptSeeds = 4

// placements is the process's random-placement memo, shared by every
// experiment: fig9, fig10, detection, mobility and adaptive.
var placements placementMemo

// placementMemo keeps each random placement drawn from topoRNG(seed, run),
// keyed by (wormholes, seed, run). Rejection sampling makes a draw cost
// hundreds of tries, so each key is drawn once, even when two workers ask
// for it at once, and kept as a prototype that every call clones: a caller
// may move nodes or install tunnels. The memo holds the draws of the
// keptSeeds most recently used seeds and evicts a whole seed at a time, so
// a process that sweeps many seeds stays bounded while every key of one
// seed survives however many runs it has.
type placementMemo struct {
	mu    sync.Mutex
	seeds []seedPlacements // least recently used first
}

// seedPlacements holds one master seed's draws, by {wormholes, run}.
type seedPlacements struct {
	seed  uint64
	draws map[[2]int]func() *topology.Network
}

// clone returns a Clone of the placement at (wormholes, seed, run), drawing
// it on the key's first use, and marks the seed most recently used.
func (m *placementMemo) clone(wormholes int, seed uint64, run int) *topology.Network {
	m.mu.Lock()
	var s seedPlacements
	if i := slices.IndexFunc(m.seeds, func(s seedPlacements) bool { return s.seed == seed }); i >= 0 {
		s = m.seeds[i]
		m.seeds = slices.Delete(m.seeds, i, i+1)
	} else {
		s = seedPlacements{seed: seed, draws: make(map[[2]int]func() *topology.Network)}
		if len(m.seeds) == keptSeeds {
			m.seeds = slices.Delete(m.seeds, 0, 1)
		}
	}
	m.seeds = append(m.seeds, s)
	key := [2]int{wormholes, run}
	draw := s.draws[key]
	if draw == nil {
		// An undrawable key panics, and every later call at it panics alike.
		draw = sync.OnceValue(func() *topology.Network {
			return topology.Random(topology.RandomConfig{Wormholes: wormholes}, topoRNG(seed, run))
		})
		s.draws[key] = draw
	}
	m.mu.Unlock()
	return draw().Clone()
}

func mrProtocol() routing.Protocol  { return &mr.Protocol{} }
func dsrProtocol() routing.Protocol { return &dsr.Protocol{} }

// newCond assembles a Condition on a named topology. Its label,
// "<topo>/<protocol>/normal" or ".../attack", seeds the runs, so renaming
// either part reshuffles them.
func newCond(topo string, build func(Config, int) *topology.Network, wormholes int, proto func() routing.Protocol, protoName string) Condition {
	suffix := "normal"
	if wormholes > 0 {
		suffix = "attack"
	}
	return Condition{
		Label:     topo + "/" + protoName + "/" + suffix,
		Build:     build,
		Wormholes: wormholes,
		Protocol:  proto,
	}
}

func clusterCond(k, wormholes int, proto func() routing.Protocol, protoName string) Condition {
	return newCond("cluster-"+strconv.Itoa(k)+"tier", buildCluster(k), wormholes, proto, protoName)
}

func uniformCond(cols, rows, k, wormholes int, proto func() routing.Protocol, protoName string) Condition {
	topo := "uniform" + strconv.Itoa(cols) + "x" + strconv.Itoa(rows) + "-" + strconv.Itoa(k) + "tier"
	return newCond(topo, buildUniform(cols, rows, k), wormholes, proto, protoName)
}

// column is one plotted condition and its column header.
type column struct {
	name string
	cond Condition
}

// runColumns runs every column's condition as one RunConditions grid and
// returns the header row: "Run" and the column names.
func runColumns(cfg Config, cols []column) ([][]RunResult, []string) {
	conds := make([]Condition, len(cols))
	headers := []string{"Run"}
	for i, c := range cols {
		conds[i] = c.cond
		headers = append(headers, c.name)
	}
	return RunConditions(cfg, conds), headers
}

// Condition sets, each declared once for the artifacts that plot it. Each
// set builds its conditions, and so their builders, on first use and keeps
// them for the process: their prototypes are fixed grids, or live in the
// bounded placement memo.
var (
	// tableCols: Tables I and II, one wormhole on the 1-tier cluster and
	// 6x6 uniform grid under MR and DSR.
	tableCols = sync.OnceValue(func() []column {
		return []column{
			{"Cluster MR", clusterCond(1, 1, mrProtocol, "MR")},
			{"Cluster DSR", clusterCond(1, 1, dsrProtocol, "DSR")},
			{"Uniform MR", uniformCond(6, 6, 1, 1, mrProtocol, "MR")},
			{"Uniform DSR", uniformCond(6, 6, 1, 1, dsrProtocol, "DSR")},
		}
	})
	// oneTierCols: Figs 6 and 7, 1-tier cluster and uniform grid under MR.
	oneTierCols = sync.OnceValue(func() []column {
		return []column{
			{"Cluster normal", clusterCond(1, 0, mrProtocol, "MR")},
			{"Cluster attack", clusterCond(1, 1, mrProtocol, "MR")},
			{"Uniform normal", uniformCond(6, 6, 1, 0, mrProtocol, "MR")},
			{"Uniform attack", uniformCond(6, 6, 1, 1, mrProtocol, "MR")},
		}
	})
	// tierCols: Figs 11 and 12, cluster systems at 1- and 2-tier range.
	tierCols = sync.OnceValue(func() []column {
		return []column{
			{"1-tier normal", clusterCond(1, 0, mrProtocol, "MR")},
			{"1-tier attack", clusterCond(1, 1, mrProtocol, "MR")},
			{"2-tier normal", clusterCond(2, 0, mrProtocol, "MR")},
			{"2-tier attack", clusterCond(2, 1, mrProtocol, "MR")},
		}
	})
	// protocolCols: Figs 13 and 14, the 1-tier cluster's MR vs DSR routes.
	protocolCols = sync.OnceValue(func() []column {
		return []column{
			{"MR normal", clusterCond(1, 0, mrProtocol, "MR")},
			{"MR attack", clusterCond(1, 1, mrProtocol, "MR")},
			{"DSR normal", clusterCond(1, 0, dsrProtocol, "DSR")},
			{"DSR attack", clusterCond(1, 1, dsrProtocol, "DSR")},
		}
	})
	// wormholeCols: Fig 15, the 1-tier cluster under zero, one and two
	// wormholes.
	wormholeCols = sync.OnceValue(func() []column {
		return []column{
			{"No wormhole", clusterCond(1, 0, mrProtocol, "MR")},
			{"One wormhole", clusterCond(1, 1, mrProtocol, "MR")},
			{"Two wormholes", clusterCond(1, 2, mrProtocol, "MR")},
		}
	})
	// randomCols: Fig 10, random topologies normal versus attacked. Both
	// columns draw from the placement memo, and so share each run's draw.
	randomCols = sync.OnceValue(func() []column {
		build := buildRandom(2)
		return []column{
			{"Normal", newCond("random", build, 0, mrProtocol, "MR")},
			{"Attack", newCond("random", build, 1, mrProtocol, "MR")},
		}
	})
)

// trainRuns is how many normal-condition runs train a detector's profile.
const trainRuns = 30

// trainProfile folds trainRuns normal-condition runs into the profile a
// detector scores against. The runs draw from the workload stream at
// cfg.Seed+offset, disjoint from evaluation; stats gives one run's route
// statistics under that training config.
func trainProfile(cfg Config, label string, offset uint64, stats func(Config, int, *simCache) sam.Stats) *sam.Profile {
	cfg.Runs, cfg.Seed = trainRuns, cfg.Seed+offset
	trainer := sam.NewTrainer(label, 0)
	for _, st := range runner.MapWorkerProgress(cfg.Workers, cfg.Runs, cfg.Progress, newSimCache, func(run int, cache *simCache) sam.Stats {
		return stats(cfg, run, cache)
	}) {
		trainer.Observe(st)
	}
	profile, err := trainer.Profile()
	if err != nil {
		panic("experiment: " + label + " training failed: " + err.Error())
	}
	return profile
}

// stats is the condition's trainProfile run: runOne's route statistics.
func (c Condition) stats(cfg Config, run int, cache *simCache) sam.Stats {
	return runOne(cfg, c, run, cache).Stats
}
