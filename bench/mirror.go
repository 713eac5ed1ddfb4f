package main

import (
	"math/rand/v2"
	"strconv"
	"sync/atomic"
	"time"

	"samnet/internal/attack"
	"samnet/internal/routing"
	"samnet/internal/routing/dsr"
	"samnet/internal/routing/mr"
	"samnet/internal/runner"
	"samnet/internal/sam"
	"samnet/internal/sim"
	"samnet/internal/topology"
	"samnet/internal/verify"
)

// The traced repro run cannot put spans inside internal/experiment, so it
// mirrors each experiment's per-run shape with the same exported calls, the
// same seeds and the same runner grid, and times every call from outside.
// The mirror is checked against the real experiments two ways: its run
// count must equal the count the runner.Progress hook reports for the real
// sweep, and its per-run time must stay close to the real per-run time
// (bench.trace_overhead).

// caller makes the benchmark's calls into the layers, with a span around
// each, and counts the work they do.
type caller struct {
	seed    uint64
	runs    int // experiment.Config.Runs
	workers int
	tr      *tracer

	cells       atomic.Int64 // runner cells executed
	discoveries atomic.Int64
	packets     atomic.Int64 // Tx+Rx over all discoveries
	routes      atomic.Int64 // routes collected over all discoveries
	probed      atomic.Int64 // attacked runs handed to verify.Probe
	condemned   atomic.Int64
	busyNS      atomic.Int64 // time runner cells spent executing
	capacityNS  atomic.Int64 // runner.map wall time x active workers
}

// scratch is one runner worker's reusable network, as experiment's simCache.
type scratch struct{ net *sim.Network }

func newScratch() *scratch { return &scratch{} }

// topoFunc constructs a run's network; random topologies draw per run.
type topoFunc func(seed uint64, run int) *topology.Network

func clusterB(k int) topoFunc {
	return func(uint64, int) *topology.Network { return topology.Cluster(k, 2) }
}

func uniformB(cols, rows, k int) topoFunc {
	return func(uint64, int) *topology.Network { return topology.Uniform(cols, rows, k, 2) }
}

func randomB(seed uint64, run int) *topology.Network {
	return topology.Random(topology.RandomConfig{Wormholes: 2}, topoRNG(seed, run))
}

func pairRNG(seed uint64, run int) *rand.Rand {
	return rand.New(rand.NewPCG(runner.DeriveSeed(seed, "pair", run), 0x9e3779b97f4a7c15))
}

func topoRNG(seed uint64, run int) *rand.Rand {
	return rand.New(rand.NewPCG(runner.DeriveSeed(seed, "topo", run), 0x517cc1b727220a95))
}

func mrProto() routing.Protocol  { return &mr.Protocol{} }
func dsrProto() routing.Protocol { return &dsr.Protocol{} }

// cond is experiment.Condition rebuilt from exported parts.
type cond struct {
	label     string
	build     topoFunc
	wormholes int
	proto     func() routing.Protocol
	behavior  attack.PayloadBehavior
}

func mkCond(prefix string, build topoFunc, wormholes int, dsr bool) cond {
	c := cond{build: build, wormholes: wormholes, proto: mrProto}
	name := "/MR/"
	if dsr {
		c.proto, name = dsrProto, "/DSR/"
	}
	suffix := "normal"
	if wormholes > 0 {
		suffix = "attack"
	}
	c.label = prefix + name + suffix
	return c
}

func clusterC(k, wormholes int, dsr bool) cond {
	return mkCond("cluster-"+strconv.Itoa(k)+"tier", clusterB(k), wormholes, dsr)
}

func uniformC(cols, rows, k, wormholes int, dsr bool) cond {
	return mkCond("uniform"+strconv.Itoa(cols)+"x"+strconv.Itoa(rows)+"-"+strconv.Itoa(k)+"tier",
		uniformB(cols, rows, k), wormholes, dsr)
}

func randomC(wormholes int) cond { return mkCond("random", randomB, wormholes, false) }

// mapRuns runs fn over n runner cells like runner.MapWorker, inside a
// runner.map span, with one bench.run root span per cell.
func mapRuns[T any](d *caller, parent int32, n int, fn func(i int, sc *scratch, root, req int32) T) []T {
	id := d.tr.begin("runner.map", parent, 0)
	t0 := time.Now()
	out := runner.MapWorker(d.workers, n, newScratch, func(i int, sc *scratch) T {
		req := d.tr.newReq()
		root := d.tr.begin("bench.run", id, req)
		c0 := time.Now()
		v := fn(i, sc, root, req)
		d.busyNS.Add(int64(time.Since(c0)))
		d.tr.end(root)
		return v
	})
	d.capacityNS.Add(int64(time.Since(t0)) * int64(min(d.workers, n)))
	d.tr.end(id)
	d.cells.Add(int64(n))
	return out
}

// Span helpers. Each wraps exactly one exported call, so self time is the
// layer's own cost.

func (d *caller) build(b topoFunc, seed uint64, run int, root, req int32) *topology.Network {
	id := d.tr.begin("topology.build", root, req)
	net := b(seed, run)
	d.tr.end(id)
	return net
}

func (d *caller) network(sc *scratch, topo *topology.Topology, seed uint64, root, req int32) *sim.Network {
	id := d.tr.begin("sim.network", root, req)
	if sc.net == nil {
		sc.net = sim.NewNetwork(topo, sim.Config{Seed: seed})
	} else {
		sc.net.Retarget(topo, sim.Config{Seed: seed})
	}
	d.tr.end(id)
	return sc.net
}

func (d *caller) scenario(net *topology.Network, wormholes int, b attack.PayloadBehavior, root, req int32) *attack.Scenario {
	id := d.tr.begin("attack.scenario", root, req)
	sc := attack.NewScenario(net, wormholes, b)
	d.tr.end(id)
	return sc
}

func (d *caller) arm(sc *attack.Scenario, net *sim.Network, root, req int32) *attack.DropPolicy {
	id := d.tr.begin("attack.arm", root, req)
	p := sc.Arm(net)
	d.tr.end(id)
	return p
}

func (d *caller) teardown(sc *attack.Scenario, root, req int32) {
	id := d.tr.begin("attack.teardown", root, req)
	sc.Teardown()
	d.tr.end(id)
}

func (d *caller) discover(p routing.Protocol, net *sim.Network, src, dst topology.NodeID, root, req int32) *routing.Discovery {
	id := d.tr.begin("routing.discover", root, req)
	disc := p.Discover(net, src, dst)
	d.tr.end(id)
	d.discoveries.Add(1)
	d.packets.Add(disc.Overhead())
	d.routes.Add(int64(len(disc.Routes)))
	return disc
}

func (d *caller) probeRoutes(net *sim.Network, routes []routing.Route, root, req int32) []routing.ProbeResult {
	id := d.tr.begin("routing.probe", root, req)
	res := routing.ProbeRoutes(net, routes)
	d.tr.end(id)
	return res
}

func (d *caller) analyze(routes []routing.Route, root, req int32) sam.Stats {
	id := d.tr.begin("sam.analyze", root, req)
	st := sam.Analyze(routes)
	d.tr.end(id)
	return st
}

func (d *caller) evaluate(det *sam.Detector, st sam.Stats, root, req int32) sam.Verdict {
	id := d.tr.begin("sam.evaluate", root, req)
	v := det.Evaluate(st)
	d.tr.end(id)
	return v
}

// train folds stats into a profile, as every experiment's serial trainer
// fold does.
func (d *caller) train(label string, stats []sam.Stats, root int32) *sam.Profile {
	id := d.tr.begin("sam.train", root, 0)
	tr := sam.NewTrainer(label, 0)
	for _, s := range stats {
		tr.Observe(s)
	}
	p, err := tr.Profile()
	d.tr.end(id)
	if err != nil {
		panic("bench: training " + label + ": " + err.Error())
	}
	return p
}

// runOut is the part of experiment.RunResult later steps read.
type runOut struct {
	routes []routing.Route
	stats  sam.Stats
}

// runOne mirrors experiment.runOne.
func (d *caller) runOne(seed uint64, c cond, run int, sc *scratch, root, req int32) runOut {
	net := d.build(c.build, seed, run, root, req)
	var atk *attack.Scenario
	if c.wormholes > 0 {
		atk = d.scenario(net, c.wormholes, c.behavior, root, req)
	}
	src, dst := net.PickPair(pairRNG(seed, run))
	simNet := d.network(sc, net.Topo, runner.DeriveSeed(seed, c.label, run), root, req)
	if atk != nil {
		d.arm(atk, simNet, root, req)
	}
	disc := d.discover(c.proto(), simNet, src, dst, root, req)
	out := runOut{routes: disc.Routes, stats: d.analyze(disc.Routes, root, req)}
	if atk != nil {
		d.teardown(atk, root, req)
	}
	return out
}

// runConds mirrors experiment.RunConditions: one flattened grid.
func (d *caller) runConds(seed uint64, runs int, conds []cond, parent int32) [][]runOut {
	flat := mapRuns(d, parent, len(conds)*runs, func(k int, sc *scratch, root, req int32) runOut {
		return d.runOne(seed, conds[k/runs], k%runs, sc, root, req)
	})
	out := make([][]runOut, len(conds))
	for c := range out {
		out[c] = flat[c*runs : (c+1)*runs]
	}
	return out
}

func statsOf(rs []runOut) []sam.Stats {
	out := make([]sam.Stats, len(rs))
	for i, r := range rs {
		out[i] = r.stats
	}
	return out
}

// sweep mirrors one run of every experiment in ids, each under a bench.<id>
// root span.
func (d *caller) sweep(ids []string) {
	for _, id := range ids {
		root := d.tr.begin("bench."+id, -1, 0)
		d.experiment(id, root)
		d.tr.end(root)
	}
}

func (d *caller) experiment(id string, root int32) {
	s, n := d.seed, d.runs
	switch id {
	case "table1", "table2":
		d.runConds(s, n, []cond{clusterC(1, 1, false), clusterC(1, 1, true), uniformC(6, 6, 1, 1, false), uniformC(6, 6, 1, 1, true)}, root)
	case "fig5":
		d.runConds(s, n, []cond{clusterC(1, 0, false), clusterC(1, 1, false)}, root)
	case "fig6", "fig7":
		d.runConds(s, n, []cond{clusterC(1, 0, false), clusterC(1, 1, false), uniformC(6, 6, 1, 0, false), uniformC(6, 6, 1, 1, false)}, root)
	case "fig8":
		// Fig 8 renders two panels, each running the grid.
		for range 2 {
			d.runConds(s, n, []cond{uniformC(10, 6, 1, 0, false), uniformC(10, 6, 1, 1, false)}, root)
		}
	case "fig9":
		id := d.tr.begin("topology.build", root, 0)
		topology.Random(topology.RandomConfig{Wormholes: 1}, topoRNG(s, 0))
		d.tr.end(id)
	case "fig10":
		d.runConds(s, n, []cond{randomC(0), randomC(1)}, root)
	case "fig11", "fig12":
		d.runConds(s, n, []cond{clusterC(1, 0, false), clusterC(1, 1, false), clusterC(2, 0, false), clusterC(2, 1, false)}, root)
	case "fig13", "fig14":
		d.runConds(s, n, []cond{clusterC(1, 0, false), clusterC(1, 1, false), clusterC(1, 0, true), clusterC(1, 1, true)}, root)
	case "fig15":
		d.runConds(s, n, []cond{clusterC(1, 0, false), clusterC(1, 1, false), clusterC(1, 2, false)}, root)
	case "detection":
		d.detection(root)
	case "pdr":
		d.pdr(root)
	case "rocmatrix":
		d.rocMatrix(root)
	case "verifyloop":
		d.verifyLoop(root)
	default:
		panic("bench: no mirror for experiment " + id)
	}
}

// prober mirrors experiment.proberFor: replay the run's scenario on the
// worker's network and source-route the probes.
func (d *caller) prober(c cond, run int, sc *scratch, root, req int32) sam.Prober {
	return sam.ProberFunc(func(routes []routing.Route) []routing.ProbeResult {
		net := d.build(c.build, d.seed, run, root, req)
		var atk *attack.Scenario
		if c.wormholes > 0 {
			atk = d.scenario(net, c.wormholes, c.behavior, root, req)
		}
		simNet := d.network(sc, net.Topo, runner.DeriveSeed(d.seed, c.label+"/probe", run), root, req)
		if atk != nil {
			d.arm(atk, simNet, root, req)
			defer d.teardown(atk, root, req)
		}
		return d.probeRoutes(simNet, routes, root, req)
	})
}

func (d *caller) process(pipe *sam.Pipeline, routes []routing.Route, root, req int32) sam.Outcome {
	id := d.tr.begin("sam.pipeline", root, req)
	out := pipe.Process(routes)
	d.tr.end(id)
	return out
}

func (d *caller) detection(root int32) {
	for _, s := range []struct {
		name  string
		build topoFunc
	}{{"cluster-1tier", clusterB(1)}, {"uniform10x6", uniformB(10, 6, 1)}, {"random", randomB}} {
		normal := cond{label: s.name + "/MR/normal", build: s.build, proto: mrProto}
		attacked := cond{label: s.name + "/MR/attack", build: s.build, wormholes: 1, proto: mrProto, behavior: attack.Blackhole}
		profile := d.train(s.name+"/MR", statsOf(d.runConds(d.seed+1, 30, []cond{normal}, root)[0]), root)
		for _, c := range []cond{attacked, normal} {
			results := d.runConds(d.seed, d.runs, []cond{c}, root)[0]
			mapRuns(d, root, len(results), func(i int, sc *scratch, r, req int32) bool {
				det := sam.NewDetector(profile, sam.DetectorConfig{})
				pipe := sam.NewPipeline(det, d.prober(c, i, sc, r, req), nil, sam.PipelineConfig{})
				out := d.process(pipe, results[i].routes, r, req)
				return out.Report != nil && out.Report.Confirmed
			})
		}
	}
}

func (d *caller) pdr(root int32) {
	const packets = 5
	profile := d.train("pdr", statsOf(d.runConds(d.seed+11, 30, []cond{clusterC(1, 0, false)}, root)[0]), root)
	probeCond := cond{label: "pdr/probe", build: clusterB(1), wormholes: 1, proto: mrProto, behavior: attack.Blackhole}
	mapRuns(d, root, d.runs, func(run int, cache *scratch, r, req int32) int {
		net := d.build(clusterB(1), d.seed, run, r, req)
		sc := d.scenario(net, 1, attack.Blackhole, r, req)
		src, dst := net.PickPair(pairRNG(d.seed, run))
		discNet := d.network(cache, net.Topo, runner.DeriveSeed(d.seed, "pdr/disc", run), r, req)
		d.arm(sc, discNet, r, req)
		disc := d.discover(mrProto(), discNet, src, dst, r, req)

		delivered := 0
		send := func(routes []routing.Route, excluded map[topology.NodeID]bool) {
			routes = routing.SelectDisjoint(routes, 2)
			if len(routes) == 0 {
				return
			}
			pNet := d.network(cache, net.Topo, runner.DeriveSeed(d.seed, "pdr/send", run), r, req)
			policy := d.arm(sc, pNet, r, req)
			if excluded != nil {
				inner := policy.Func(pNet.Rand())
				pNet.SetDropFunc(func(n *sim.Network, from, to topology.NodeID, pkt sim.Packet) bool {
					return excluded[from] || excluded[to] || inner(n, from, to, pkt)
				})
			}
			var batch []routing.Route
			for i := 0; i < packets; i++ {
				batch = append(batch, routes[i%len(routes)])
			}
			for _, res := range d.probeRoutes(pNet, batch, r, req) {
				if res.Acked {
					delivered++
				}
			}
		}
		send(disc.Routes, nil)
		det := sam.NewDetector(profile, sam.DetectorConfig{})
		pipe := sam.NewPipeline(det, d.prober(probeCond, run, cache, r, req), nil, sam.PipelineConfig{})
		out := d.process(pipe, disc.Routes, r, req)
		send(out.SelectedRoutes, nil)
		excluded := map[topology.NodeID]bool{}
		if out.Report != nil && out.Report.Confirmed {
			excluded[out.Report.Suspects[0]] = true
			excluded[out.Report.Suspects[1]] = true
		}
		redisc := d.network(cache, net.Topo, runner.DeriveSeed(d.seed, "pdr/redisc", run), r, req)
		redisc.SetDropFunc(func(n *sim.Network, from, to topology.NodeID, pkt sim.Packet) bool {
			return excluded[from] || excluded[to]
		})
		clean := d.discover(mrProto(), redisc, src, dst, r, req)
		send(clean.Routes, excluded)
		d.teardown(sc, r, req)
		return delivered
	})
}

// rocMatrixRun mirrors experiment.rocMatrixRun.
func (d *caller) rocMatrixRun(seed uint64, label, proto, variant string, run int, cache *scratch, r, req int32) ([]routing.Route, []sim.Time, *sam.NeighborTables) {
	net := d.build(clusterB(1), seed, run, r, req)
	var sc *attack.Scenario
	if variant != "" {
		id := d.tr.begin("attack.scenario", r, req)
		var err error
		sc, err = attack.Named(variant, net, attack.Forward)
		d.tr.end(id)
		if err != nil {
			panic("bench: rocmatrix: " + err.Error())
		}
	}
	src, dst := net.PickPair(pairRNG(seed, run))
	simNet := d.network(cache, net.Topo, runner.DeriveSeed(seed, label, run), r, req)

	id := d.tr.begin("sam.neighbor_tables", r, req)
	nbr := sam.RadioNeighborTables(net.Topo)
	d.tr.end(id)
	var forge routing.ForgeFunc
	if sc != nil {
		d.arm(sc, simNet, r, req)
		id := d.tr.begin("sam.neighbor_tables", r, req)
		for _, w := range sc.Tunnels {
			if w.Installed() {
				nbr.ClaimLink(w.A, w.B)
			}
		}
		d.tr.end(id)
		if variant == "forge" {
			forge = sc.ForgeFunc()
		}
	}

	var routes []routing.Route
	var times []sim.Time
	if proto == "MR" {
		disc := d.discover(&mr.Protocol{Forge: forge}, simNet, src, dst, r, req)
		routes, times = disc.Routes, disc.Times
	} else {
		disc := d.discover(&dsr.Protocol{Forge: forge}, simNet, src, dst, r, req)
		routes = disc.Replies
		times = make([]sim.Time, len(disc.ReplyTimes))
		for i, at := range disc.ReplyTimes {
			times[i] = at - disc.FloodEnd
		}
	}
	if sc != nil {
		d.teardown(sc, r, req)
	}
	return routes, times, nbr
}

func (d *caller) rocMatrix(root int32) {
	profiles := map[string]*sam.Profile{}
	for _, proto := range []string{"MR", "DSR"} {
		label := "rocmatrix/train/" + proto
		stats := mapRuns(d, root, 30, func(run int, cache *scratch, r, req int32) sam.Stats {
			routes, _, _ := d.rocMatrixRun(d.seed+13, label, proto, "", run, cache, r, req)
			return d.analyze(routes, r, req)
		})
		profiles[proto] = d.train(label, stats, root)
	}
	cells := []struct{ name, proto, variant string }{
		{"normal/MR", "MR", ""}, {"classic/MR", "MR", "classic"}, {"latent/MR", "MR", "latent"},
		{"chain/MR", "MR", "chain"}, {"adaptive/MR", "MR", "adaptive"},
		{"normal/DSR", "DSR", ""}, {"forge/DSR", "DSR", "forge"},
	}
	mapRuns(d, root, len(cells)*d.runs, func(k int, cache *scratch, r, req int32) bool {
		cell, run := cells[k/d.runs], k%d.runs
		profile := profiles[cell.proto]
		routes, times, nbr := d.rocMatrixRun(d.seed, "rocmatrix/"+cell.name, cell.proto, cell.variant, run, cache, r, req)
		st := d.analyze(routes, r, req)
		samV := d.evaluate(sam.NewDetector(profile, sam.DetectorConfig{}), st, r, req)
		id := d.tr.begin("sam.hybrid_evaluate", r, req)
		hybV := sam.NewHybridDetector(profile, nbr, sam.HybridConfig{}).Evaluate(st, routes, times)
		d.tr.end(id)
		return samV.Decision != sam.Normal || hybV.Attacked
	})
}

func (d *caller) verifyLoop(root int32) {
	const packets = 5
	mrP := func(avoid func(topology.NodeID) bool) routing.Protocol { return &mr.Protocol{Avoid: avoid} }
	dsrP := func(avoid func(topology.NodeID) bool) routing.Protocol { return &dsr.Protocol{Avoid: avoid} }
	for _, s := range []struct {
		name  string
		build topoFunc
		proto func(func(topology.NodeID) bool) routing.Protocol
	}{
		{"cluster-1tier/MR", clusterB(1), mrP},
		{"cluster-1tier/DSR", clusterB(1), dsrP},
		{"uniform6x6/MR", uniformB(6, 6, 1), mrP},
		{"uniform6x6/DSR", uniformB(6, 6, 1), dsrP},
	} {
		label := "verifyloop/" + s.name
		proto := s.proto
		trainCond := cond{label: label + "/train", build: s.build, proto: func() routing.Protocol { return proto(nil) }}
		profile := d.train(label, statsOf(d.runConds(d.seed+11, 30, []cond{trainCond}, root)[0]), root)

		mapRuns(d, root, d.runs, func(run int, cache *scratch, r, req int32) int {
			delivered := 0
			net := d.build(s.build, d.seed, run, r, req)
			atk := d.scenario(net, 1, attack.Blackhole, r, req)
			src, dst := net.PickPair(pairRNG(d.seed, run))
			send := func(simNet *sim.Network, routes []routing.Route) {
				routes = routing.SelectDisjoint(routes, 2)
				if len(routes) == 0 {
					return
				}
				var batch []routing.Route
				for i := 0; i < packets; i++ {
					batch = append(batch, routes[i%len(routes)])
				}
				for _, res := range d.probeRoutes(simNet, batch, r, req) {
					if res.Acked {
						delivered++
					}
				}
			}
			net0 := func(tag string) *sim.Network {
				return d.network(cache, net.Topo, runner.DeriveSeed(d.seed, label+tag, run), r, req)
			}

			preNet := net0("/pre")
			send(preNet, d.discover(proto(nil), preNet, src, dst, r, req).Routes)

			atkNet := net0("/attack")
			d.arm(atk, atkNet, r, req)
			disc := d.discover(proto(nil), atkNet, src, dst, r, req)
			sendNet := net0("/send")
			d.arm(atk, sendNet, r, req)
			send(sendNet, disc.Routes)

			iso := verify.NewIsolationSet()
			v := d.evaluate(sam.NewDetector(profile, sam.DetectorConfig{}), d.analyze(disc.Routes, r, req), r, req)
			if v.Decision != sam.Normal {
				probeNet := net0("/probe")
				d.arm(atk, probeNet, r, req)
				id := d.tr.begin("verify.probe", r, req)
				verdict := verify.Probe(probeNet, v.SuspectLink, disc.Routes, verify.Config{}, iso)
				d.tr.end(id)
				d.probed.Add(1)
				if verdict.Condemned {
					iso.Condemn(verdict)
					d.condemned.Add(1)
				}
			}

			redisc := net0("/redisc")
			d.arm(atk, redisc, r, req)
			clean := d.discover(proto(iso.Avoid), redisc, src, dst, r, req)
			postNet := net0("/post")
			d.arm(atk, postNet, r, req)
			send(postNet, clean.Routes)
			d.teardown(atk, r, req)
			return delivered
		})
	}
}
