package experiment

import (
	"samnet/internal/attack"
	"samnet/internal/report"
	"samnet/internal/routing"
	"samnet/internal/routing/dsr"
	"samnet/internal/routing/mr"
	"samnet/internal/runner"
	"samnet/internal/sam"
	"samnet/internal/sim"
)

// ROCMatrix sweeps the detector family against the adversary family — the
// arms race the paper's single classic wormhole never exercises. Rows are
// scenarios (normal plus each complex-attack variant); columns are the three
// detectors: SAM alone (the paper's p_max/phi statistic), the PMF test (the
// paper's alternative statistic, the hybrid's ByPMF channel), and the hybrid
// that adds per-link z-scores, neighbor-table comparison and
// delay-consistency evidence. The interesting cells are the ones where a
// complex adversary flattens the frequency signal SAM keys on (relay chains
// split it, adaptive throttling starves it, forgery diversifies it) and the
// hybrid's side channels recover the detection — without raising the normal
// rows' false-alarm rate.
func ROCMatrix(cfg Config) *report.Artifact {
	cfg = cfg.withDefaults()
	rows := rocMatrixRows(cfg)

	matrix := &report.Table{
		Title:   "Extension — ROC matrix: detector family vs. adversary family (1-tier cluster)",
		Headers: []string{"Scenario", "Routes", "p_max", "SAM", "PMF", "Hybrid"},
		Notes: []string{
			"Each detector column is the fraction of runs flagged: a false-alarm rate on the " +
				"normal rows, a detection rate on the attack rows.",
			"SAM flags a verdict other than 'normal' (it triggers step-2 probing); PMF flags on " +
				"total-variation distance or tail mass; the hybrid ORs SAM with per-link z-score, " +
				"neighbor-table and delay-consistency evidence.",
			"MR rows score the destination's collected routes; DSR rows score the replies the " +
				"source receives (forged replies never reach the destination's collection).",
		},
	}
	channels := &report.Table{
		Title:   "Hybrid evidence channels (fraction of runs each channel fired)",
		Headers: []string{"Scenario", "BySAM", "ByPMF", "ByZ", "ByNeighbor", "ByDelay"},
		Notes: []string{
			"Which leg of the hybrid carries each detection: chains and adaptive tunnels evade " +
				"the frequency channels but leak through neighbor detours and timing; forged " +
				"replies leak through uncorroborated links and impossible reply latency.",
		},
	}
	for _, r := range rows {
		matrix.AddRow(r.Scenario,
			report.F2(r.MeanRoutes), report.F(r.MeanPMax),
			report.Pct(r.SAM), report.Pct(r.PMF), report.Pct(r.Hybrid))
		channels.AddRow(r.Scenario,
			report.Pct(r.Channels[0]), report.Pct(r.Channels[1]), report.Pct(r.Channels[2]),
			report.Pct(r.Channels[3]), report.Pct(r.Channels[4]))
	}
	return &report.Artifact{ID: "rocmatrix", Kind: "extension", Tables: []*report.Table{matrix, channels}}
}

// rocMatrixRow is one scenario's aggregate outcome, exposed separately from
// the rendered table so the golden and determinism tests can pin bands.
type rocMatrixRow struct {
	Scenario string
	// SAM, PMF, Hybrid are the flagged-run fractions per detector.
	SAM, PMF, Hybrid float64
	// Channels are the hybrid's per-channel firing fractions, in verdict
	// order: BySAM, ByPMF, ByZ, ByNeighbor, ByDelay.
	Channels [5]float64
	// MeanPMax and MeanRoutes summarize the scored route sets.
	MeanPMax, MeanRoutes float64
}

// rocMatrixCell names one scenario row: a protocol family and an adversary
// variant ("" = normal).
type rocMatrixCell struct {
	name    string
	proto   string // "MR" or "DSR"
	variant string // attack.Named vocabulary
}

// rocMatrixCells is the sweep grid. MR rows cover the tunnel-based variants
// (the destination's collection is where tunnel frequency shows); the DSR
// rows cover reply forgery, which only exists on the reply path, plus its own
// normal baseline.
func rocMatrixCells() []rocMatrixCell {
	return []rocMatrixCell{
		{"normal/MR", "MR", ""},
		{"classic/MR", "MR", "classic"},
		{"latent/MR", "MR", "latent"},
		{"chain/MR", "MR", "chain"},
		{"adaptive/MR", "MR", "adaptive"},
		{"normal/DSR", "DSR", ""},
		{"forge/DSR", "DSR", "forge"},
	}
}

// rocMatrixNet builds every rocmatrix run's network.
var rocMatrixNet = buildCluster(1)

// rocMatrixRun executes one discovery of one cell and returns what a
// detector deployment would see: the scored route set, its per-route timing
// (nil-safe for the delay check), and the claimed neighbor tables (honest
// radio claims plus the colluders corroborating their own tunnels).
func rocMatrixRun(cfg Config, label, proto, variant string, run int, cache *simCache) ([]routing.Route, []sim.Time, *sam.NeighborTables) {
	net := rocMatrixNet(cfg, run)
	var sc *attack.Scenario
	if variant != "" {
		var err error
		sc, err = attack.Named(variant, net, attack.Forward)
		if err != nil {
			panic("experiment: rocmatrix: " + err.Error())
		}
	}
	src, dst := net.PickPair(pairRNG(cfg.Seed, run))
	simNet := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, label, run)})

	nbr := sam.RadioNeighborTables(net.Topo)
	var forge routing.ForgeFunc
	if sc != nil {
		sc.Arm(simNet)
		for _, w := range sc.Tunnels {
			if w.Installed() {
				nbr.ClaimLink(w.A, w.B)
			}
		}
		if variant == "forge" {
			forge = sc.ForgeFunc()
		}
	}

	var routes []routing.Route
	var times []sim.Time
	switch proto {
	case "MR":
		disc := (&mr.Protocol{Forge: forge}).Discover(simNet, src, dst)
		routes, times = disc.Routes, disc.Times
	case "DSR":
		disc := (&dsr.Protocol{Forge: forge}).Discover(simNet, src, dst)
		routes = disc.Replies
		times = make([]sim.Time, len(disc.ReplyTimes))
		for i, at := range disc.ReplyTimes {
			// Reply travel time: forged replies launch mid-flood and land
			// before the flood ends, so their elapsed time goes negative —
			// squarely inside the hybrid's "faster than radio" band.
			times[i] = at - disc.FloodEnd
		}
	default:
		panic("experiment: rocmatrix: unknown protocol " + proto)
	}
	if sc != nil {
		sc.Teardown()
	}
	return routes, times, nbr
}

// rocMatrixProfile trains one protocol family's normal-condition profile on a
// seed stream disjoint from evaluation.
func rocMatrixProfile(cfg Config, proto string) *sam.Profile {
	label := "rocmatrix/train/" + proto
	return trainProfile(cfg, label, 13, func(cfg Config, run int, cache *simCache) sam.Stats {
		routes, _, _ := rocMatrixRun(cfg, label, proto, "", run, cache)
		return sam.Analyze(routes)
	})
}

func rocMatrixRows(cfg Config) []rocMatrixRow {
	cfg = cfg.withDefaults()
	profiles := map[string]*sam.Profile{
		"MR":  rocMatrixProfile(cfg, "MR"),
		"DSR": rocMatrixProfile(cfg, "DSR"),
	}
	cells := rocMatrixCells()

	type out struct {
		flags    [3]bool // SAM, PMF, hybrid
		channels [5]bool // BySAM, ByPMF, ByZ, ByNeighbor, ByDelay
		pmax     float64
		routes   int
	}
	outs := runner.MapGridWorkerProgress(cfg.Workers, len(cells), cfg.Runs, cfg.Progress, newSimCache, func(c, run int, cache *simCache) out {
		cell := cells[c]
		profile := profiles[cell.proto]
		routes, times, nbr := rocMatrixRun(cfg, "rocmatrix/"+cell.name, cell.proto, cell.variant, run, cache)
		st := sam.Analyze(routes)
		samV := sam.NewDetector(profile, sam.DetectorConfig{}).Evaluate(st)
		hybV := sam.NewHybridDetector(profile, nbr, sam.HybridConfig{}).Evaluate(st, routes, times)
		return out{
			flags:    [3]bool{samV.Decision != sam.Normal, hybV.ByPMF, hybV.Attacked},
			channels: [5]bool{hybV.BySAM, hybV.ByPMF, hybV.ByZ, hybV.ByNeighbor, hybV.ByDelay},
			pmax:     st.PMax,
			routes:   len(routes),
		}
	})

	rows := make([]rocMatrixRow, len(cells))
	for c, cell := range cells {
		runs := outs[c]
		r := rocMatrixRow{
			Scenario:   cell.name,
			SAM:        rate(runs, func(o out) bool { return o.flags[0] }),
			PMF:        rate(runs, func(o out) bool { return o.flags[1] }),
			Hybrid:     rate(runs, func(o out) bool { return o.flags[2] }),
			MeanPMax:   mean(runs, func(o out) float64 { return o.pmax }),
			MeanRoutes: mean(runs, func(o out) float64 { return float64(o.routes) }),
		}
		for i := range r.Channels {
			r.Channels[i] = rate(runs, func(o out) bool { return o.channels[i] })
		}
		rows[c] = r
	}
	return rows
}
