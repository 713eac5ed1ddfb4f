package sam

import (
	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// HybridConfig configures the hybrid detector. Only its fused SAM module is
// settable; the PMF cut points (pmfTVThreshold, pmfTailProb), the detour
// length (detourHops) and the delay band (slowHopRatio, fastHopRatio around
// nominalHopDelay) are constants.
type HybridConfig struct {
	// Detector configures the fused SAM module (z ramp, Beta); its
	// ZHigh also serves as the per-link z-score alarm level.
	Detector DetectorConfig
}

// The hybrid detector's fixed cut points.
const (
	// pmfTVThreshold and pmfTailProb are the PMF test, the paper's
	// alternative statistic (Section III): compare the live PMF of n/N with
	// the trained profile's. A route set fires when its total-variation
	// distance to the profile is at least pmfTVThreshold, or when the
	// profile's own tail mass at the live p_max — "the probability of high
	// usage link" — is below pmfTailProb: no normal run produced a link
	// that frequent.
	pmfTVThreshold = 0.5
	pmfTailProb    = 0.02
	// detourHops is the corroborated-detour length at which a claimed link
	// counts as a wormhole: honest radio links on the paper's topologies
	// detour around themselves in at most 3 hops.
	detourHops = 4
	// slowHopRatio flags a route whose per-hop latency reaches this multiple
	// of nominalHopDelay — tunnel store-and-forward cost surfacing in the
	// discovery timing (honest jitter tops out well under it, while even
	// one slow tunnel crossing pushes a route past it). fastHopRatio flags
	// latencies at or below that multiple — replies that arrived faster
	// than radio allows, i.e. forged mid-flood.
	slowHopRatio = 1.2
	fastHopRatio = 0.6
	// nominalHopDelay is the expected honest per-hop latency the delay
	// check normalizes by: unit hop delay plus mean jitter.
	nominalHopDelay sim.Time = 1.05
)

// HybridVerdict is the hybrid detector's evaluation: the fused decision plus
// which evidence channels fired.
type HybridVerdict struct {
	// Attacked is the fused decision: any channel's alarm condemns the set.
	Attacked bool
	// BySAM: the frequency detector's own hard verdict (Decision ==
	// Attacked). ByPMF: the PMF test (pmfTVThreshold, pmfTailProb). ByZ:
	// some link's frequency sits ZHigh trained deviations above the trained
	// p_max mean (a per-link generalization of SAM's primary z-score — it
	// also catches secondary tunnels that are not the maximum). ByNeighbor:
	// neighbor-table comparison found an uncorroborated (fabricated) link or a
	// corroborated link whose honest detour is detourHops or longer (a
	// tunnel). ByDelay: some route's per-hop timing fell outside the
	// (fastHopRatio, slowHopRatio) band around nominalHopDelay.
	BySAM, ByPMF, ByZ, ByNeighbor, ByDelay bool
	// SAM echoes the frequency detector's verdict; its TV is the distance
	// the PMF test reads.
	SAM Verdict
	// SuspectLinks are the links condemned by neighbor-table evidence, in
	// decreasing frequency order.
	SuspectLinks []topology.Link
	// SlowRoutes and FastRoutes count the routes outside the timing band.
	SlowRoutes, FastRoutes int
}

// HybridDetector fuses SAM's frequency statistics with three independent
// evidence channels — a per-link z-score, a neighbor-table comparison
// (mutual corroboration plus detour-length audit), and a delay-consistency
// check over route-discovery timings. Complex adversaries can flatten the
// frequency signal (relay chains split it, adaptive throttling starves it,
// forgery diversifies it) but each evasion leaks through another channel:
// chains and adaptive tunnels still claim links with implausibly long
// honest detours and cost tunnel latency; forged links are never
// corroborated and their replies arrive faster than radio allows.
//
// Evaluate is safe for concurrent use.
type HybridDetector struct {
	det       *Detector
	neighbors *NeighborTables
}

// NewHybridDetector builds the hybrid over a trained profile and the claimed
// neighbor tables. neighbors may be nil, disabling the neighbor check. It
// panics on a nil profile, as NewDetector does.
func NewHybridDetector(profile *Profile, neighbors *NeighborTables, cfg HybridConfig) *HybridDetector {
	return &HybridDetector{
		det:       NewDetector(profile, cfg.Detector),
		neighbors: neighbors,
	}
}

// Evaluate scores one route set. s must be Analyze(routes); times, when
// non-nil, holds each route's discovery latency parallel to routes —
// destination arrival times for collected routes, or reply time minus
// Discovery.FloodEnd for reply sets (forged replies then show negative
// elapsed time and fall out of the fast band). A nil times skips the delay
// check.
func (h *HybridDetector) Evaluate(s Stats, routes []routing.Route, times []sim.Time) HybridVerdict {
	v := HybridVerdict{SAM: h.det.Evaluate(s)}
	v.BySAM = v.SAM.Decision == Attacked
	if s.N == 0 {
		return v
	}
	v.ByPMF = v.SAM.TV >= pmfTVThreshold || h.det.profile.PMF.TailMass(s.PMax) < pmfTailProb

	// Per-link z-score: every link's frequency against the trained p_max
	// profile, not just the maximum — the frequency spike of a secondary
	// tunnel is evidence even when another link tops it.
	pmaxMean, _ := h.det.AdaptiveMeans()
	for _, lc := range s.ByLink {
		if zScore(lc.P, pmaxMean, h.det.profile.PMax.Std) >= h.det.cfg.ZHigh {
			v.ByZ = true
		}
	}

	// Neighbor-table comparison over every link the route set claims; one
	// pooled scratch serves every link's detour search.
	if h.neighbors != nil {
		sc := detourPool.Get().(*detourScratch)
		defer detourPool.Put(sc)
		for _, lc := range s.ByLink {
			l := lc.Link
			if !h.neighbors.Corroborated(l.A, l.B) {
				v.ByNeighbor = true
				v.SuspectLinks = append(v.SuspectLinks, l)
				continue
			}
			if d := h.neighbors.detourHops(l, sc); d < 0 || d >= detourHops {
				v.ByNeighbor = true
				v.SuspectLinks = append(v.SuspectLinks, l)
			}
		}
	}

	// Delay consistency: honest per-hop latency is pinned to the MAC's hop
	// delay plus bounded jitter; tunnel crossings add latency no radio hop
	// can, and forged replies arrive before any honest reply can.
	if times != nil {
		slow := float64(nominalHopDelay) * slowHopRatio
		fast := float64(nominalHopDelay) * fastHopRatio
		for i, r := range routes {
			if i >= len(times) || r.Hops() == 0 {
				continue
			}
			perHop := float64(times[i]) / float64(r.Hops())
			switch {
			case perHop >= slow:
				v.SlowRoutes++
			case perHop <= fast:
				v.FastRoutes++
			}
		}
		v.ByDelay = v.SlowRoutes+v.FastRoutes > 0
	}

	v.Attacked = v.BySAM || v.ByPMF || v.ByZ || v.ByNeighbor || v.ByDelay
	return v
}
