package sam

import (
	"samnet/internal/routing"
	"samnet/internal/topology"
)

// Prober performs step 2 of the detection procedure: send test data packets
// along the given routes and report which returned an end-to-end ACK. The
// simulation-backed implementation lives in the experiment package; tests
// stub it.
type Prober interface {
	Probe(routes []routing.Route) []routing.ProbeResult
}

// ProberFunc adapts a function to the Prober interface.
type ProberFunc func(routes []routing.Route) []routing.ProbeResult

// Probe implements Prober.
func (f ProberFunc) Probe(routes []routing.Route) []routing.ProbeResult { return f(routes) }

// AttackReport is step 3's output: what the destination tells the security
// authority and the attackers' neighbors.
type AttackReport struct {
	// SuspectLink is the accused link (the tunnel) and Suspects its
	// endpoints — the malicious pair.
	SuspectLink topology.Link
	Suspects    [2]topology.NodeID
	// Lambda is the soft decision that triggered the report.
	Lambda float64
	// Confirmed is true when the probe step observed data loss on the
	// suspicious paths (or when the statistics alone crossed the attack
	// threshold).
	Confirmed bool
	// ProbesSent and ProbesFailed count step 2 activity (0/0 when the
	// verdict skipped probing).
	ProbesSent, ProbesFailed int
}

// Responder consumes attack reports — the response module of the IDS.
type Responder interface {
	ReportAttack(r AttackReport)
}

// ResponderFunc adapts a function to the Responder interface.
type ResponderFunc func(r AttackReport)

// ReportAttack implements Responder.
func (f ResponderFunc) ReportAttack(r AttackReport) { f(r) }

// Outcome is the result of running the three-step procedure on one route
// discovery.
type Outcome struct {
	Verdict Verdict
	// SelectedRoutes are the routes fed back to the source when the route
	// set is judged usable (step 1's "otherwise choose several paths").
	// Under a confirmed attack, routes containing the suspect link are
	// excluded first.
	SelectedRoutes []routing.Route
	// Report is non-nil when an attack was alerted (step 3).
	Report *AttackReport
}

// PipelineConfig tunes the three-step procedure.
type PipelineConfig struct {
	// MaxSelect is the number of maximally disjoint routes to feed back to
	// the source (default 2, as in the MR reply budget).
	MaxSelect int
	// MaxProbes bounds how many suspicious paths step 2 tests (default 3).
	MaxProbes int
}

// Pipeline wires the three-step wormhole detection procedure (paper Fig. 3):
//
//  1. statistical analysis of the route set; anomaly? if not, select routes
//     and reply;
//  2. probe the suspicious paths with test data packets and wait for ACKs;
//  3. if the attack is confirmed, report it (security authority, neighbors
//     of the attackers) so the attackers can be isolated.
type Pipeline struct {
	Detector  *Detector
	Prober    Prober
	Responder Responder
	cfg       PipelineConfig
}

// NewPipeline builds a pipeline. Prober and Responder may be nil: without a
// prober, suspicious verdicts escalate on statistics alone only when they
// cross the attack threshold; without a responder, reports are only
// returned, not delivered.
func NewPipeline(d *Detector, p Prober, r Responder, cfg PipelineConfig) *Pipeline {
	if cfg.MaxSelect == 0 {
		cfg.MaxSelect = 2
	}
	if cfg.MaxProbes == 0 {
		cfg.MaxProbes = 3
	}
	return &Pipeline{Detector: d, Prober: p, Responder: r, cfg: cfg}
}

// Process runs the procedure over one discovery's route set.
func (p *Pipeline) Process(routes []routing.Route) Outcome {
	s := Analyze(routes)
	v := p.Detector.Evaluate(s)
	out := Outcome{Verdict: v}

	switch v.Decision {
	case Normal:
		out.SelectedRoutes = routing.SelectDisjoint(routes, p.cfg.MaxSelect)

	case Suspicious:
		confirmed, sent, failed := p.probeSuspects(routes, v.SuspectLink)
		if confirmed {
			out.Report = p.report(v, true, sent, failed)
			out.SelectedRoutes = p.selectAvoiding(routes, v.SuspectLink)
		} else {
			// Probes came back clean: treat the route set as usable, per
			// Fig. 3's "under attack? N" branch.
			out.SelectedRoutes = routing.SelectDisjoint(routes, p.cfg.MaxSelect)
			out.Report = &AttackReport{
				SuspectLink: v.SuspectLink,
				Suspects:    v.Suspects,
				Lambda:      v.Lambda,
				Confirmed:   false,
				ProbesSent:  sent, ProbesFailed: failed,
			}
		}

	case Attacked:
		// Strong statistical evidence: alert outright, but still probe (if
		// we can) to enrich the report with payload-loss confirmation.
		sent, failed := 0, 0
		if p.Prober != nil {
			_, sent, failed = p.probeSuspects(routes, v.SuspectLink)
		}
		out.Report = p.report(v, true, sent, failed)
		out.SelectedRoutes = p.selectAvoiding(routes, v.SuspectLink)
	}

	p.Detector.Update(s, v.Lambda)
	return out
}

// probeSuspects sends test packets along up to MaxProbes routes containing
// the suspect link. Any missing ACK confirms the attack (the paper notes
// this also catches DoS relays that route correctly but drop data).
func (p *Pipeline) probeSuspects(routes []routing.Route, suspect topology.Link) (confirmed bool, sent, failed int) {
	if p.Prober == nil {
		return false, 0, 0
	}
	var targets []routing.Route
	for _, r := range routes {
		if r.ContainsLink(suspect) {
			targets = append(targets, r)
			if len(targets) == p.cfg.MaxProbes {
				break
			}
		}
	}
	if len(targets) == 0 {
		return false, 0, 0
	}
	results := p.Prober.Probe(targets)
	for _, res := range results {
		sent++
		if !res.Acked {
			failed++
		}
	}
	return failed > 0, sent, failed
}

// selectAvoiding picks feedback routes that avoid the accused link when any
// exist; otherwise it returns nothing (all paths compromised — the source
// must rediscover after isolation).
func (p *Pipeline) selectAvoiding(routes []routing.Route, suspect topology.Link) []routing.Route {
	var clean []routing.Route
	for _, r := range routes {
		if !r.ContainsLink(suspect) {
			clean = append(clean, r)
		}
	}
	return routing.SelectDisjoint(clean, p.cfg.MaxSelect)
}

func (p *Pipeline) report(v Verdict, confirmed bool, sent, failed int) *AttackReport {
	r := &AttackReport{
		SuspectLink:  v.SuspectLink,
		Suspects:     v.Suspects,
		Lambda:       v.Lambda,
		Confirmed:    confirmed,
		ProbesSent:   sent,
		ProbesFailed: failed,
	}
	if p.Responder != nil {
		p.Responder.ReportAttack(*r)
	}
	return r
}
