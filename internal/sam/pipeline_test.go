package sam

import (
	"testing"

	"samnet/internal/routing"
	"samnet/internal/topology"
)

// stubProber fails probes whose route crosses badLink.
type stubProber struct {
	badLink topology.Link
	calls   int
}

func (p *stubProber) Probe(routes []routing.Route) []routing.ProbeResult {
	p.calls++
	out := make([]routing.ProbeResult, len(routes))
	for i, r := range routes {
		out[i] = routing.ProbeResult{Route: r, Acked: !r.ContainsLink(p.badLink)}
	}
	return out
}

type captureResponder struct {
	reports []AttackReport
}

func (c *captureResponder) ReportAttack(r AttackReport) { c.reports = append(c.reports, r) }

func newPipeline(t *testing.T, prober Prober, resp Responder) *Pipeline {
	t.Helper()
	return NewPipeline(trainedDetector(t), prober, resp, PipelineConfig{})
}

func TestPipelineNormalSelectsRoutes(t *testing.T) {
	p := newPipeline(t, &stubProber{}, &captureResponder{})
	out := p.Process(normalRoutes(50))
	if out.Verdict.Decision != Normal {
		t.Fatalf("decision = %v", out.Verdict.Decision)
	}
	if out.Report != nil {
		t.Error("normal outcome should carry no report")
	}
	if len(out.SelectedRoutes) == 0 || len(out.SelectedRoutes) > 2 {
		t.Errorf("selected %d routes", len(out.SelectedRoutes))
	}
}

func TestPipelineAttackReportsAndAvoids(t *testing.T) {
	tunnel := topology.MkLink(100, 101)
	prober := &stubProber{badLink: tunnel}
	resp := &captureResponder{}
	p := newPipeline(t, prober, resp)

	routes := append(attackRoutes(), normalRoutes(0)...)
	out := p.Process(routes)
	if out.Report == nil || !out.Report.Confirmed {
		t.Fatalf("attack not reported: %+v", out.Verdict)
	}
	if out.Report.SuspectLink != tunnel {
		t.Errorf("suspect link = %v", out.Report.SuspectLink)
	}
	if len(resp.reports) != 1 {
		t.Errorf("responder received %d reports", len(resp.reports))
	}
	for _, r := range out.SelectedRoutes {
		if r.ContainsLink(tunnel) {
			t.Errorf("selected route %v crosses the accused link", r)
		}
	}
}

func TestPipelineSuspiciousConfirmedByProbe(t *testing.T) {
	// A mildly dominant link: suspicious but not outright attacked. The
	// failing probe should escalate it to a confirmed report.
	tunnel := topology.MkLink(100, 101)
	routes := []routing.Route{
		{0, 100, 101, 11, 19},
		{1, 100, 101, 12, 19},
		{2, 100, 101, 13, 19},
		{0, 1, 2, 3, 19},
		{0, 4, 5, 6, 19},
	}
	prober := &stubProber{badLink: tunnel}
	resp := &captureResponder{}
	p := newPipeline(t, prober, resp)
	out := p.Process(routes)
	if out.Verdict.Decision == Normal {
		t.Skip("detector judged this set normal; dominance too weak for this profile")
	}
	if out.Report == nil {
		t.Fatal("no report")
	}
	if !out.Report.Confirmed {
		t.Error("failing probes should confirm the attack")
	}
	if out.Report.ProbesSent == 0 || out.Report.ProbesFailed == 0 {
		t.Errorf("probe bookkeeping: %+v", out.Report)
	}
}

func TestPipelineSuspiciousCleanProbeKeepsRoutes(t *testing.T) {
	// Same mild anomaly, but the prober finds nothing wrong (e.g. a
	// legitimately popular link): pipeline should keep the routes and not
	// confirm.
	routes := []routing.Route{
		{0, 100, 101, 11, 19},
		{1, 100, 101, 12, 19},
		{2, 100, 101, 13, 19},
		{0, 1, 2, 3, 19},
		{0, 4, 5, 6, 19},
	}
	prober := &stubProber{} // no bad link: everything acks
	resp := &captureResponder{}
	p := newPipeline(t, prober, resp)
	out := p.Process(routes)
	switch out.Verdict.Decision {
	case Normal:
		t.Skip("detector judged this set normal")
	case Suspicious:
		if out.Report != nil && out.Report.Confirmed {
			t.Error("clean probes must not confirm")
		}
		if len(out.SelectedRoutes) == 0 {
			t.Error("clean-probe suspicious outcome should still select routes")
		}
		if len(resp.reports) != 0 {
			t.Error("unconfirmed suspicion must not reach the responder")
		}
	case Attacked:
		// Statistics alone crossed the attack threshold; acceptable.
	}
}

func TestPipelineWithoutProberStillAlertsOnStrongAttack(t *testing.T) {
	resp := &captureResponder{}
	p := newPipeline(t, nil, resp)
	out := p.Process(attackRoutes())
	if out.Verdict.Decision != Attacked {
		t.Skipf("strong attack judged %v under this profile", out.Verdict.Decision)
	}
	if out.Report == nil || !out.Report.Confirmed {
		t.Error("attack verdict should report even without a prober")
	}
}

func TestPipelineUpdatesProfile(t *testing.T) {
	p := newPipeline(t, nil, nil)
	// A normal-looking set whose pmax differs slightly from the trained
	// mean, so the low-pass update has somewhere to move.
	obs := append(normalRoutes(60), routing.Route{1200, 1201, 1202})
	pm0, _ := p.Detector.AdaptiveMeans()
	p.Process(obs)
	pm1, _ := p.Detector.AdaptiveMeans()
	if pm0 == pm1 {
		t.Error("normal processing should nudge the adaptive profile")
	}
}

func TestPipelineProbeBudget(t *testing.T) {
	tunnel := topology.MkLink(100, 101)
	var got int
	prober := ProberFunc(func(routes []routing.Route) []routing.ProbeResult {
		got = len(routes)
		out := make([]routing.ProbeResult, len(routes))
		for i, r := range routes {
			out[i] = routing.ProbeResult{Route: r, Acked: false}
		}
		return out
	})
	p := NewPipeline(trainedDetector(t), prober, nil, PipelineConfig{MaxProbes: 2})
	out := p.Process(attackRoutes())
	if out.Verdict.Decision == Normal {
		t.Skip("not anomalous under this profile")
	}
	if got > 2 {
		t.Errorf("probed %d routes, budget 2", got)
	}
	_ = tunnel
}

func TestCoordinatorQuorum(t *testing.T) {
	c := NewCoordinator(2)
	rep := AttackReport{
		SuspectLink: topology.MkLink(100, 101),
		Suspects:    [2]topology.NodeID{100, 101},
		Confirmed:   true,
	}
	c.Submit(5, rep)
	if len(c.Blacklist()) != 0 {
		t.Error("single accusation below quorum should not blacklist")
	}
	c.Submit(5, rep) // same reporter again: still one distinct accuser
	if len(c.Blacklist()) != 0 {
		t.Error("repeat accusations from one agent must not satisfy quorum")
	}
	c.Submit(9, rep)
	bl := c.Blacklist()
	if len(bl) != 2 || bl[0] != 100 || bl[1] != 101 {
		t.Errorf("blacklist = %v", bl)
	}
	if !c.BlacklistSet()[100] {
		t.Error("BlacklistSet missing node")
	}
}

func TestNewCoordinatorRejectsZeroQuorum(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("quorum 0 should panic")
		}
	}()
	NewCoordinator(0)
}

func TestCoordinatorIgnoresUnconfirmed(t *testing.T) {
	c := NewCoordinator(1)
	c.Submit(1, AttackReport{Suspects: [2]topology.NodeID{7, 8}, Confirmed: false})
	if len(c.Blacklist()) != 0 {
		t.Error("unconfirmed report must be ignored")
	}
}

func TestCoordinatorResponderFor(t *testing.T) {
	c := NewCoordinator(1)
	r := c.ResponderFor(3)
	r.ReportAttack(AttackReport{Suspects: [2]topology.NodeID{1, 2}, Confirmed: true})
	if len(c.Blacklist()) != 2 {
		t.Error("ResponderFor should submit to the coordinator")
	}
}

func TestCoordinatorConcurrentSubmissions(t *testing.T) {
	// Quorum 8: the pair is blacklisted only if every one of the 8 agents'
	// accusations landed.
	c := NewCoordinator(8)
	rep := AttackReport{
		SuspectLink: topology.MkLink(100, 101),
		Suspects:    [2]topology.NodeID{100, 101},
		Confirmed:   true,
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				c.Submit(topology.NodeID(g), rep)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if bl := c.Blacklist(); len(bl) != 2 {
		t.Errorf("blacklist = %v", bl)
	}
}
