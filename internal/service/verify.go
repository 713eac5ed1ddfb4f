package service

import (
	"net/http"
	"strconv"

	"samnet/internal/obs"
	"samnet/internal/routing"
	"samnet/internal/sam"
	"samnet/internal/sim"
	"samnet/internal/topology"
	"samnet/internal/verify"
)

// Verification: POST /v1/verify replays the paper's step-2 probe protocol
// against a suspect pair on a named scenario — the same deterministic
// scenario grid /v1/train/batch sweeps — and answers with the evidence
// verdict. With isolate=true a condemned pair lands on the service's
// isolation list (step 3), visible via GET /v1/isolation and revocable via
// DELETE /v1/isolation/{a}/{b}.
//
// Determinism: the scenario is cell (seed, run 0) of the cli scenario grid
// batch training sweeps, so re-posting a request reproduces the verdict bit
// for bit.

// Validation caps bounding one verification request.
const (
	maxVerifyTimeout   = 1e6
	maxVerifyRetries   = 16
	maxVerifyMaxProbes = 64
)

func evidenceJSON(evidence []verify.Evidence) []EvidenceJSON {
	out := make([]EvidenceJSON, len(evidence))
	for i, e := range evidence {
		route := make([]int, len(e.Route))
		for j, id := range e.Route {
			route[j] = int(id)
		}
		out[i] = EvidenceJSON{
			Kind:    e.Kind.String(),
			Route:   route,
			ProbeID: e.ProbeID,
			Attempt: e.Attempt,
			At:      float64(e.At),
		}
	}
	return out
}

func (s *Service) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	scenarios, _, err := resolveScenarios([]TrainScenarioJSON{req.Scenario})
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	wormholes := 1
	if req.Wormholes != nil {
		wormholes = *req.Wormholes
	}
	sc, err := scenarios[0].Armed(wormholes, req.Behavior, req.Attack)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Timeout > maxVerifyTimeout || req.Retries > maxVerifyRetries || req.MaxProbes > maxVerifyMaxProbes {
		s.writeError(w, http.StatusBadRequest, "probe knobs out of range (timeout <= %g, retries <= %d, max_probes <= %d)",
			float64(maxVerifyTimeout), maxVerifyRetries, maxVerifyMaxProbes)
		return
	}
	if req.Wormholes != nil && req.Attack != "" && req.Attack != "classic" {
		s.writeError(w, http.StatusBadRequest, "wormholes only parameterizes the classic attack variant")
		return
	}
	seed := uint64(2005)
	if req.Seed != nil {
		seed = *req.Seed
	}

	// The scenario is run 0 of the grid batch training sweeps.
	cell := sc.Cell(seed, 0)
	net := cell.Net

	// Route set: client-supplied (validated against the armed topology — the
	// tunnels are topology links) or a server-side discovery.
	var routes []routing.Route
	if len(req.Routes) > 0 {
		routes, err = decodeRoutes(req.Routes)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		for i, rt := range routes {
			for _, id := range rt {
				if int(id) >= net.Topo.N() {
					s.writeError(w, http.StatusUnprocessableEntity,
						"route %d: node %d outside the %d-node scenario topology", i, id, net.Topo.N())
					return
				}
			}
			if !rt.Valid(net.Topo) {
				s.writeError(w, http.StatusUnprocessableEntity,
					"route %d (%s) is not connected in the scenario topology", i, rt)
				return
			}
		}
	} else {
		routes = cell.Discover().Routes
	}

	// The accused pair: explicit, or SAM's localization over the route set.
	var pair topology.Link
	if req.Suspect != nil {
		if req.Suspect.A < 0 || req.Suspect.B < 0 ||
			req.Suspect.A >= net.Topo.N() || req.Suspect.B >= net.Topo.N() || req.Suspect.A == req.Suspect.B {
			s.writeError(w, http.StatusUnprocessableEntity, "suspect %d-%d outside the %d-node scenario topology",
				req.Suspect.A, req.Suspect.B, net.Topo.N())
			return
		}
		pair = topology.MkLink(topology.NodeID(req.Suspect.A), topology.NodeID(req.Suspect.B))
	} else {
		st := sam.Analyze(routes)
		if st.N == 0 {
			s.writeError(w, http.StatusUnprocessableEntity, "no routes to localize a suspect from")
			return
		}
		pair = st.Suspect
	}

	cfg := verify.Config{Timeout: sim.Time(req.Timeout), Retries: req.Retries, MaxProbes: req.MaxProbes}
	if sc.Forge && cell.Attack != nil {
		cfg.Forgers = cell.Attack.MaliciousNodes()
	}

	refused := s.iso.Isolated(pair)
	v := verify.Probe(cell.Sim, pair, routes, cfg, s.iso)
	isolated := refused
	if req.Isolate && v.Condemned && !refused {
		s.iso.Condemn(v)
		isolated = true
	}

	s.metrics.observeVerify(v, refused)
	if s.decisions.Enabled() {
		rec := obs.Decision{
			Kind:       "verify",
			TraceID:    requestTraceHex(r),
			Routes:     len(routes),
			Suspect:    obs.DecisionLink{A: int(pair.A), B: int(pair.B)},
			Likelihood: v.Likelihood,
			Decision:   verifyOutcome(v, refused),
			Evidence:   make([]obs.DecisionEvidence, len(v.Evidence)),
		}
		for i, e := range v.Evidence {
			rec.Evidence[i] = obs.DecisionEvidence{
				Kind: e.Kind.String(), Route: e.Route.String(), Attempt: e.Attempt, At: float64(e.At),
			}
		}
		s.decisions.Record(rec)
	}

	s.writeJSON(w, http.StatusOK, VerifyResponse{
		Label:         sc.Label,
		Suspect:       linkJSON(pair),
		Likelihood:    v.Likelihood,
		Condemned:     v.Condemned,
		Probes:        v.Probes,
		Evidence:      evidenceJSON(v.Evidence),
		Isolated:      isolated,
		IsolationSize: s.iso.Len(),
		Seed:          seed,
	})
}

// verifyOutcome names a verdict: the samserve_verifications_total outcome
// label and the decision record's decision.
func verifyOutcome(v verify.Verdict, refused bool) string {
	switch {
	case refused:
		return "refused"
	case v.Condemned:
		return "condemned"
	case len(v.Evidence) == 0:
		return "unproven"
	}
	return "cleared"
}

func (s *Service) handleIsolation(w http.ResponseWriter, r *http.Request) {
	verdicts := s.iso.Pairs()
	pairs := make([]IsolatedPairJSON, len(verdicts))
	for i, v := range verdicts {
		pairs[i] = IsolatedPairJSON{Pair: linkJSON(v.Pair), Likelihood: v.Likelihood, Probes: v.Probes}
	}
	s.writeJSON(w, http.StatusOK, IsolationResponse{Pairs: pairs})
}

func (s *Service) handleIsolationLift(w http.ResponseWriter, r *http.Request) {
	a, errA := strconv.Atoi(r.PathValue("a"))
	b, errB := strconv.Atoi(r.PathValue("b"))
	if errA != nil || errB != nil || a < 0 || b < 0 || a == b {
		s.writeError(w, http.StatusBadRequest, "isolation pair must be two distinct non-negative node ids")
		return
	}
	pair := topology.MkLink(topology.NodeID(a), topology.NodeID(b))
	if !s.iso.Lift(pair) {
		s.writeError(w, http.StatusNotFound, "pair %s is not isolated", pair)
		return
	}
	s.writeJSON(w, http.StatusOK, LiftResponse{Pair: linkJSON(pair), Lifted: true})
}
