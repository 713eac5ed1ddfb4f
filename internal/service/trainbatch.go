package service

import (
	"fmt"
	"net/http"
	"time"

	"samnet/internal/cli"
	"samnet/internal/obs"
)

// Batch training: POST /v1/train/batch runs a server-side training sweep
// over a scenario grid — each scenario one (topology, transmission range,
// protocol) condition, exactly the axes the paper trains a profile per
// (§IV) — and installs one profile per scenario.
//
// The sweep is cli.Train over cli scenario cells: every run's randomness
// derives from (seed, scenario label, run index) — a pure function of the
// cell's grid coordinates — results merge in grid order, and each scenario's
// trainer folds serially over its runs. Repeating the same request therefore
// produces byte-identical profiles at any parallelism, and batch training is
// declarative: the entry's training state is *replaced*, not accumulated, so
// re-posting a grid converges instead of doubling run counts.

// Limits bounding one batch-training request.
const (
	maxTrainScenarios       = 64
	maxTrainRunsPerScenario = 4096
	maxTrainCells           = 8192
)

// resolveScenarios validates the wire scenarios, fills defaults (tier 1,
// protocol mr, profile named after the label) and returns each scenario with
// the name of the profile it trains.
func resolveScenarios(in []TrainScenarioJSON) ([]cli.Scenario, []string, error) {
	if len(in) == 0 {
		return nil, nil, fmt.Errorf("scenarios must not be empty")
	}
	if len(in) > maxTrainScenarios {
		return nil, nil, fmt.Errorf("request has %d scenarios, limit %d", len(in), maxTrainScenarios)
	}
	scenarios := make([]cli.Scenario, len(in))
	names := make([]string, len(in))
	seen := make(map[string]int, len(in))
	for i, spec := range in {
		tier, protocol := spec.Tier, spec.Protocol
		if tier == 0 {
			tier = 1
		}
		if protocol == "" {
			protocol = "mr"
		}
		sc, err := cli.Resolve(spec.Topo, tier, protocol)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario %d: %v", i, err)
		}
		name := spec.Profile
		if name == "" {
			name = sc.ProfileName()
		}
		if j, dup := seen[name]; dup {
			return nil, nil, fmt.Errorf("scenario %d: profile %q already produced by scenario %d", i, name, j)
		}
		seen[name] = i
		scenarios[i], names[i] = sc, name
	}
	return scenarios, names, nil
}

// ScenarioProfiles resolves the effective profile name of each scenario —
// the explicit Profile field or the defaulted flattened label — using exactly
// the validation /v1/train/batch applies. A cluster gateway uses it to place
// scenarios on owning replicas; sharing the resolver means gateway placement
// and replica training can never disagree about a grid's profile names.
func ScenarioProfiles(in []TrainScenarioJSON) ([]string, error) {
	_, names, err := resolveScenarios(in)
	return names, err
}

func (s *Service) handleTrainBatch(w http.ResponseWriter, r *http.Request) {
	var req TrainBatchRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	scenarios, names, err := resolveScenarios(req.Scenarios)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	runs := req.Runs
	if runs == 0 {
		runs = 30
	}
	if runs < 0 || runs > maxTrainRunsPerScenario {
		s.writeError(w, http.StatusBadRequest, "runs %d out of range [1,%d]", req.Runs, maxTrainRunsPerScenario)
		return
	}
	if cells := len(scenarios) * runs; cells > maxTrainCells {
		s.writeError(w, http.StatusBadRequest, "grid has %d cells (%d scenarios x %d runs), limit %d",
			cells, len(scenarios), runs, maxTrainCells)
		return
	}
	seed := uint64(2005)
	if req.Seed != nil {
		seed = *req.Seed
	}
	parallel := req.Parallel
	if parallel <= 0 || parallel > s.cfg.Workers {
		parallel = s.cfg.Workers
	}

	// Single flight: a sweep can be thousands of simulations, so a second
	// concurrent one is shed (429) instead of stacking unbounded CPU work.
	if !s.trainBusy.CompareAndSwap(false, true) {
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, "a batch training sweep is already running")
		return
	}
	defer s.trainBusy.Store(false)

	// A sweep can legitimately run longer than the server's slow-client
	// write timeout; lift the per-response deadline (the admission gate above
	// already bounds concurrent sweeps to one).
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Time{})

	// Streaming mode pushes the obs progress tracker's throttled status lines
	// into the chunked response as the grid drains, then the result JSON as
	// the final line. The tracker observes completions only, so streaming
	// cannot perturb the trained profiles (DESIGN §6).
	var pr *obs.Progress
	if req.Stream {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		pr = obs.NewProgress(flushWriter{w: w, rc: rc}, "train_batch", 0)
	}

	trainers := cli.Train(scenarios, seed, runs, parallel, pr)
	pr.Finish()

	results := make([]TrainBatchResult, len(scenarios))
	for o, sc := range scenarios {
		var installed int
		var trainErr error
		s.store.withResident(names[o], func(e *entry) {
			installed, trainErr = e.retrain(trainers[o])
		})
		res := TrainBatchResult{Profile: names[o], Label: sc.Label, Runs: installed}
		res.Trained = installed > 0 && trainErr == nil
		if trainErr != nil {
			res.Error = trainErr.Error()
		} else if res.Trained {
			s.metrics.trainings.Inc()
		}
		results[o] = res
	}
	s.enforceCap()

	resp := TrainBatchResponse{
		Scenarios: results,
		Runs:      runs,
		Cells:     len(scenarios) * runs,
		Seed:      seed,
	}
	if req.Stream {
		_ = writeJSONLine(w, resp)
		_ = rc.Flush()
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// flushWriter flushes the response after every progress line so streamed
// clients see the sweep advance instead of one buffered burst at the end.
type flushWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if err == nil {
		if ferr := fw.rc.Flush(); ferr != nil && ferr != http.ErrNotSupported {
			// A failed flush means the client is gone; surface it so the
			// progress tracker stops emitting.
			return n, ferr
		}
	}
	return n, err
}
