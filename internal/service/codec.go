package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"samnet/internal/obs"
	"samnet/internal/routing"
	"samnet/internal/sam"
	"samnet/internal/topology"
)

// Wire types. Routes travel as arrays of node ids ([[0,1,2],[0,3,2]]), the
// same shape routing.Route has in memory, so clients need no bespoke
// encoding.

// LinkJSON is an undirected link on the wire.
type LinkJSON struct {
	A int `json:"a"`
	B int `json:"b"`
}

func linkJSON(l topology.Link) LinkJSON { return LinkJSON{A: int(l.A), B: int(l.B)} }

// LinkCountJSON is one distinct link with its occurrence statistics.
type LinkCountJSON struct {
	Link  LinkJSON `json:"link"`
	Count int      `json:"count"`
	P     float64  `json:"p"`
}

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	Routes [][]int `json:"routes"`
	// TopK bounds how many of the most frequent links the response lists
	// (default 5, 0 keeps the default, negative lists none).
	TopK int `json:"top_k,omitempty"`
}

// AnalyzeResponse reports SAM's statistics of one route set.
type AnalyzeResponse struct {
	Routes   int             `json:"routes"`
	N        int             `json:"n"`
	Distinct int             `json:"distinct_links"`
	PMax     float64         `json:"p_max"`
	Phi      float64         `json:"phi"`
	MaxLink  LinkJSON        `json:"max_link"`
	Suspect  LinkJSON        `json:"suspect_link"`
	Top      []LinkCountJSON `json:"top_links,omitempty"`
}

// DetectRequest is the body of POST /v1/detect: one route set scored
// against a named profile.
type DetectRequest struct {
	Profile string  `json:"profile"`
	Routes  [][]int `json:"routes"`
	// Update controls the adaptive low-pass profile update (default true,
	// the paper's behaviour).
	Update *bool `json:"update,omitempty"`
	// Explain requests the full decision record — frequency table,
	// statistics vs thresholds, localized link — in the response.
	Explain bool `json:"explain,omitempty"`
}

// VerdictJSON is one detector verdict on the wire.
type VerdictJSON struct {
	Decision    string   `json:"decision"`
	Lambda      float64  `json:"lambda"`
	ZPMax       float64  `json:"z_pmax"`
	ZPhi        float64  `json:"z_phi"`
	TV          float64  `json:"tv"`
	PMax        float64  `json:"p_max"`
	Phi         float64  `json:"phi"`
	Routes      int      `json:"routes"`
	N           int      `json:"n"`
	SuspectLink LinkJSON `json:"suspect_link"`
	Suspects    [2]int   `json:"suspects"`
}

func verdictJSON(v sam.Verdict) VerdictJSON {
	return VerdictJSON{
		Decision:    v.Decision.String(),
		Lambda:      v.Lambda,
		ZPMax:       v.ZPMax,
		ZPhi:        v.ZPhi,
		TV:          v.TV,
		PMax:        v.Stats.PMax,
		Phi:         v.Stats.Phi,
		Routes:      v.Stats.Routes,
		N:           v.Stats.N,
		SuspectLink: linkJSON(v.SuspectLink),
		Suspects:    [2]int{int(v.Suspects[0]), int(v.Suspects[1])},
	}
}

// DetectResponse is the body answering /v1/detect. Explain carries the full
// decision record when the request asked for it.
type DetectResponse struct {
	Profile string        `json:"profile"`
	Verdict VerdictJSON   `json:"verdict"`
	Explain *obs.Decision `json:"explain,omitempty"`
}

// BatchDetectRequest is the body of POST /v1/detect/batch: many route sets
// scored against one named profile on the worker pool.
type BatchDetectRequest struct {
	Profile string    `json:"profile"`
	Items   [][][]int `json:"items"`
	Update  *bool     `json:"update,omitempty"`
}

// BatchDetectResponse answers /v1/detect/batch, verdicts in item order.
// When every item scores, the status is 200 and Errors is absent. When some
// items fail, the status is 207 (Multi-Status) and Errors carries one entry
// per item — "" for items that scored (their verdict is live) and the error
// text for items that did not (their verdict slot is zero-valued filler).
// Completed verdicts are always returned: batch items that already updated
// the adaptive profile are never silently discarded because a sibling item
// failed.
type BatchDetectResponse struct {
	Profile  string        `json:"profile"`
	Verdicts []VerdictJSON `json:"verdicts"`
	Errors   []string      `json:"errors,omitempty"`
}

// TrainRequest is the body of POST /v1/profiles/{name}/train: one or more
// normal-condition route sets to fold into the profile's trainer.
type TrainRequest struct {
	RouteSets [][][]int `json:"route_sets"`
}

// TrainResponse reports the training state after the request.
type TrainResponse struct {
	Profile string `json:"profile"`
	Runs    int    `json:"runs"`
	Trained bool   `json:"trained"`
}

// TrainScenarioJSON is one grid cell axis of POST /v1/train/batch: a
// (topology, transmission tier, protocol) condition, trained into the named
// profile (default: a flattened form of the scenario's canonical label,
// e.g. "cluster-1tier-MR", so the name fits one URL path segment).
type TrainScenarioJSON struct {
	Profile  string `json:"profile,omitempty"`
	Topo     string `json:"topo"`
	Tier     int    `json:"tier,omitempty"`
	Protocol string `json:"protocol,omitempty"`
}

// TrainBatchRequest is the body of POST /v1/train/batch: a scenario grid
// swept server-side under the runner's determinism contract. Stream switches
// the response to a progress stream whose final line is the result JSON.
type TrainBatchRequest struct {
	Scenarios []TrainScenarioJSON `json:"scenarios"`
	Runs      int                 `json:"runs,omitempty"`
	Seed      *uint64             `json:"seed,omitempty"`
	Parallel  int                 `json:"parallel,omitempty"`
	Stream    bool                `json:"stream,omitempty"`
}

// TrainBatchResult reports one scenario's outcome.
type TrainBatchResult struct {
	Profile string `json:"profile"`
	Label   string `json:"label"`
	Runs    int    `json:"runs"`
	Trained bool   `json:"trained"`
	Error   string `json:"error,omitempty"`
}

// TrainBatchResponse answers /v1/train/batch, scenarios in request order.
// It carries the effective runs and seed so defaulted sweeps are
// reproducible from the response alone.
type TrainBatchResponse struct {
	Scenarios []TrainBatchResult `json:"scenarios"`
	Runs      int                `json:"runs"`
	Cells     int                `json:"cells"`
	Seed      uint64             `json:"seed"`
}

// VerifyRequest is the body of POST /v1/verify: replay the step-2 probe
// protocol against a suspect pair on a named scenario. The scenario grid
// axes are the same as /v1/train/batch; the attack knobs control what the
// simulated wormhole does to probe traffic.
type VerifyRequest struct {
	Scenario TrainScenarioJSON `json:"scenario"`
	// Routes optionally supplies the route set to probe over (validated
	// against the armed topology). Empty runs a server-side discovery.
	Routes [][]int `json:"routes,omitempty"`
	// Suspect is the accused pair; nil localizes via SAM over the routes.
	Suspect *LinkJSON `json:"suspect,omitempty"`
	// Wormholes is how many tunnels to install (nil → 1; 0 probes a clean
	// network). It only parameterizes the classic attack variant.
	Wormholes *int `json:"wormholes,omitempty"`
	// Attack selects the adversary variant to arm, from the attack package's
	// named vocabulary: "classic" (default), "latent", "chain", "adaptive"
	// or "forge" — the same scenario set the rocmatrix experiment sweeps.
	// "forge" requires the mr or dsr protocol (the forge hook plugs into
	// their discovery floods).
	Attack string `json:"attack,omitempty"`
	// Behavior is the attackers' payload behaviour: "blackhole" (default),
	// "greyhole", "forward", or "forge" (forward but answer probes with
	// fabricated proofs).
	Behavior string  `json:"behavior,omitempty"`
	Seed     *uint64 `json:"seed,omitempty"`
	// Timeout, Retries and MaxProbes map onto verify.Config with its
	// ExplicitZero convention: 0 selects the default, -1 a true zero.
	Timeout   float64 `json:"timeout,omitempty"`
	Retries   int     `json:"retries,omitempty"`
	MaxProbes int     `json:"max_probes,omitempty"`
	// Isolate condemns the pair into the service's isolation list when the
	// verdict clears the threshold.
	Isolate bool `json:"isolate,omitempty"`
}

// EvidenceJSON is one probe evidence record on the wire.
type EvidenceJSON struct {
	Kind    string  `json:"kind"`
	Route   []int   `json:"route,omitempty"`
	ProbeID uint64  `json:"probe_id,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
	At      float64 `json:"at"`
}

// VerifyResponse answers /v1/verify with the pair verdict.
type VerifyResponse struct {
	Label      string         `json:"label"`
	Suspect    LinkJSON       `json:"suspect"`
	Likelihood float64        `json:"likelihood"`
	Condemned  bool           `json:"condemned"`
	Probes     int            `json:"probes"`
	Evidence   []EvidenceJSON `json:"evidence,omitempty"`
	// Isolated reports whether the pair is on the isolation list after this
	// request; IsolationSize the list's total pair count.
	Isolated      bool   `json:"isolated"`
	IsolationSize int    `json:"isolation_size"`
	Seed          uint64 `json:"seed"`
}

// IsolatedPairJSON is one condemned pair in GET /v1/isolation.
type IsolatedPairJSON struct {
	Pair       LinkJSON `json:"pair"`
	Likelihood float64  `json:"likelihood"`
	Probes     int      `json:"probes"`
}

// IsolationResponse answers GET /v1/isolation.
type IsolationResponse struct {
	Pairs []IsolatedPairJSON `json:"pairs"`
}

// LiftResponse answers DELETE /v1/isolation/{a}/{b}.
type LiftResponse struct {
	Pair   LinkJSON `json:"pair"`
	Lifted bool     `json:"lifted"`
}

// ProfileInfo describes one stored profile in GET /v1/profiles.
type ProfileInfo struct {
	Name    string `json:"name"`
	Runs    int    `json:"runs"`
	Trained bool   `json:"trained"`
}

// ProfileResponse answers GET /v1/profiles/{name}: the portable profile
// JSON plus the current adaptive means.
type ProfileResponse struct {
	Name     string       `json:"name"`
	Runs     int          `json:"runs"`
	PMaxMean float64      `json:"adaptive_pmax_mean"`
	PhiMean  float64      `json:"adaptive_phi_mean"`
	Profile  *sam.Profile `json:"profile"`
}

// PutProfileResponse answers PUT /v1/profiles/{name}: the snapshot record
// (a ProfileResponse body, i.e. exactly what GET /v1/profiles/{name} exports)
// was installed under the path's name. This is the cluster sync primitive:
// shipping a record between replicas is a GET from the holder and a PUT to
// the owner.
type PutProfileResponse struct {
	Profile  string `json:"profile"`
	Runs     int    `json:"runs"`
	Restored bool   `json:"restored"`
}

// DeleteProfileResponse answers DELETE /v1/profiles/{name}.
type DeleteProfileResponse struct {
	Profile string `json:"profile"`
	Deleted bool   `json:"deleted"`
}

// HealthzResponse answers GET /healthz: liveness plus the readiness signals a
// cluster gateway (or ops) gates traffic on. SnapshotAgeS is seconds since
// the last successful durable snapshot, -1 when none has been written (no
// -snapshot configured, or none completed yet).
type HealthzResponse struct {
	Status       string  `json:"status"`
	Profiles     int     `json:"profiles"`
	QueueDepth   int     `json:"queue_depth"`
	SnapshotAgeS float64 `json:"snapshot_age_s"`
}

// DecisionsResponse answers GET /debug/decisions: the retained decision
// records, oldest first, plus the ring's state.
type DecisionsResponse struct {
	Enabled   bool           `json:"enabled"`
	Capacity  int            `json:"capacity"`
	Recorded  uint64         `json:"recorded"`
	Decisions []obs.Decision `json:"decisions"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Decoding limits. They bound worst-case memory per request; a request
// exceeding any of them is rejected with 400/413, never partially applied.
const (
	maxRoutesPerSet = 4096
	maxRouteHops    = 1024
	maxNodeID       = 1 << 30
	// maxBatchItems caps the route sets of one /v1/detect/batch request.
	maxBatchItems = 256
)

var errBodyTooLarge = errors.New("request body exceeds the size limit")

// decodeJSON strictly decodes one JSON value from a body read by ReadBody.
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	// Reject trailing garbage so "{}{}" cannot sneak half-parsed state in.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("invalid JSON body: trailing data after the request object")
	}
	return nil
}

// decodeRoutes validates and converts one wire route set.
func decodeRoutes(raw [][]int) ([]routing.Route, error) {
	if len(raw) > maxRoutesPerSet {
		return nil, fmt.Errorf("route set has %d routes, limit %d", len(raw), maxRoutesPerSet)
	}
	routes := make([]routing.Route, 0, len(raw))
	for i, r := range raw {
		if len(r) > maxRouteHops+1 {
			return nil, fmt.Errorf("route %d has %d nodes, limit %d", i, len(r), maxRouteHops+1)
		}
		route := make(routing.Route, len(r))
		for j, id := range r {
			if id < 0 || id > maxNodeID {
				return nil, fmt.Errorf("route %d node %d: id %d out of range [0,%d]", i, j, id, maxNodeID)
			}
			route[j] = topology.NodeID(id)
		}
		routes = append(routes, route)
	}
	return routes, nil
}
