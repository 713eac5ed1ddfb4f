package cluster

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"samnet/internal/obs"
	"samnet/internal/service"
)

// GatewayConfig tunes a scatter-gather gateway. Replicas is required; the
// zero value of everything else selects sensible defaults.
type GatewayConfig struct {
	// Replicas is the fleet membership: samserve base URLs.
	Replicas []string
	// HTTP is the outbound client (nil builds one with a pooled transport
	// sized for the fleet). It must carry no global timeout.
	HTTP *http.Client
	// MaxAttempts bounds the 429 retry discipline on scatter sub-requests,
	// fan-out reads and sync ships (default 4 attempts within a 10s sleep
	// budget).
	MaxAttempts int
	// HealthInterval is the background health sweep period (default 2s,
	// negative disables the background checker).
	HealthInterval time.Duration
	// SyncInterval enables periodic anti-entropy profile sync (0 disables).
	SyncInterval time.Duration
	// MaxBodyBytes caps buffered request bodies and stream lines (default
	// 8 MiB, matching the replicas).
	MaxBodyBytes int64
	// Registry receives the gateway's samgate_* instruments (nil creates a
	// private registry).
	Registry *obs.Registry
	// Tracer captures gateway spans behind GET /debug/traces and propagates
	// trace context to replicas on every relayed, scattered, and failed-over
	// request, so one trace joins the gateway hop with the replica spans it
	// fanned out to. Nil leaves tracing off with zero extra cost.
	Tracer *obs.Tracer
	// Logger receives gateway warnings (nil selects slog.Default()).
	Logger *slog.Logger
}

func (c GatewayConfig) withDefaults() GatewayConfig {
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.HTTP == nil {
		per := 2 * len(c.Replicas)
		if per < 32 {
			per = 32
		}
		c.HTTP = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        per * len(c.Replicas),
			MaxIdleConnsPerHost: per,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return c
}

// policy is how the gateway places one route's requests on the fleet.
type policy int

const (
	policyAny       policy = iota // round-robin over healthy replicas
	policyOwner                   // the profile's owner, with pull-on-miss
	policyRead                    // the owner first, then any holder
	policyBroadcast               // every member
	policyGather                  // every healthy replica, answers merged
	policyLines                   // NDJSON stream scatter, per line
	policyGrid                    // train/batch scatter, per scenario
)

// route is one row of the gateway's routing table: a replica endpoint (the
// replica's own method and pattern), the endpoint label of its samgate_*
// series, and its placement policy.
type route struct {
	pattern  string
	endpoint string
	policy   policy
	// merge combines the replicas' 200 bodies on a gather route.
	merge func(*Gateway, []replicaScrape) any
}

// routes is the gateway's single routing description (DESIGN §13). The
// profile key of an owner route is the path's {name}, else the body's
// "profile" field as the replica parses it.
var routes = []route{
	{"POST /v1/analyze", "analyze", policyAny, nil},
	{"POST /v1/detect", "detect", policyOwner, nil},
	{"POST /v1/detect/batch", "detect_batch", policyOwner, nil},
	{"POST /v1/detect/stream", "detect_stream", policyLines, nil},
	{"POST /v1/train/batch", "train_batch", policyGrid, nil},
	{"POST /v1/profiles/{name}/train", "train", policyOwner, nil},
	{"GET /v1/profiles", "profiles", policyGather, (*Gateway).mergeProfiles},
	{"GET /v1/profiles/{name}", "profile_get", policyRead, nil},
	{"PUT /v1/profiles/{name}", "profile_put", policyOwner, nil},
	{"DELETE /v1/profiles/{name}", "profile_delete", policyBroadcast, nil},
	{"POST /v1/verify", "verify", policyAny, nil},
	{"GET /v1/isolation", "isolation", policyGather, (*Gateway).mergeIsolation},
	{"DELETE /v1/isolation/{a}/{b}", "isolation_lift", policyBroadcast, nil},
}

// Gateway fronts a samserve fleet: every replica endpoint is relayed by its
// route's placement policy, and the replica's answer reaches the client
// verbatim. The gateway writes a body of its own only for its own failures
// (no replica reachable, gateway health, an empty fleet scrape); everything
// else — error bodies included — is a replica's bytes, or a merge encoded
// exactly as one replica would encode it.
type Gateway struct {
	cfg     GatewayConfig
	fleet   *Fleet
	client  *Client
	metrics *gwMetrics
	mux     *http.ServeMux
	logger  *slog.Logger
	rr      atomic.Uint64 // round-robin cursor for policyAny

	// replicaLat/replicaReqs attribute outbound latency per replica,
	// resolved once at construction (addresses are fixed membership).
	replicaLat  map[string]*obs.Histogram
	replicaReqs map[string]*obs.Counter

	syncStop, syncDone chan struct{}
	closeOnce          sync.Once
}

// NewGateway builds a gateway over the given fleet configuration, runs one
// synchronous health sweep so routing starts informed, and launches the
// background health (and optionally anti-entropy) loops.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	cfg = cfg.withDefaults()
	client := &Client{HTTP: cfg.HTTP, MaxAttempts: cfg.MaxAttempts}
	fleet, err := NewFleet(cfg.Replicas, client)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:     cfg,
		fleet:   fleet,
		client:  client,
		metrics: newGWMetrics(cfg.Registry),
		logger:  cfg.Logger,
	}
	// Per-replica latency attribution: every delivered request attempt is
	// prefix-matched back to its replica and lands in that replica's
	// histogram, so a slow or degraded replica shows up as its own series
	// rather than smearing across the endpoint aggregate.
	g.replicaLat = make(map[string]*obs.Histogram, len(fleet.Replicas()))
	g.replicaReqs = make(map[string]*obs.Counter, len(fleet.Replicas()))
	for _, addr := range fleet.Replicas() {
		g.replicaLat[addr] = cfg.Registry.Histogram("samgate_replica_request_duration_seconds",
			"Latency of gateway-to-replica requests, by replica.",
			obs.DefaultLatencyBuckets, obs.Label{Key: "replica", Value: addr})
		g.replicaReqs[addr] = cfg.Registry.Counter("samgate_replica_requests_total",
			"Gateway-to-replica requests delivered, by replica.",
			obs.Label{Key: "replica", Value: addr})
	}
	client.observe = g.observeReplica
	cfg.Registry.GaugeFunc("samgate_replicas",
		"Replicas in the fleet membership.",
		func() float64 { return float64(len(fleet.Replicas())) })
	cfg.Registry.GaugeFunc("samgate_replicas_healthy",
		"Replicas currently passing health checks.",
		func() float64 { return float64(fleet.HealthyCount()) })

	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.pattern, g.instrument(rt.endpoint, g.handler(rt)))
	}
	mux.HandleFunc("GET /v1/cluster", g.instrument("cluster", g.handleCluster))
	mux.Handle("GET /metrics", cfg.Registry.Handler())
	mux.HandleFunc("GET /metrics/fleet", g.instrument("metrics_fleet", g.handleMetricsFleet))
	mux.Handle("GET /debug/traces", cfg.Tracer.Handler())
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux = mux

	boot, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	fleet.CheckNow(boot)
	cancel()
	fleet.Start(cfg.HealthInterval)
	if cfg.SyncInterval > 0 {
		g.syncStop, g.syncDone = make(chan struct{}), make(chan struct{})
		go g.syncLoop(cfg.SyncInterval)
	}
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Fleet returns the gateway's fleet view (health, placement).
func (g *Gateway) Fleet() *Fleet { return g.fleet }

// Registry returns the registry holding the gateway's instruments.
func (g *Gateway) Registry() *obs.Registry { return g.cfg.Registry }

// observeReplica is the Client.observe hook: attribute one delivered request
// to its replica by address prefix.
func (g *Gateway) observeReplica(url string, d time.Duration) {
	for addr, h := range g.replicaLat {
		if strings.HasPrefix(url, addr) {
			h.ObserveDuration(d)
			g.replicaReqs[addr].Inc()
			return
		}
	}
}

// Close stops the health checker and the anti-entropy loop.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		if g.syncStop != nil {
			close(g.syncStop)
			<-g.syncDone
		}
		g.fleet.Close()
	})
}

func (g *Gateway) syncLoop(interval time.Duration) {
	defer close(g.syncDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-g.syncStop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), interval)
			g.syncOnce(ctx)
			cancel()
		}
	}
}

// --- plumbing ---------------------------------------------------------------

var gwCTJSON = []string{"application/json"}

func (g *Gateway) respFailed(err error) {
	g.metrics.respErrs.Inc()
	g.logger.Warn("response relay failed", "err", err)
}

func (g *Gateway) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = gwCTJSON
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		g.respFailed(err)
	}
}

// writeError answers with the replica's ErrorResponse encoding.
func (g *Gateway) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header()["Content-Type"] = gwCTJSON
	w.WriteHeader(status)
	if _, err := w.Write(service.AppendErrorResponse(nil, fmt.Sprintf(format, args...))); err != nil {
		g.respFailed(err)
	}
}

// readBody buffers the request body with the replica's own reader, so an
// over-limit or broken body is refused with the status and bytes a replica
// would answer.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := service.ReadBody(nil, r, g.cfg.MaxBodyBytes)
	if err != nil {
		g.writeError(w, service.DecodeStatus(err), "%v", err)
		return nil, false
	}
	return body, true
}

// copyResponse relays a replica response verbatim: status, content type, and
// body bytes. What the replica answered is exactly what the client reads.
func (g *Gateway) copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if resp.ContentLength >= 0 {
		w.Header()["Content-Length"] = []string{fmt.Sprint(resp.ContentLength)}
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		g.respFailed(err)
	}
}

// discard drains and closes a response the gateway will not relay.
func discard(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// rrOrder is the rank of a request with no profile affinity: the healthy
// replicas rotated by a round-robin cursor, then the unhealthy ones (the
// whole membership rotates when nothing is healthy).
func (g *Gateway) rrOrder() []string {
	rank := g.fleet.RankHealthy("", nil)
	n := max(g.fleet.HealthyCount(), 1)
	k := int(g.rr.Add(1) % uint64(n))
	return append(append(rank[k:n:n], rank[:k]...), rank[n:]...)
}

// --- placement policies -----------------------------------------------------

// handler builds one route's handler from its policy.
func (g *Gateway) handler(rt route) http.HandlerFunc {
	switch rt.policy {
	case policyGather:
		return func(w http.ResponseWriter, r *http.Request) { g.gather(w, r, rt.merge) }
	case policyLines:
		return g.handleDetectStream
	case policyGrid:
		return g.handleTrainBatch
	}
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := g.readBody(w, r)
		if !ok {
			return
		}
		key := r.PathValue("name")
		if key == "" && rt.policy == policyOwner {
			key = service.RoutingKey(body)
		}
		rank := g.fleet.Replicas()
		switch {
		case rt.policy == policyBroadcast:
		case key == "":
			// No key (or none needed): any replica answers the same bytes.
			rank = g.rrOrder()
		default:
			rank = g.fleet.RankHealthy(key, nil)
		}
		g.walk(w, r, rt.policy, rank, body, key)
	}
}

// walk is the one relay loop behind the any, owner, read and broadcast
// policies. It sends the request to the replicas in rank order and relays
// the first 200 answer, else the first answer:
//   - any and owner stop at the first answer. A dial failure (the request
//     never left) marks the replica down and moves on; any other transport
//     failure ends the walk, since the request may have executed. An owner
//     route whose replica answers 404 for key first pulls the profile's
//     snapshot record from a holder and retries once; with no holder, the
//     404 is the answer.
//   - read walks past failures and non-200 answers to any replica still
//     holding the profile: a stale copy beats a 404 in a failover window.
//   - broadcast sends to every member, healthy or not: a profile or
//     isolation pair may live on any replica (failovers and membership
//     changes leave copies behind), and a surviving copy would let
//     pull-on-miss resurrect a deleted profile.
func (g *Gateway) walk(w http.ResponseWriter, r *http.Request, pol policy, rank []string, body []byte, key string) {
	ctx := r.Context()
	uri, ct := r.URL.RequestURI(), r.Header.Get("Content-Type")
	oneShot := pol == policyAny || pol == policyOwner
	var best *http.Response // the first 200, else the first answer
	var lastErr error
	for i, addr := range rank {
		resp, err := g.client.do(ctx, r.Method, addr+uri, ct, body, false)
		if err == nil && pol == policyOwner && key != "" && resp.StatusCode == http.StatusNotFound &&
			g.pullOnMiss(ctx, key, rank[i:]) {
			discard(resp)
			resp, err = g.client.do(ctx, r.Method, addr+uri, ct, body, false)
		}
		if err != nil {
			lastErr = err
			if NotDelivered(err) {
				g.fleet.MarkDown(addr, err)
			} else if oneShot {
				break
			}
			if pol != policyBroadcast {
				g.metrics.failovers.Inc()
			}
			continue
		}
		if best == nil || (best.StatusCode != http.StatusOK && resp.StatusCode == http.StatusOK) {
			if best != nil {
				discard(best)
			}
			best = resp
		} else {
			discard(resp)
		}
		if oneShot || (pol == policyRead && best.StatusCode == http.StatusOK) {
			break
		}
	}
	if best == nil {
		g.writeError(w, http.StatusBadGateway, "no replica reachable: %v", lastErr)
		return
	}
	g.copyResponse(w, best)
}

// replicaScrape is one replica's answer to a fan-out GET.
type replicaScrape struct {
	addr string
	body []byte
	err  error
}

// fanOut GETs path from every healthy replica concurrently, returning the
// outcomes in membership order; a non-200 answer is an error. It backs the
// gather routes, the anti-entropy pass and the federated metrics scrape.
func (g *Gateway) fanOut(ctx context.Context, path string) []replicaScrape {
	var out []replicaScrape
	for _, addr := range g.fleet.Replicas() {
		if g.fleet.Healthy(addr) {
			out = append(out, replicaScrape{addr: addr})
		}
	}
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(sc *replicaScrape) {
			defer wg.Done()
			resp, err := g.client.do(ctx, http.MethodGet, sc.addr+path, "", nil, true)
			if err != nil {
				sc.err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				sc.err = statusError(resp)
				return
			}
			sc.body, sc.err = io.ReadAll(resp.Body)
		}(&out[i])
	}
	wg.Wait()
	return out
}

// gather fans a listing out to every healthy replica and answers the merge
// of the 200 bodies, encoded exactly as a replica encodes its own listing.
func (g *Gateway) gather(w http.ResponseWriter, r *http.Request, merge func(*Gateway, []replicaScrape) any) {
	var reached []replicaScrape
	lastErr := errors.New("no healthy replicas")
	for _, sc := range g.fanOut(r.Context(), r.URL.Path) {
		if sc.err != nil {
			lastErr = sc.err
			continue
		}
		reached = append(reached, sc)
	}
	if len(reached) == 0 {
		g.writeError(w, http.StatusBadGateway, "no replica reachable: %v", lastErr)
		return
	}
	g.writeJSON(w, http.StatusOK, merge(g, reached))
}

// mergeProfiles unions the profile listings: one entry per name (the
// effective owner's entry wins when several replicas hold copies), sorted by
// name like a single replica's listing.
func (g *Gateway) mergeProfiles(replies []replicaScrape) any {
	byName := make(map[string]service.ProfileInfo)
	fromOwner := make(map[string]bool)
	for _, rep := range replies {
		var infos []service.ProfileInfo
		if json.Unmarshal(rep.body, &infos) != nil {
			continue
		}
		for _, info := range infos {
			owner := g.fleet.Owner(info.Name) == rep.addr
			if _, seen := byName[info.Name]; !seen || (owner && !fromOwner[info.Name]) {
				byName[info.Name], fromOwner[info.Name] = info, owner
			}
		}
	}
	infos := make([]service.ProfileInfo, 0, len(byName))
	for _, info := range byName {
		infos = append(infos, info)
	}
	slices.SortFunc(infos, func(a, b service.ProfileInfo) int { return cmp.Compare(a.Name, b.Name) })
	return infos
}

// mergeIsolation unions the isolation lists: verification routes
// round-robin, so any replica may hold a condemned pair. Each pair is
// reported once with its strongest evidence, sorted by pair.
func (g *Gateway) mergeIsolation(replies []replicaScrape) any {
	type key struct{ a, b int }
	merged := make(map[key]service.IsolatedPairJSON)
	for _, rep := range replies {
		var ir service.IsolationResponse
		if json.Unmarshal(rep.body, &ir) != nil {
			continue
		}
		for _, p := range ir.Pairs {
			k := key{p.Pair.A, p.Pair.B}
			if have, ok := merged[k]; !ok || p.Likelihood > have.Likelihood ||
				(p.Likelihood == have.Likelihood && p.Probes > have.Probes) {
				merged[k] = p
			}
		}
	}
	pairs := make([]service.IsolatedPairJSON, 0, len(merged))
	for _, p := range merged {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(x, y service.IsolatedPairJSON) int {
		return cmp.Or(cmp.Compare(x.Pair.A, y.Pair.A), cmp.Compare(x.Pair.B, y.Pair.B))
	})
	return service.IsolationResponse{Pairs: pairs}
}

// --- scatter-gather batch training ------------------------------------------

// handleTrainBatch splits a /v1/train/batch scenario grid across the
// replicas owning each scenario's profile and merges the results back in
// grid order. Each scenario's training streams derive from (seed, scenario
// label, run index) alone — a pure function of grid coordinates — so where a
// scenario runs cannot change what it trains, and the merged response is
// byte-identical to a single replica sweeping the whole grid.
func (g *Gateway) handleTrainBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var req service.TrainBatchRequest
	var names []string
	err := json.Unmarshal(body, &req)
	if err == nil {
		names, err = service.ScenarioProfiles(req.Scenarios)
	}
	if err != nil {
		// Invalid grids get the canonical replica error.
		g.walk(w, r, policyAny, g.rrOrder(), body, "")
		return
	}

	// Group scenario indices by owning replica, preserving grid order.
	owners := make(map[string][]int)
	var order []string
	for i, name := range names {
		addr := g.fleet.Owner(name)
		if _, seen := owners[addr]; !seen {
			order = append(order, addr)
		}
		owners[addr] = append(owners[addr], i)
	}
	if len(order) == 1 {
		// One owner: a plain relay, streaming progress and all.
		g.walk(w, r, policyAny, order, body, "")
		return
	}

	// A sweep outlives the server's write timeout; lift it like the replica
	// handler does.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})

	type shard struct {
		addr    string
		indices []int
		resp    *http.Response // body buffered, so a refusal relays verbatim
		out     service.TrainBatchResponse
		err     error
	}
	shards := make([]*shard, 0, len(order))
	var wg sync.WaitGroup
	for _, addr := range order {
		sh := &shard{addr: addr, indices: owners[addr]}
		shards = append(shards, sh)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := service.TrainBatchRequest{
				Runs:     req.Runs,
				Seed:     req.Seed,
				Parallel: req.Parallel,
				// Stream is dropped: progress interleaving across replicas
				// has no deterministic order; the merged result is one JSON.
			}
			for _, i := range sh.indices {
				sub.Scenarios = append(sub.Scenarios, req.Scenarios[i])
			}
			blob, err := json.Marshal(sub)
			if err != nil {
				sh.err = err
				return
			}
			if sh.resp, sh.err = g.client.do(r.Context(), http.MethodPost, sh.addr+"/v1/train/batch",
				"application/json", blob, true); sh.err != nil {
				return
			}
			blob, sh.err = io.ReadAll(sh.resp.Body)
			sh.resp.Body.Close()
			sh.resp.Body = io.NopCloser(bytes.NewReader(blob))
			if sh.err == nil && sh.resp.StatusCode == http.StatusOK {
				sh.err = json.Unmarshal(blob, &sh.out)
			}
		}()
	}
	wg.Wait()

	merged := service.TrainBatchResponse{Scenarios: make([]service.TrainBatchResult, len(req.Scenarios))}
	for _, sh := range shards {
		switch {
		case sh.err != nil:
			g.writeError(w, http.StatusBadGateway, "no replica reachable: replica %s: %v", sh.addr, sh.err)
			return
		case sh.resp.StatusCode != http.StatusOK:
			// A replica's refusal (busy, invalid scenario) is the answer.
			g.copyResponse(w, sh.resp)
			return
		case len(sh.out.Scenarios) != len(sh.indices):
			g.writeError(w, http.StatusBadGateway, "replica %s answered %d scenarios, want %d",
				sh.addr, len(sh.out.Scenarios), len(sh.indices))
			return
		}
		for j, i := range sh.indices {
			merged.Scenarios[i] = sh.out.Scenarios[j]
		}
		// Effective runs and seed are grid-global constants; every shard
		// reports the same values.
		merged.Runs, merged.Seed = sh.out.Runs, sh.out.Seed
	}
	merged.Cells = len(req.Scenarios) * merged.Runs
	g.metrics.scatters.Inc()
	// Encoded exactly like a replica's writeJSON, so the merged body is
	// byte-identical to a single-replica sweep of the same grid.
	g.writeJSON(w, http.StatusOK, merged)
}

// --- gateway endpoints ------------------------------------------------------

// handleHealthz reports gateway health: 200 while at least one replica is
// routable, 503 otherwise.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := g.fleet.HealthyCount()
	status := http.StatusOK
	state := "ok"
	if healthy == 0 {
		status, state = http.StatusServiceUnavailable, "no healthy replicas"
	}
	g.writeJSON(w, status, map[string]any{
		"status":   state,
		"replicas": len(g.fleet.Replicas()),
		"healthy":  healthy,
	})
}

// handleCluster serves the fleet view: membership, health, and — with
// ?profile=name — the placement decision for one profile.
func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		Replicas []ReplicaStatus `json:"replicas"`
		Profile  string          `json:"profile,omitempty"`
		Owner    string          `json:"owner,omitempty"`
		Rank     []string        `json:"rank,omitempty"`
	}{Replicas: g.fleet.Statuses()}
	if name := r.URL.Query().Get("profile"); name != "" {
		resp.Profile = name
		resp.Rank = g.fleet.RankHealthy(name, nil)
		resp.Owner = resp.Rank[0]
	}
	g.writeJSON(w, http.StatusOK, resp)
}

// --- metrics ----------------------------------------------------------------

type gwMetrics struct {
	pulls           *obs.Counter
	pullErrs        *obs.Counter
	syncCopies      *obs.Counter
	failovers       *obs.Counter
	scatters        *obs.Counter
	respErrs        *obs.Counter
	fleetScrapes    *obs.Counter
	fleetScrapeErrs *obs.Counter
}

func newGWMetrics(reg *obs.Registry) *gwMetrics {
	return &gwMetrics{
		pulls: reg.Counter("samgate_sync_pulls_total",
			"Profiles repaired at their owner by pull-on-miss."),
		pullErrs: reg.Counter("samgate_sync_errors_total",
			"Failed snapshot-record ships (pull-on-miss or anti-entropy)."),
		syncCopies: reg.Counter("samgate_antientropy_copies_total",
			"Profiles shipped to their owners by anti-entropy passes."),
		failovers: reg.Counter("samgate_failovers_total",
			"Requests rerouted past an unreachable or failing replica."),
		scatters: reg.Counter("samgate_train_scatters_total",
			"Batch-training grids split across multiple replicas."),
		respErrs: reg.Counter("samgate_response_errors_total",
			"Response bodies that failed to encode or relay."),
		fleetScrapes: reg.Counter("samgate_fleet_scrapes_total",
			"Federated /metrics/fleet scrapes served."),
		fleetScrapeErrs: reg.Counter("samgate_fleet_scrape_errors_total",
			"Replica scrape failures during /metrics/fleet federation."),
	}
}

// instrument wraps a handler with per-endpoint request counting and latency,
// plus — when tracing is on — a gateway span (obs.Tracer.Serve) whose
// context rides the request into Client.do, so every relayed, scattered, or
// failed-over sub-request carries the gateway span as its traceparent and
// the replica spans parent under it.
func (g *Gateway) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	reqs := g.cfg.Registry.Counter("samgate_requests_total",
		"Requests served, by endpoint.", obs.Label{Key: "endpoint", Value: name})
	lat := g.cfg.Registry.Histogram("samgate_request_duration_seconds",
		"Request latency.", obs.DefaultLatencyBuckets, obs.Label{Key: "endpoint", Value: name})
	return func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		g.cfg.Tracer.Serve(name, w, r, h)
		reqs.Inc()
		lat.ObserveDuration(time.Since(begin))
	}
}
