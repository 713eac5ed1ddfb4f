package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"samnet/internal/attack"
	"samnet/internal/routing/mr"
	"samnet/internal/service"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// SyncNow runs one synchronous anti-entropy pass, returning how many
// snapshot records were shipped to their owners.
func (g *Gateway) SyncNow(ctx context.Context) int { return g.syncOnce(ctx) }

// genSets mirrors the service tests' corpus generator: n route sets from MR
// discoveries on a 1-tier cluster, wormhole on or off.
func genSets(n int, wormhole bool, seedBase uint64) [][][]int {
	net := topology.Cluster(1, 2)
	var sc *attack.Scenario
	if wormhole {
		sc = attack.NewScenario(net, 1, attack.Forward)
		defer sc.Teardown()
	}
	out := make([][][]int, 0, n)
	for i := 0; i < n; i++ {
		s := sim.NewNetwork(net.Topo, sim.Config{Seed: seedBase + uint64(i)*7919})
		if sc != nil {
			sc.Arm(s)
		}
		d := (&mr.Protocol{}).Discover(s, net.SrcPool[0], net.DstPool[len(net.DstPool)-1])
		set := make([][]int, len(d.Routes))
		for j, r := range d.Routes {
			nodes := make([]int, len(r))
			for k, id := range r {
				nodes[k] = int(id)
			}
			set[j] = nodes
		}
		out = append(out, set)
	}
	return out
}

// newReplica boots one samserve service on a test listener.
func newReplica(t *testing.T) *httptest.Server {
	t.Helper()
	return newReplicaWith(t, service.Config{})
}

func newReplicaWith(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	svc := service.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

// newTestGateway fronts the given replica URLs with background loops off.
func newTestGateway(t *testing.T, replicas ...string) (*Gateway, *httptest.Server) {
	t.Helper()
	return newGatewayWith(t, GatewayConfig{Replicas: replicas})
}

func newGatewayWith(t *testing.T, cfg GatewayConfig) (*Gateway, *httptest.Server) {
	t.Helper()
	cfg.HealthInterval = -1
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		ts.Close()
		g.Close()
	})
	return g, ts
}

func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, blob
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// trainDirect trains profile name on one server with a deterministic corpus.
func trainDirect(t *testing.T, baseURL, name string) {
	t.Helper()
	body := mustMarshal(t, service.TrainRequest{RouteSets: genSets(20, false, 1000)})
	resp, blob := postRaw(t, baseURL+"/v1/profiles/"+name+"/train", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("train %s: %d: %s", name, resp.StatusCode, blob)
	}
}

// gridBody is the scatter test grid: four scenarios, four distinct profiles,
// small runs so the sweep stays fast.
func gridBody(t *testing.T) string {
	t.Helper()
	seed := uint64(2005)
	return mustMarshal(t, service.TrainBatchRequest{
		Scenarios: []service.TrainScenarioJSON{
			{Topo: "cluster", Tier: 1, Protocol: "mr"},
			{Topo: "cluster", Tier: 2, Protocol: "mr"},
			{Topo: "cluster", Tier: 1, Protocol: "smr"},
			{Topo: "cluster", Tier: 2, Protocol: "smr"},
		},
		Runs: 4,
		Seed: &seed,
	})
}

// gridProfiles names the profiles gridBody trains.
var gridProfiles = []string{"cluster-1tier-MR", "cluster-2tier-MR", "cluster-1tier-SMR", "cluster-2tier-SMR"}

// newSplitFleet fronts two fresh replicas whose ring spreads the grid's
// profiles over both. Placement hashes the replicas' URLs, so it redraws
// the pair until the grid is split.
func newSplitFleet(t *testing.T) (g *Gateway, gw, r1, r2 *httptest.Server) {
	t.Helper()
	for try := 0; try < 32; try++ {
		r1, r2 = newReplica(t), newReplica(t)
		g, gw = newTestGateway(t, r1.URL, r2.URL)
		for _, p := range gridProfiles[1:] {
			if g.fleet.Owner(p) != g.fleet.Owner(gridProfiles[0]) {
				return g, gw, r1, r2
			}
		}
	}
	t.Fatal("no replica pair split the grid in 32 draws")
	return nil, nil, nil, nil
}

// TestGatewayTrainBatchScatterByteIdentity is the determinism acceptance
// gate: a grid scattered across two replicas and merged by the gateway must
// produce the exact bytes a single replica produces sweeping the whole grid.
func TestGatewayTrainBatchScatterByteIdentity(t *testing.T) {
	single := newReplica(t)
	g, gw, r1, r2 := newSplitFleet(t)

	body := gridBody(t)
	resp, want := postRaw(t, single.URL+"/v1/train/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single sweep: %d: %s", resp.StatusCode, want)
	}
	resp, got := postRaw(t, gw.URL+"/v1/train/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scattered sweep: %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("scattered sweep diverged from single replica:\n gw:     %s\n single: %s", got, want)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("scattered sweep Content-Type = %q", ct)
	}

	// The split actually happened (both replicas trained something) — the
	// byte identity above would be vacuous if one replica took the grid.
	if g.metrics.scatters.Value() == 0 {
		t.Fatal("grid split across replicas, but the gateway did not scatter it")
	}
	for _, r := range []*httptest.Server{r1, r2} {
		var infos []service.ProfileInfo
		if err := g.client.getJSON(context.Background(), r.URL+"/v1/profiles", &infos); err != nil {
			t.Fatal(err)
		}
		if len(infos) == 0 {
			t.Fatalf("replica %s trained nothing; grid was not split", r.URL)
		}
	}
}

// TestGatewayDetectByteTransparent scores one corpus twice — through the
// gateway onto a 2-replica fleet, and against a lone replica — and requires
// byte-identical verdict bodies in both worlds.
func TestGatewayDetectByteTransparent(t *testing.T) {
	single := newReplica(t)
	r1, r2 := newReplica(t), newReplica(t)
	_, gw := newTestGateway(t, r1.URL, r2.URL)

	// Same grid trained in both worlds seeds identical profiles.
	body := gridBody(t)
	if resp, blob := postRaw(t, single.URL+"/v1/train/batch", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("single train: %d: %s", resp.StatusCode, blob)
	}
	if resp, blob := postRaw(t, gw.URL+"/v1/train/batch", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet train: %d: %s", resp.StatusCode, blob)
	}

	profiles := []string{"cluster-1tier-MR", "cluster-2tier-MR", "cluster-1tier-SMR", "cluster-2tier-SMR"}
	normal := genSets(4, false, 5000)
	attacked := genSets(4, true, 6000)
	var reqs []string
	for i, p := range profiles {
		reqs = append(reqs,
			mustMarshal(t, service.DetectRequest{Profile: p, Routes: normal[i]}),
			mustMarshal(t, service.DetectRequest{Profile: p, Routes: attacked[i]}),
		)
	}
	// Scored strictly in order in both worlds, the adaptive profile updates
	// replay identically, so every response must match byte for byte.
	for i, req := range reqs {
		_, want := postRaw(t, single.URL+"/v1/detect", req)
		_, got := postRaw(t, gw.URL+"/v1/detect", req)
		if !bytes.Equal(got, want) {
			t.Fatalf("detect %d diverged:\n gw:     %s\n single: %s", i, got, want)
		}
	}

	// Batch detect is transparent too. Batch items score concurrently on the
	// worker pool, so with adaptive updates on their verdicts depend on which
	// item updated the profile first; freeze updates to compare bytes.
	noUpdate := false
	batch := mustMarshal(t, service.BatchDetectRequest{Profile: profiles[0], Items: genSets(3, false, 7000), Update: &noUpdate})
	_, want := postRaw(t, single.URL+"/v1/detect/batch", batch)
	_, got := postRaw(t, gw.URL+"/v1/detect/batch", batch)
	if !bytes.Equal(got, want) {
		t.Fatalf("detect/batch diverged:\n gw:     %s\n single: %s", got, want)
	}
}

// TestGatewayStreamOrdered runs the NDJSON scatter: interleaved lines for
// profiles owned by different replicas, plus a malformed line, must come
// back as one response line per input line, in input order, byte-identical
// to a lone replica scoring the same stream.
func TestGatewayStreamOrdered(t *testing.T) {
	single := newReplica(t)
	_, gw, _, _ := newSplitFleet(t)

	body := gridBody(t)
	if resp, blob := postRaw(t, single.URL+"/v1/train/batch", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("single train: %d: %s", resp.StatusCode, blob)
	}
	if resp, blob := postRaw(t, gw.URL+"/v1/train/batch", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet train: %d: %s", resp.StatusCode, blob)
	}

	// newSplitFleet placed the stream's profiles on both replicas.
	sets := genSets(8, false, 8000)
	var in bytes.Buffer
	lines := 0
	for i := 0; i < 8; i++ {
		in.WriteString(mustMarshal(t, service.DetectRequest{Profile: gridProfiles[i%4], Routes: sets[i]}))
		in.WriteByte('\n')
		lines++
		if i == 3 {
			in.WriteString("\n{not json\n") // blank line skipped, bad line answered
			lines++
		}
	}

	stream := func(url string) []string {
		resp, err := http.Post(url+"/v1/detect/stream", "application/x-ndjson", bytes.NewReader(in.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream: %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("stream Content-Type = %q", ct)
		}
		var out []string
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 8<<20)
		for sc.Scan() {
			out = append(out, sc.Text())
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	want := stream(single.URL)
	got := stream(gw.URL)
	if len(got) != lines {
		t.Fatalf("stream answered %d lines for %d inputs", len(got), lines)
	}
	if len(want) != len(got) {
		t.Fatalf("single answered %d lines, gateway %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("stream line %d diverged:\n gw:     %s\n single: %s", i, got[i], want[i])
		}
	}
}

// TestGatewayPullOnMiss plants a profile on a replica that does not own it;
// the first detect routed to the owner must repair placement (ship the
// record over) and then score, transparently to the client.
func TestGatewayPullOnMiss(t *testing.T) {
	r1, r2 := newReplica(t), newReplica(t)
	g, gw := newTestGateway(t, r1.URL, r2.URL)

	const name = "test"
	owner := g.fleet.Owner(name)
	holder := r1.URL
	if owner == r1.URL {
		holder = r2.URL
	}
	trainDirect(t, holder, name)

	req := mustMarshal(t, service.DetectRequest{Profile: name, Routes: genSets(1, false, 9000)[0]})
	resp, blob := postRaw(t, gw.URL+"/v1/detect", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect after pull-on-miss: %d: %s", resp.StatusCode, blob)
	}
	var dr service.DetectResponse
	if err := json.Unmarshal(blob, &dr); err != nil {
		t.Fatal(err)
	}
	if g.metrics.pulls.Value() != 1 {
		t.Fatalf("pulls = %d, want 1", g.metrics.pulls.Value())
	}
	// The owner now holds the record, byte-identical to the holder's export.
	ctx := context.Background()
	ownerRec, err := g.client.do(ctx, http.MethodGet, owner+"/v1/profiles/"+name, "", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ownerRec.Body.Close()
	if ownerRec.StatusCode != http.StatusOK {
		t.Fatalf("owner GET after repair: %d", ownerRec.StatusCode)
	}

	// A profile held nowhere still answers the canonical 404 body.
	resp, blob = postRaw(t, gw.URL+"/v1/detect", mustMarshal(t, service.DetectRequest{Profile: "ghost", Routes: genSets(1, false, 9100)[0]}))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost detect: %d: %s", resp.StatusCode, blob)
	}
	var er service.ErrorResponse
	if err := json.Unmarshal(blob, &er); err != nil || er.Error != `unknown profile: "ghost"` {
		t.Fatalf("ghost body = %s", blob)
	}
}

// TestGatewaySyncNow: anti-entropy ships misplaced profiles to their owners
// without touching the source copies.
func TestGatewaySyncNow(t *testing.T) {
	r1, r2 := newReplica(t), newReplica(t)
	g, _ := newTestGateway(t, r1.URL, r2.URL)

	const name = "test"
	owner := g.fleet.Owner(name)
	holder := r1.URL
	if owner == r1.URL {
		holder = r2.URL
	}
	trainDirect(t, holder, name)

	ctx := context.Background()
	if shipped := g.SyncNow(ctx); shipped != 1 {
		t.Fatalf("SyncNow shipped %d, want 1", shipped)
	}
	read := func(base string) []byte {
		resp, err := g.client.do(ctx, http.MethodGet, base+"/v1/profiles/"+name, "", nil, false)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", base, resp.StatusCode, blob)
		}
		return blob
	}
	if want, got := read(holder), read(owner); !bytes.Equal(want, got) {
		t.Fatalf("shipped record drifted:\n holder: %s\n owner:  %s", want, got)
	}
	if shipped := g.SyncNow(ctx); shipped != 0 {
		t.Fatalf("second SyncNow shipped %d, want 0 (converged)", shipped)
	}
}

// TestGatewayProfileCRUD covers the union listing, owner-ranked GET, and
// broadcast DELETE.
func TestGatewayProfileCRUD(t *testing.T) {
	r1, r2 := newReplica(t), newReplica(t)
	g, gw := newTestGateway(t, r1.URL, r2.URL)

	trainDirect(t, r1.URL, "alpha")
	trainDirect(t, r2.URL, "beta")

	var infos []service.ProfileInfo
	if err := g.client.getJSON(context.Background(), gw.URL+"/v1/profiles", &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "beta" {
		t.Fatalf("union listing = %+v", infos)
	}

	// GET finds the profile wherever it lives, even off-owner.
	for _, name := range []string{"alpha", "beta"} {
		resp, blob := getRaw(t, gw.URL+"/v1/profiles/"+name)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", name, resp.StatusCode, blob)
		}
	}

	// DELETE reaches every copy; the profile is gone fleet-wide.
	req, _ := http.NewRequest(http.MethodDelete, gw.URL+"/v1/profiles/alpha", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE alpha: %d", resp.StatusCode)
	}
	for _, base := range []string{r1.URL, r2.URL} {
		resp, _ := getRaw(t, base+"/v1/profiles/alpha")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("alpha survives on %s: %d", base, resp.StatusCode)
		}
	}
	// Deleting a profile nobody holds answers 404.
	req, _ = http.NewRequest(http.MethodDelete, gw.URL+"/v1/profiles/alpha", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE alpha: %d, want 404", resp.StatusCode)
	}
}

func getRaw(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	return resp, blob
}

// TestGatewayFailover: a dead replica in the membership is routed around
// for reads, and health marks it down after the first dial failure.
func TestGatewayFailover(t *testing.T) {
	live := newReplica(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // port now refuses connections

	g, gw := newTestGateway(t, live.URL, deadURL)
	// Pick a profile the *dead* replica owns under pure placement, so the
	// detect really hits the failover path.
	name := ""
	for i := 0; name == ""; i++ {
		candidate := fmt.Sprintf("failover-%d", i)
		if g.fleet.ring.Owner(candidate) == deadURL {
			name = candidate
		}
	}
	trainDirect(t, live.URL, name)
	// The boot health sweep already marked the dead replica down, so the
	// live replica owns everything; force the optimistic state back to
	// exercise the passive path.
	g.fleet.mu.Lock()
	g.fleet.states[deadURL].healthy = true
	g.fleet.mu.Unlock()

	req := mustMarshal(t, service.DetectRequest{Profile: name, Routes: genSets(1, false, 9200)[0]})
	resp, blob := postRaw(t, gw.URL+"/v1/detect", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect with a dead owner: %d: %s", resp.StatusCode, blob)
	}
	if g.metrics.failovers.Value() == 0 {
		t.Fatal("failover path not taken")
	}
	if g.fleet.Healthy(deadURL) {
		t.Fatal("dead replica still marked healthy after dial failures")
	}
	if hc := g.fleet.HealthyCount(); hc != 1 {
		t.Fatalf("healthy count = %d, want 1", hc)
	}
}

// TestGatewayHealthz: 200 with replica counts while the fleet is routable,
// 503 when nothing is.
func TestGatewayHealthz(t *testing.T) {
	live := newReplica(t)
	g, gw := newTestGateway(t, live.URL)

	resp, blob := getRaw(t, gw.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(blob, []byte(`"healthy":1`)) {
		t.Fatalf("healthz = %d: %s", resp.StatusCode, blob)
	}

	g.fleet.MarkDown(live.URL, fmt.Errorf("forced down"))
	resp, blob = getRaw(t, gw.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no healthy replicas = %d: %s", resp.StatusCode, blob)
	}

	// /v1/cluster exposes membership and placement.
	resp, blob = getRaw(t, gw.URL+"/v1/cluster?profile=test")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(blob, []byte(`"owner"`)) {
		t.Fatalf("cluster view = %d: %s", resp.StatusCode, blob)
	}
}

// TestClientRetry429 pins the retry discipline: Retry-After honored within
// the budget, the last 429 surfaced once attempts run out.
func TestClientRetry429(t *testing.T) {
	var hits int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	var slept []time.Duration
	c := &Client{sleep: func(d time.Duration) { slept = append(slept, d) }}
	resp, err := c.do(context.Background(), http.MethodPost, ts.URL, "application/json", []byte(`{}`), true)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hits != 3 {
		t.Fatalf("status %d after %d hits", resp.StatusCode, hits)
	}
	if len(slept) != 2 || slept[0] != time.Second {
		t.Fatalf("slept %v, want two 1s waits", slept)
	}

	// Without opting in, the 429 passes straight through.
	hits = 0
	resp, err = c.do(context.Background(), http.MethodPost, ts.URL, "application/json", []byte(`{}`), false)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || hits != 1 {
		t.Fatalf("passthrough: status %d after %d hits", resp.StatusCode, hits)
	}
}

// TestNotDelivered: dial errors are recognized; an HTTP-level error is not.
func TestNotDelivered(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()

	c := &Client{}
	_, err := c.do(context.Background(), http.MethodPost, url, "", nil, false)
	if err == nil || !NotDelivered(err) {
		t.Fatalf("dial error not recognized: %v", err)
	}
	if NotDelivered(io.ErrUnexpectedEOF) {
		t.Fatal("mid-body error misread as not-delivered")
	}
}

// TestGatewayMatchesLoneReplica drives every routed endpoint through a
// gateway over two replicas and against a lone replica, in the same order,
// and requires the same status and body bytes from both worlds: the route
// table relays replica answers verbatim, error bodies included.
func TestGatewayMatchesLoneReplica(t *testing.T) {
	single := newReplica(t)
	r1, r2 := newReplica(t), newReplica(t)
	g, gw := newTestGateway(t, r1.URL, r2.URL)

	profiles := []string{"cluster-1tier-MR", "cluster-2tier-MR", "cluster-1tier-SMR", "cluster-2tier-SMR"}
	owned := profiles[0]
	// decoy lives on the other replica, so a body key read differently from
	// the replica's parser would route the request to the wrong one.
	decoy := ""
	for i := 0; decoy == ""; i++ {
		if name := fmt.Sprintf("decoy-%d", i); g.fleet.Owner(name) != g.fleet.Owner(owned) {
			decoy = name
		}
	}
	sets := genSets(8, false, 8000)
	var stream strings.Builder
	for i, set := range sets {
		stream.WriteString(mustMarshal(t, service.DetectRequest{Profile: profiles[i%4], Routes: set}) + "\n")
		if i == 3 {
			stream.WriteString("\n{not json\n")
		}
	}
	noUpdate := false

	// {pair} and {record} are filled from the lone replica's earlier answers.
	rows := []struct{ name, method, path, body string }{
		{"train/batch", "POST", "/v1/train/batch", gridBody(t)},
		{"train", "POST", "/v1/profiles/extra/train", mustMarshal(t, service.TrainRequest{RouteSets: genSets(20, false, 1000)})},
		{"detect", "POST", "/v1/detect", mustMarshal(t, service.DetectRequest{Profile: owned, Routes: sets[0]})},
		{"detect case-variant key", "POST", "/v1/detect",
			`{"profile":"` + decoy + `","Profile":"` + owned + `","routes":` + mustMarshal(t, sets[1]) + `}`},
		{"detect unknown profile", "POST", "/v1/detect", mustMarshal(t, service.DetectRequest{Profile: "ghost", Routes: sets[2]})},
		{"detect malformed", "POST", "/v1/detect", `{"profile":`},
		{"detect/batch", "POST", "/v1/detect/batch",
			mustMarshal(t, service.BatchDetectRequest{Profile: owned, Items: sets[:3], Update: &noUpdate})},
		{"detect/stream", "POST", "/v1/detect/stream", stream.String()},
		{"analyze", "POST", "/v1/analyze", mustMarshal(t, map[string]any{"routes": sets[3], "top_k": 2})},
		{"verify", "POST", "/v1/verify", `{"scenario":{"topo":"cluster"},"isolate":true}`},
		{"isolation list", "GET", "/v1/isolation", ""},
		{"isolation lift", "DELETE", "/v1/isolation/{pair}", ""},
		{"isolation lift again", "DELETE", "/v1/isolation/{pair}", ""},
		{"isolation lift never isolated", "DELETE", "/v1/isolation/3/7", ""},
		{"isolation lift self pair", "DELETE", "/v1/isolation/4/4", ""},
		{"profile list", "GET", "/v1/profiles", ""},
		{"profile get", "GET", "/v1/profiles/" + owned, ""},
		{"profile get unknown", "GET", "/v1/profiles/ghost", ""},
		{"profile put", "PUT", "/v1/profiles/" + owned, "{record}"},
		{"profile put mismatched", "PUT", "/v1/profiles/other", "{record}"},
		{"profile delete", "DELETE", "/v1/profiles/" + owned, ""},
		{"profile delete again", "DELETE", "/v1/profiles/" + owned, ""},
	}
	fill := strings.NewReplacer()
	for _, row := range rows {
		do := func(base string) (int, string) {
			req, err := http.NewRequest(row.method, base+fill.Replace(row.path), strings.NewReader(fill.Replace(row.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			blob, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, string(blob)
		}
		wantStatus, want := do(single.URL)
		gotStatus, got := do(gw.URL)
		if gotStatus != wantStatus || got != want {
			t.Errorf("%s diverged:\n gw:     %d %s\n single: %d %s", row.name, gotStatus, got, wantStatus, want)
		}
		switch row.name {
		case "verify":
			var vr service.VerifyResponse
			if err := json.Unmarshal([]byte(want), &vr); err != nil || !vr.Isolated {
				t.Fatalf("verify did not isolate a pair: %s", want)
			}
			fill = strings.NewReplacer("{pair}", fmt.Sprintf("%d/%d", vr.Suspect.A, vr.Suspect.B))
		case "profile get":
			fill = strings.NewReplacer("{record}", want)
		}
	}
}

// TestGatewayBodyLimitsMatchReplica: with the same MaxBodyBytes on both
// sides, an over-limit or broken body is refused with the lone replica's
// status and bytes, for /v1/detect and for a /v1/detect/stream line.
func TestGatewayBodyLimitsMatchReplica(t *testing.T) {
	const limit = 64
	single := newReplicaWith(t, service.Config{MaxBodyBytes: limit})
	replica := newReplicaWith(t, service.Config{MaxBodyBytes: limit})
	g, _ := newGatewayWith(t, GatewayConfig{Replicas: []string{replica.URL}, MaxBodyBytes: limit})

	line := `{"profile":"p","routes":[[1,2]]}`
	over := `{"profile":"p","routes":[[` + strings.Repeat("1,", limit) + `1]]}`
	reset := iotest.ErrReader(errors.New("connection reset by peer"))
	type row struct {
		name, method, path string
		body               func() io.Reader
		status             int // the replica's status; 0 leaves it unchecked
	}
	rows := []row{
		{"detect over limit", http.MethodPost, "/v1/detect", func() io.Reader { return strings.NewReader(over) }, 0},
		{"detect broken body", http.MethodPost, "/v1/detect", func() io.Reader { return io.MultiReader(strings.NewReader(`{"profile":`), reset) }, 0},
		{"stream over-limit line", http.MethodPost, "/v1/detect/stream", func() io.Reader { return strings.NewReader(line + "\n" + over + "\n" + line + "\n") }, 0},
		{"stream broken body", http.MethodPost, "/v1/detect/stream", func() io.Reader { return io.MultiReader(strings.NewReader(line+"\n"), reset) }, 0},
	}
	// The endpoints that decode through encoding/json read their body the
	// same way as the detect path, so they refuse the same way: an
	// over-limit body is 413 even when it goes bad before the limit or is
	// only padded past it with whitespace, and a failed read is worded as a
	// read failure, not as invalid JSON.
	for _, ep := range []struct{ method, path, valid string }{
		{http.MethodPost, "/v1/profiles/p/train", `{"route_sets":[[[1,2]]]}`},
		{http.MethodPost, "/v1/train/batch", `{"scenarios":[{"topo":"cluster"}],"runs":1}`},
		{http.MethodPost, "/v1/verify", `{"scenario":{"topo":"cluster"}}`},
		{http.MethodPut, "/v1/profiles/p", `{"name":"p","runs":1}`},
	} {
		malformed := `{"x": x` + strings.Repeat(" ", limit)
		padded := ep.valid + strings.Repeat(" ", 200)
		rows = append(rows,
			row{ep.method + " " + ep.path + " malformed over limit", ep.method, ep.path,
				func() io.Reader { return strings.NewReader(malformed) }, http.StatusRequestEntityTooLarge},
			row{ep.method + " " + ep.path + " padded over limit", ep.method, ep.path,
				func() io.Reader { return strings.NewReader(padded) }, http.StatusRequestEntityTooLarge},
			row{ep.method + " " + ep.path + " broken body", ep.method, ep.path,
				func() io.Reader { return io.MultiReader(strings.NewReader(ep.valid[:5]), reset) }, http.StatusBadRequest},
		)
	}
	for _, tc := range rows {
		serve := func(h http.Handler) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, tc.body()))
			return rec
		}
		want, got := serve(single.Config.Handler), serve(g.Handler())
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("%s diverged:\n gw:     %d %s\n single: %d %s", tc.name, got.Code, got.Body, want.Code, want.Body)
		}
		if tc.name == "detect over limit" && want.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("over-limit detect answered %d, want 413", want.Code)
		}
		if tc.status != 0 && want.Code != tc.status {
			t.Errorf("%s: replica answered %d %s, want %d", tc.name, want.Code, want.Body, tc.status)
		}
	}
}
