package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"samnet/internal/attack"
	"samnet/internal/routing/mr"
	"samnet/internal/sam"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// genSets produces n route sets from MR discoveries on a 1-tier cluster,
// with or without an active wormhole. Seeds are offset so normal and
// attacked sets never reuse a simulation.
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

// newTrainedServer builds a service with the given config, trains profile
// "test" over the HTTP API, and returns the test server.
func newTrainedServer(t *testing.T, cfg Config) (*httptest.Server, *Service) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	body, err := json.Marshal(TrainRequest{RouteSets: genSets(20, false, 1000)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/profiles/test/train", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("train: %s", resp.Status)
	}
	var tr TrainResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Trained || tr.Runs != 20 {
		t.Fatalf("train response = %+v, want 20 trained runs", tr)
	}
	return ts, svc
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEndpoints is the table-driven sweep over every endpoint: happy paths,
// error paths, and protocol edges.
func TestEndpoints(t *testing.T) {
	ts, _ := newTrainedServer(t, Config{})
	normal := genSets(1, false, 5000)[0]
	attacked := genSets(1, true, 6000)[0]

	tests := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		check      func(t *testing.T, body []byte)
	}{
		{
			name: "analyze normal", method: "POST", path: "/v1/analyze",
			body:       mustJSON(t, AnalyzeRequest{Routes: normal}),
			wantStatus: http.StatusOK,
			check: func(t *testing.T, body []byte) {
				var ar AnalyzeResponse
				if err := json.Unmarshal(body, &ar); err != nil {
					t.Fatal(err)
				}
				if ar.Routes != len(normal) || ar.N == 0 || ar.PMax <= 0 || ar.PMax > 1 {
					t.Fatalf("implausible analyze response: %+v", ar)
				}
				if len(ar.Top) == 0 || ar.Top[0].P != ar.PMax {
					t.Fatalf("top links missing or inconsistent: %+v", ar.Top)
				}
			},
		},
		{
			name: "analyze empty set", method: "POST", path: "/v1/analyze",
			body: `{"routes":[]}`, wantStatus: http.StatusOK,
			check: func(t *testing.T, body []byte) {
				var ar AnalyzeResponse
				if err := json.Unmarshal(body, &ar); err != nil {
					t.Fatal(err)
				}
				if ar.N != 0 || ar.PMax != 0 {
					t.Fatalf("empty set should yield zero stats: %+v", ar)
				}
			},
		},
		{
			name: "analyze malformed JSON", method: "POST", path: "/v1/analyze",
			body: `{"routes":[[1,2`, wantStatus: http.StatusBadRequest,
		},
		{
			name: "analyze trailing garbage", method: "POST", path: "/v1/analyze",
			body: `{"routes":[[1,2]]}{"routes":[]}`, wantStatus: http.StatusBadRequest,
		},
		{
			name: "analyze negative node id", method: "POST", path: "/v1/analyze",
			body: `{"routes":[[1,-2,3]]}`, wantStatus: http.StatusBadRequest,
		},
		{
			name: "detect normal", method: "POST", path: "/v1/detect",
			body:       mustJSON(t, DetectRequest{Profile: "test", Routes: normal}),
			wantStatus: http.StatusOK,
			check: func(t *testing.T, body []byte) {
				var dr DetectResponse
				if err := json.Unmarshal(body, &dr); err != nil {
					t.Fatal(err)
				}
				if dr.Verdict.Decision != "normal" {
					t.Fatalf("normal route set judged %q (lambda %.3f)", dr.Verdict.Decision, dr.Verdict.Lambda)
				}
			},
		},
		{
			name: "detect wormhole", method: "POST", path: "/v1/detect",
			body:       mustJSON(t, DetectRequest{Profile: "test", Routes: attacked}),
			wantStatus: http.StatusOK,
			check: func(t *testing.T, body []byte) {
				var dr DetectResponse
				if err := json.Unmarshal(body, &dr); err != nil {
					t.Fatal(err)
				}
				if dr.Verdict.Decision == "normal" {
					t.Fatalf("wormhole route set judged normal (lambda %.3f)", dr.Verdict.Lambda)
				}
				if dr.Verdict.Suspects[0] == dr.Verdict.Suspects[1] {
					t.Fatalf("degenerate suspect pair: %+v", dr.Verdict.Suspects)
				}
			},
		},
		{
			name: "detect unknown profile", method: "POST", path: "/v1/detect",
			body:       mustJSON(t, DetectRequest{Profile: "nope", Routes: normal}),
			wantStatus: http.StatusNotFound,
		},
		{
			name: "detect missing profile name", method: "POST", path: "/v1/detect",
			body: `{"routes":[[1,2]]}`, wantStatus: http.StatusBadRequest,
		},
		{
			name: "batch detect", method: "POST", path: "/v1/detect/batch",
			body:       mustJSON(t, BatchDetectRequest{Profile: "test", Items: [][][]int{normal, attacked, normal}}),
			wantStatus: http.StatusOK,
			check: func(t *testing.T, body []byte) {
				var br BatchDetectResponse
				if err := json.Unmarshal(body, &br); err != nil {
					t.Fatal(err)
				}
				if len(br.Verdicts) != 3 {
					t.Fatalf("got %d verdicts, want 3", len(br.Verdicts))
				}
				// Verdicts come back in item order.
				if br.Verdicts[0].Decision != "normal" || br.Verdicts[2].Decision != "normal" {
					t.Fatalf("normal items flagged: %+v", br.Verdicts)
				}
				if br.Verdicts[1].Decision == "normal" {
					t.Fatalf("wormhole item judged normal: %+v", br.Verdicts[1])
				}
			},
		},
		{
			name: "batch over item limit", method: "POST", path: "/v1/detect/batch",
			body:       mustJSON(t, BatchDetectRequest{Profile: "test", Items: make([][][]int, 257)}),
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "train empty body", method: "POST", path: "/v1/profiles/p2/train",
			body: `{"route_sets":[]}`, wantStatus: http.StatusBadRequest,
		},
		{
			name: "train then untrained detect", method: "POST", path: "/v1/profiles/empty/train",
			// A set of zero-link routes observes nothing, so the profile
			// exists but stays untrained.
			body:       `{"route_sets":[[[1]]]}`,
			wantStatus: http.StatusOK,
			check: func(t *testing.T, body []byte) {
				var tr TrainResponse
				if err := json.Unmarshal(body, &tr); err != nil {
					t.Fatal(err)
				}
				if tr.Trained || tr.Runs != 0 {
					t.Fatalf("zero-information training marked trained: %+v", tr)
				}
				resp, _ := postJSON(t, ts.URL+"/v1/detect",
					mustJSON(t, DetectRequest{Profile: "empty", Routes: [][]int{{1, 2}}}))
				if resp.StatusCode != http.StatusConflict {
					t.Fatalf("untrained detect status = %d, want 409", resp.StatusCode)
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			if tc.wantStatus != http.StatusOK {
				var er ErrorResponse
				if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
					t.Fatalf("error response not JSON with an error field: %s", body)
				}
			}
			if tc.check != nil {
				tc.check(t, body)
			}
		})
	}
}

// TestProfileEndpoints covers GET /v1/profiles and GET /v1/profiles/{name},
// including the exported profile being loadable back into sam.
func TestProfileEndpoints(t *testing.T) {
	ts, _ := newTrainedServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	var infos []ProfileInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "test" || !infos[0].Trained || infos[0].Runs != 20 {
		t.Fatalf("profile list = %+v", infos)
	}

	resp, err = http.Get(ts.URL + "/v1/profiles/test")
	if err != nil {
		t.Fatal(err)
	}
	var pr ProfileResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pr.Profile == nil || pr.Profile.PMF == nil || pr.Profile.PMax.N != 20 {
		t.Fatalf("exported profile incomplete: %+v", pr)
	}
	if pr.PMaxMean != pr.Profile.PMax.Mean {
		t.Fatalf("fresh profile adaptive mean %.4f != trained mean %.4f", pr.PMaxMean, pr.Profile.PMax.Mean)
	}
	// The exported JSON round-trips through sam.Profile (samtrain's format).
	if _, err := json.Marshal(pr.Profile); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(ts.URL + "/v1/profiles/ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown profile GET = %d, want 404", resp.StatusCode)
	}
}

// TestHealthAndMetrics asserts the liveness probe and that served requests
// show up in the Prometheus exposition.
func TestHealthAndMetrics(t *testing.T) {
	ts, _ := newTrainedServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/detect",
		mustJSON(t, DetectRequest{Profile: "test", Routes: genSets(1, false, 123)[0]}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: %d %s", resp.StatusCode, body)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hr.StatusCode)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mr.Body)
	mr.Body.Close()
	text := buf.String()
	for _, want := range []string{
		`samserve_requests_total{class="2xx",endpoint="detect"} 1`,
		`samserve_requests_total{class="2xx",endpoint="train"} 1`,
		`samserve_request_duration_seconds_count{endpoint="detect"} 1`,
		"samserve_queue_depth 0",
		"samserve_profiles 1",
		`samserve_detections_total{decision="normal"} 1`,
		"samserve_detect_pmax_count 1",
		"samserve_profile_trainings_total 1",
		"samserve_decisions_recorded 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestConcurrentBatchDetect hammers a shared profile with concurrent batch
// requests (run under -race in CI): all verdicts must come back in order and
// the adaptive update must stay internally consistent.
func TestConcurrentBatchDetect(t *testing.T) {
	ts, _ := newTrainedServer(t, Config{Workers: 4, QueueDepth: 1 << 16})
	normal := genSets(4, false, 9000)
	attacked := genSets(4, true, 9100)
	items := [][][]int{normal[0], attacked[0], normal[1], attacked[1], normal[2], attacked[2], normal[3], attacked[3]}
	body := mustJSON(t, BatchDetectRequest{Profile: "test", Items: items})

	const goroutines = 16
	const rounds = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := http.Post(ts.URL+"/v1/detect/batch", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var br BatchDetectResponse
				err = json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				if len(br.Verdicts) != len(items) {
					errs <- fmt.Errorf("got %d verdicts, want %d", len(br.Verdicts), len(items))
					return
				}
				for j, v := range br.Verdicts {
					if v.Lambda < 0 || v.Lambda > 1 {
						errs <- fmt.Errorf("item %d lambda %v out of range", j, v.Lambda)
						return
					}
					// Odd items are the attacked discoveries.
					if j%2 == 1 && v.Decision == "normal" {
						errs <- fmt.Errorf("attacked item %d judged normal", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentTrainAndDetect trains and scores one profile from several
// goroutines at once (run under -race in CI): training analyzes its sets
// outside the profile lock, the pooled link tables and wire scratch are
// shared by every request, and no observation may be lost.
func TestConcurrentTrainAndDetect(t *testing.T) {
	ts, _ := newTrainedServer(t, Config{})
	train := mustJSON(t, TrainRequest{RouteSets: genSets(10, false, 5000)})
	detect := mustJSON(t, DetectRequest{Profile: "test", Routes: genSets(1, true, 5100)[0]})
	const goroutines, rounds = 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, 2*goroutines*rounds)
	post := func(path, body string) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
			}
		}
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(2)
		go post("/v1/profiles/test/train", train)
		go post("/v1/detect", detect)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/profiles/test")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr ProfileResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if want := 20 + goroutines*rounds*10; pr.Runs != want {
		t.Errorf("profile has %d runs, want %d", pr.Runs, want)
	}
}

// TestBatchBackpressure asserts the 429 path: a batch larger than the queue
// depth is rejected whole, with a Retry-After hint and a JSON error body,
// and the pool admits work again afterwards.
func TestBatchBackpressure(t *testing.T) {
	ts, svc := newTrainedServer(t, Config{Workers: 1, QueueDepth: 4})
	big := make([][][]int, 10)
	set := genSets(1, false, 777)[0]
	for i := range big {
		big[i] = set
	}
	resp, body := postJSON(t, ts.URL+"/v1/detect/batch", mustJSON(t, BatchDetectRequest{Profile: "test", Items: big}))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized batch status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("429 body not a JSON error: %s", body)
	}
	if d := svc.pool.depth(); d != 0 {
		t.Fatalf("rejected batch leaked %d queue slots", d)
	}

	// A batch that fits still goes through.
	resp, body = postJSON(t, ts.URL+"/v1/detect/batch",
		mustJSON(t, BatchDetectRequest{Profile: "test", Items: big[:3]}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-budget batch status = %d (body %s)", resp.StatusCode, body)
	}
}

// TestAdaptiveUpdateOverAPI asserts that detect with update enabled moves
// the adaptive means (the paper's low-pass update) while update:false leaves
// them frozen.
func TestAdaptiveUpdateOverAPI(t *testing.T) {
	ts, _ := newTrainedServer(t, Config{})
	set := genSets(1, false, 4242)[0]

	means := func() float64 {
		resp, err := http.Get(ts.URL + "/v1/profiles/test")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pr ProfileResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr.PMaxMean
	}

	frozen := false
	before := means()
	postJSON(t, ts.URL+"/v1/detect", mustJSON(t, DetectRequest{Profile: "test", Routes: set, Update: &frozen}))
	if after := means(); after != before {
		t.Fatalf("update:false moved the adaptive mean %.6f -> %.6f", before, after)
	}
	postJSON(t, ts.URL+"/v1/detect", mustJSON(t, DetectRequest{Profile: "test", Routes: set}))
	if after := means(); after == before {
		t.Fatalf("update:true left the adaptive mean frozen at %.6f", before)
	}
}

// TestBodyLimit asserts the 413 path for oversized request bodies.
func TestBodyLimit(t *testing.T) {
	svc := New(Config{MaxBodyBytes: 512})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	big := mustJSON(t, AnalyzeRequest{Routes: genSets(1, false, 31337)[0]})
	if len(big) <= 512 {
		t.Skipf("fixture unexpectedly small: %d bytes", len(big))
	}
	resp, _ := postJSON(t, ts.URL+"/v1/analyze", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
}

// TestLoadProfile asserts a samtrain-style profile can be installed and
// scored against without online training.
func TestLoadProfile(t *testing.T) {
	tr := sam.NewTrainer("preloaded", 0)
	for _, set := range genSets(10, false, 2222) {
		routes, err := decodeRoutes(set)
		if err != nil {
			t.Fatal(err)
		}
		tr.ObserveRoutes(routes)
	}
	p, err := tr.Profile()
	if err != nil {
		t.Fatal(err)
	}

	svc := New(Config{})
	defer svc.Close()
	if err := svc.LoadProfile("pre", p); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/detect",
		mustJSON(t, DetectRequest{Profile: "pre", Routes: genSets(1, true, 3333)[0]}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect on preloaded profile = %d (%s)", resp.StatusCode, body)
	}
	var dr DetectResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Verdict.Decision == "normal" {
		t.Fatalf("wormhole set judged normal against preloaded profile: %+v", dr.Verdict)
	}
}

// TestPreloadedProfileReportsRuns is the regression test for preloaded
// profiles answering "runs": 0 on GET: the entry's local trainer is empty, so
// the run count recorded in the loaded profile itself must be surfaced.
func TestPreloadedProfileReportsRuns(t *testing.T) {
	tr := sam.NewTrainer("preloaded", 0)
	for _, set := range genSets(10, false, 4444) {
		routes, err := decodeRoutes(set)
		if err != nil {
			t.Fatal(err)
		}
		tr.ObserveRoutes(routes)
	}
	p, err := tr.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if p.Runs != 10 {
		t.Fatalf("trainer produced profile with Runs = %d, want 10", p.Runs)
	}

	svc := New(Config{})
	defer svc.Close()
	if err := svc.LoadProfile("pre", p); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/profiles/pre")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET preloaded profile = %s", resp.Status)
	}
	var pr ProfileResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Runs != 10 {
		t.Errorf("GET /v1/profiles/pre runs = %d, want 10 (from loaded profile)", pr.Runs)
	}
	if pr.Profile == nil || pr.Profile.Runs != 10 {
		t.Errorf("embedded profile = %+v, want Runs 10", pr.Profile)
	}

	// The list endpoint goes through the same snapshot path.
	resp2, err := http.Get(ts.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var list []ProfileInfo
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Runs != 10 || !list[0].Trained {
		t.Errorf("profile list = %+v, want one trained entry with 10 runs", list)
	}

	// Training on top of the preload switches back to the live trainer's
	// count rather than summing with the preloaded one.
	resp3, body := postJSON(t, ts.URL+"/v1/profiles/pre/train",
		mustJSON(t, TrainRequest{RouteSets: genSets(3, false, 5555)}))
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("train over preload = %d (%s)", resp3.StatusCode, body)
	}
	resp4, err := http.Get(ts.URL + "/v1/profiles/pre")
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	var pr4 ProfileResponse
	if err := json.NewDecoder(resp4.Body).Decode(&pr4); err != nil {
		t.Fatal(err)
	}
	if pr4.Runs != 3 {
		t.Errorf("after retrain runs = %d, want 3 (local trainer)", pr4.Runs)
	}
}
