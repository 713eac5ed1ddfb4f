package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"samnet/internal/obs"
	"samnet/internal/sam"
)

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}

// familyBlock extracts every exposition line belonging to one metric family.
func familyBlock(text, name string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+"_") || strings.HasPrefix(line, name+" ") ||
			strings.HasPrefix(line, name+"{") ||
			strings.HasPrefix(line, "# HELP "+name+" ") || strings.HasPrefix(line, "# TYPE "+name+" ") {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestDetectExplainRoundTrip: a detect with "explain": true answers the full
// decision record — frequency table, statistics against thresholds, localized
// link — consistent with the verdict in the same response.
func TestDetectExplainRoundTrip(t *testing.T) {
	ts, _ := newTrainedServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/detect",
		mustJSON(t, DetectRequest{Profile: "test", Routes: genSets(1, true, 6000)[0], Explain: true}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: %d %s", resp.StatusCode, body)
	}
	var dr DetectResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	rec := dr.Explain
	if rec == nil {
		t.Fatal("explain requested but absent from the response")
	}
	if rec.Profile != "test" || rec.Decision != dr.Verdict.Decision || rec.Lambda != dr.Verdict.Lambda {
		t.Errorf("explain disagrees with the verdict: %+v vs %+v", rec, dr.Verdict)
	}
	if rec.PMax != dr.Verdict.PMax || rec.Phi != dr.Verdict.Phi || rec.TV != dr.Verdict.TV {
		t.Errorf("explain statistics disagree with the verdict: %+v", rec)
	}
	if rec.ZLow != 1.5 || rec.ZHigh != 4 || rec.TVLow != 0.3 || rec.TVHigh != 0.7 {
		t.Errorf("explain thresholds = %+v, want the sam defaults", rec)
	}
	if len(rec.Links) == 0 {
		t.Fatal("explain carries no frequency table")
	}
	for i := 1; i < len(rec.Links); i++ {
		if rec.Links[i].Count > rec.Links[i-1].Count {
			t.Fatalf("frequency table not sorted at row %d", i)
		}
	}
	if rec.Suspect != (obs.DecisionLink{A: dr.Verdict.Suspects[0], B: dr.Verdict.Suspects[1]}) {
		t.Errorf("localized link %+v disagrees with verdict suspects %v", rec.Suspect, dr.Verdict.Suspects)
	}
	// A route set through an armed wormhole must put the dominant link on top.
	if rec.Links[0].P != rec.PMax {
		t.Errorf("top table row p=%v, want p_max %v", rec.Links[0].P, rec.PMax)
	}

	// A detect without explain answers no record.
	_, body = postJSON(t, ts.URL+"/v1/detect",
		mustJSON(t, DetectRequest{Profile: "test", Routes: genSets(1, false, 5000)[0]}))
	if strings.Contains(string(body), `"explain"`) {
		t.Error("explain present without being requested")
	}
}

// TestDebugDecisions: scored route sets appear in GET /debug/decisions in
// sequence order, labelled with their profile.
func TestDebugDecisions(t *testing.T) {
	ts, _ := newTrainedServer(t, Config{})
	for i, set := range genSets(3, false, 7000) {
		resp, body := postJSON(t, ts.URL+"/v1/detect", mustJSON(t, DetectRequest{Profile: "test", Routes: set}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("detect %d: %d %s", i, resp.StatusCode, body)
		}
	}
	var dec DecisionsResponse
	getJSON(t, ts.URL+"/debug/decisions", &dec)
	if !dec.Enabled || dec.Capacity != 256 {
		t.Errorf("ring state = enabled %v cap %d, want enabled cap 256", dec.Enabled, dec.Capacity)
	}
	if dec.Recorded != 3 || len(dec.Decisions) != 3 {
		t.Fatalf("recorded %d / returned %d decisions, want 3/3", dec.Recorded, len(dec.Decisions))
	}
	for i, d := range dec.Decisions {
		if d.Seq != uint64(i+1) {
			t.Errorf("decision %d has seq %d, want %d", i, d.Seq, i+1)
		}
		if d.Profile != "test" || d.Decision == "" {
			t.Errorf("decision %d incomplete: %+v", i, d)
		}
	}
}

// TestDecisionCaptureDisabled: DecisionBuffer < 0 disables the ring but
// leaves per-request explain working.
func TestDecisionCaptureDisabled(t *testing.T) {
	ts, _ := newTrainedServer(t, Config{DecisionBuffer: -1})
	_, body := postJSON(t, ts.URL+"/v1/detect",
		mustJSON(t, DetectRequest{Profile: "test", Routes: genSets(1, false, 5000)[0], Explain: true}))
	var dr DetectResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Explain == nil {
		t.Error("explain must still work with capture disabled")
	}
	var dec DecisionsResponse
	getJSON(t, ts.URL+"/debug/decisions", &dec)
	if dec.Enabled || dec.Capacity != 0 || dec.Recorded != 0 || len(dec.Decisions) != 0 {
		t.Errorf("disabled ring leaked state: %+v", dec)
	}
}

// TestDeleteProfile: eviction over the API frees the name, answers 404 on a
// second delete, and shows up in the eviction counter and profile gauge.
func TestDeleteProfile(t *testing.T) {
	ts, _ := newTrainedServer(t, Config{})
	del := func() *http.Response {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/profiles/test", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := del(); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d, want 200", resp.StatusCode)
	}
	if resp := del(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete = %d, want 404", resp.StatusCode)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/detect",
		mustJSON(t, DetectRequest{Profile: "test", Routes: genSets(1, false, 5000)[0]}))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("detect after eviction = %d, want 404", resp.StatusCode)
	}
	text := scrape(t, ts.URL)
	for _, want := range []string{
		`samserve_profile_evictions_total{reason="delete"} 1`,
		"samserve_profiles 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestMetricsGoldenDetectExposition pins the Prometheus form of the detect
// histograms: after two scored route sets, the samserve_detect_pmax family
// must render exactly as cumulative le buckets, a +Inf bucket, _sum and
// _count — computed here from the very values the API reported.
func TestMetricsGoldenDetectExposition(t *testing.T) {
	ts, _ := newTrainedServer(t, Config{})
	var pmaxes []float64
	decisions := map[string]int{}
	for _, set := range [][][]int{genSets(1, false, 5000)[0], genSets(1, true, 6000)[0]} {
		_, body := postJSON(t, ts.URL+"/v1/detect",
			mustJSON(t, DetectRequest{Profile: "test", Routes: set, Explain: true}))
		var dr DetectResponse
		if err := json.Unmarshal(body, &dr); err != nil {
			t.Fatal(err)
		}
		pmaxes = append(pmaxes, dr.Explain.PMax)
		decisions[dr.Explain.Decision]++
	}

	var want strings.Builder
	want.WriteString("# HELP samserve_detect_pmax Observed p_max (max link relative frequency) per scored route set.\n")
	want.WriteString("# TYPE samserve_detect_pmax histogram\n")
	sum := 0.0
	for _, p := range pmaxes {
		sum += p
	}
	for _, bound := range obs.RatioBuckets {
		cum := 0
		for _, p := range pmaxes {
			if p <= bound {
				cum++
			}
		}
		fmt.Fprintf(&want, "samserve_detect_pmax_bucket{le=\"%g\"} %d\n", bound, cum)
	}
	fmt.Fprintf(&want, "samserve_detect_pmax_bucket{le=\"+Inf\"} %d\n", len(pmaxes))
	fmt.Fprintf(&want, "samserve_detect_pmax_sum %g\n", sum)
	fmt.Fprintf(&want, "samserve_detect_pmax_count %d\n", len(pmaxes))

	text := scrape(t, ts.URL)
	if got := familyBlock(text, "samserve_detect_pmax"); got != want.String() {
		t.Errorf("samserve_detect_pmax family:\n%s--- want ---\n%s", got, want.String())
	}
	for decision, n := range decisions {
		line := fmt.Sprintf("samserve_detections_total{decision=%q} %d", decision, n)
		if !strings.Contains(text, line) {
			t.Errorf("metrics exposition missing %q", line)
		}
	}
}

// TestDetectTelemetryOffZeroAlloc is the hard constraint from the telemetry
// design: with decision capture disabled, the full per-verdict telemetry path
// (histograms, counters, ring check) adds zero allocations over scoring
// alone.
func TestDetectTelemetryOffZeroAlloc(t *testing.T) {
	svc := New(Config{DecisionBuffer: -1})
	defer svc.Close()
	sets, err := decodeRouteSets(genSets(20, false, 1000))
	if err != nil {
		t.Fatal(err)
	}
	e := svc.store.getOrCreate("test")
	if _, err := e.train(sets); err != nil {
		t.Fatal(err)
	}
	routes, err := decodeRoutes(genSets(1, true, 6000)[0])
	if err != nil {
		t.Fatal(err)
	}
	st := sam.Analyze(routes)

	base := testing.AllocsPerRun(500, func() {
		if _, err := e.score(st, false); err != nil {
			t.Fatal(err)
		}
	})
	withTelemetry := testing.AllocsPerRun(500, func() {
		v, err := e.score(st, false)
		if err != nil {
			t.Fatal(err)
		}
		svc.observe("test", v, false, "")
	})
	if withTelemetry != base {
		t.Errorf("disabled telemetry costs %.1f allocs/op over the %.1f baseline, want 0 extra",
			withTelemetry-base, base)
	}
}

// BenchmarkDetectNoTelemetry measures the scoring hot path with capture off —
// the steady-state cost a production deployment pays per route set.
func BenchmarkDetectNoTelemetry(b *testing.B) {
	svc := New(Config{DecisionBuffer: -1})
	defer svc.Close()
	sets, err := decodeRouteSets(genSets(20, false, 1000))
	if err != nil {
		b.Fatal(err)
	}
	e := svc.store.getOrCreate("test")
	if _, err := e.train(sets); err != nil {
		b.Fatal(err)
	}
	routes, err := decodeRoutes(genSets(1, true, 6000)[0])
	if err != nil {
		b.Fatal(err)
	}
	st := sam.Analyze(routes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := e.score(st, false)
		if err != nil {
			b.Fatal(err)
		}
		svc.observe("test", v, false, "")
	}
}

// TestStreamExplainMatchesDetect pins the one detect core: an explain line on
// /v1/detect/stream answers exactly the bytes /v1/detect answers for the same
// request, decision record included. Each endpoint gets a fresh service over
// the same loaded profile, and updates are frozen, so both score from the
// same state.
func TestStreamExplainMatchesDetect(t *testing.T) {
	p := benchProfile(t, "explain", 8000)
	serve := func(svc *Service, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	detectSvc, streamSvc := New(Config{}), New(Config{})
	for _, svc := range []*Service{detectSvc, streamSvc} {
		t.Cleanup(svc.Close)
		if err := svc.LoadProfile("explain", p); err != nil {
			t.Fatal(err)
		}
	}

	off := false
	var lines []string
	var want bytes.Buffer
	for _, routes := range [][][]int{genSets(1, true, 6000)[0], genSets(1, false, 6100)[0], genSets(1, true, 6200)[0]} {
		line := mustJSON(t, DetectRequest{Profile: "explain", Routes: routes, Update: &off, Explain: true})
		rec := serve(detectSvc, "/v1/detect", line)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"explain":{`) {
			t.Fatalf("detect: %d %s", rec.Code, rec.Body)
		}
		want.Write(rec.Body.Bytes())
		lines = append(lines, line)
	}
	got := serve(streamSvc, "/v1/detect/stream", strings.Join(lines, "\n")+"\n")
	if got.Code != http.StatusOK {
		t.Fatalf("stream: %d %s", got.Code, got.Body)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Bytes()) {
		t.Errorf("stream explain lines differ from /v1/detect:\nstream: %s\ndetect: %s", got.Body, want.Bytes())
	}
}
