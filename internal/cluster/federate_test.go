package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"samnet/internal/obs"
	"samnet/internal/service"
)

func TestInjectReplicaLabel(t *testing.T) {
	cases := []struct{ line, addr, want string }{
		{`up 1`, "http://a:1", `up{replica="http://a:1"} 1`},
		{`reqs_total{endpoint="detect"} 7`, "http://a:1",
			`reqs_total{replica="http://a:1",endpoint="detect"} 7`},
		{`lat_bucket{endpoint="detect",le="+Inf"} 3`, "http://b:2",
			`lat_bucket{replica="http://b:2",endpoint="detect",le="+Inf"} 3`},
		// Addresses with exposition metacharacters escape per 0.0.4.
		{`up 1`, `weird"addr\x`, `up{replica="weird\"addr\\x"} 1`},
		{`empty{} 0`, "r", `empty{replica="r"} 0`},
	}
	for _, c := range cases {
		if got := injectReplicaLabel(c.line, c.addr); got != c.want {
			t.Errorf("injectReplicaLabel(%q, %q):\n got %q\nwant %q", c.line, c.addr, got, c.want)
		}
	}
}

// TestMergeExpositions pins the federation merge semantics: HELP/TYPE once
// per family, families sorted, per-replica sample order preserved within a
// family, histogram suffix series grouped under their family, and failed
// scrapes surfaced as leading comments.
func TestMergeExpositions(t *testing.T) {
	r1 := "# HELP reqs_total Requests.\n# TYPE reqs_total counter\nreqs_total{endpoint=\"a\"} 1\nreqs_total{endpoint=\"b\"} 2\n" +
		"# TYPE lat histogram\nlat_bucket{le=\"+Inf\"} 4\nlat_sum 0.5\nlat_count 4\n"
	r2 := "# HELP reqs_total Requests.\n# TYPE reqs_total counter\nreqs_total{endpoint=\"a\"} 9\n" +
		"# TYPE alpha gauge\nalpha 3\n"
	got := string(mergeExpositions([]replicaScrape{
		{addr: "http://r1", body: []byte(r1)},
		{addr: "http://r2", body: []byte(r2)},
		{addr: "http://r3", err: errors.New("dial tcp: connection refused")},
	}))
	want := `# fleet: replica http://r3 unreachable: dial tcp: connection refused
# TYPE alpha gauge
alpha{replica="http://r2"} 3
# TYPE lat histogram
lat_bucket{replica="http://r1",le="+Inf"} 4
lat_sum{replica="http://r1"} 0.5
lat_count{replica="http://r1"} 4
# HELP reqs_total Requests.
# TYPE reqs_total counter
reqs_total{replica="http://r1",endpoint="a"} 1
reqs_total{replica="http://r1",endpoint="b"} 2
reqs_total{replica="http://r2",endpoint="a"} 9
`
	if got != want {
		t.Errorf("merged exposition:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestMergeExpositionsEdgeCases pins the merge rules the golden above does
// not reach: replicas that disagree on a family's HELP or TYPE (a rolling
// upgrade) keep the first replica's, a scrape error spanning lines stays one
// comment line, other comments do not federate, and CRLF line ends are
// trimmed.
func TestMergeExpositionsEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scrapes []replicaScrape
		want    string
	}{
		{"first HELP wins", []replicaScrape{
			{addr: "a", body: []byte("# HELP up Replica is up.\nup 1\n")},
			{addr: "b", body: []byte("# HELP up Up.\nup 1\n")},
		}, "# HELP up Replica is up.\nup{replica=\"a\"} 1\nup{replica=\"b\"} 1\n"},
		{"first TYPE wins", []replicaScrape{
			{addr: "a", body: []byte("# TYPE up gauge\nup 1\n")},
			{addr: "b", body: []byte("# TYPE up counter\nup 1\n")},
		}, "# TYPE up gauge\nup{replica=\"a\"} 1\nup{replica=\"b\"} 1\n"},
		{"multi-line scrape error", []replicaScrape{
			{addr: "a", err: errors.New("read tcp: reset\nby peer")},
		}, "# fleet: replica a unreachable: read tcp: reset by peer\n"},
		{"other comments", []replicaScrape{
			{addr: "a", body: []byte("# TYPE up gauge\nup 1\n# EOF\n")},
		}, "# TYPE up gauge\nup{replica=\"a\"} 1\n"},
		{"CRLF line ends", []replicaScrape{
			{addr: "a", body: []byte("# TYPE up gauge\r\nup 1\r\n")},
		}, "# TYPE up gauge\nup{replica=\"a\"} 1\n"},
	} {
		if got := string(mergeExpositions(tc.scrapes)); got != tc.want {
			t.Errorf("%s:\n got:\n%q\nwant:\n%q", tc.name, got, tc.want)
		}
	}
}

// TestMetricsFleetFailedScrapes pins the endpoint's failure rules: a replica
// the fleet still holds healthy but that does not answer is counted in
// samgate_fleet_scrape_errors_total and reported as a comment while the
// scrape answers 200, and a fleet with no healthy replica answers 503.
func TestMetricsFleetFailedScrapes(t *testing.T) {
	r1, r2 := newReplica(t), newReplica(t)
	g, ts := newTestGateway(t, r1.URL, r2.URL)
	r2.Close() // no health check has noticed yet

	resp, body := getRaw(t, ts.URL+"/metrics/fleet")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet scrape with one replica down: %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "# fleet: replica "+r2.URL+" unreachable: ") {
		t.Errorf("no comment for the unreachable replica:\n%s", body)
	}
	if got, want := [2]uint64{g.metrics.fleetScrapes.Value(), g.metrics.fleetScrapeErrs.Value()}, [2]uint64{1, 1}; got != want {
		t.Errorf("scrapes, scrape errors = %v, want %v", got, want)
	}

	r1.Close()
	g.fleet.CheckNow(t.Context())
	if resp, body := getRaw(t, ts.URL+"/metrics/fleet"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("fleet scrape with no healthy replica: %d: %s", resp.StatusCode, body)
	}
}

// TestMetricsFleetEndpoint federates two live replicas end to end and pins
// that both replica labels appear, each replica's samserve series carries its
// own address, and a downed replica degrades to a comment instead of a 5xx.
func TestMetricsFleetEndpoint(t *testing.T) {
	r1, r2 := newReplica(t), newReplica(t)
	g, ts := newTestGateway(t, r1.URL, r2.URL)
	trainDirect(t, r1.URL, "p1")

	resp, err := http.Get(ts.URL + "/metrics/fleet")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet scrape: %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "0.0.4") {
		t.Errorf("content type %q", ct)
	}
	text := string(body)
	for _, addr := range []string{r1.URL, r2.URL} {
		if !strings.Contains(text, `replica="`+addr+`"`) {
			t.Errorf("federated exposition missing replica label for %s", addr)
		}
	}
	if strings.Count(text, "# TYPE samserve_uptime_seconds gauge") != 1 {
		t.Error("TYPE must appear once per family across replicas")
	}

	// Down one replica: the scrape still answers 200, with a fleet comment.
	r2.Close()
	g.fleet.CheckNow(t.Context())
	resp2, err := http.Get(ts.URL + "/metrics/fleet")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("degraded fleet scrape: %d", resp2.StatusCode)
	}
	if strings.Contains(string(body2), `replica="`+r2.URL+`"`) &&
		!strings.Contains(string(body2), "# fleet: replica "+r2.URL) {
		t.Error("downed replica neither skipped nor commented")
	}
}

// TestGatewayTracePropagation is the acceptance pin for the tentpole: one
// detect through a traced gateway over traced replicas yields one trace id
// visible in the gateway's and the scoring replica's /debug/traces, with the
// replica's span parented to the gateway's span.
func TestGatewayTracePropagation(t *testing.T) {
	replicaTracer := obs.NewTracer(64, 0)
	svc := service.New(service.Config{Tracer: replicaTracer})
	replica := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		replica.Close()
		svc.Close()
	})
	trainDirect(t, replica.URL, "traced")

	gwTracer := obs.NewTracer(64, 0)
	g, err := NewGateway(GatewayConfig{
		Replicas: []string{replica.URL}, HealthInterval: -1, Tracer: gwTracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		ts.Close()
		g.Close()
	})

	body := mustMarshal(t, service.DetectRequest{Profile: "traced", Routes: genSets(1, true, 5000)[0]})
	req, err := http.NewRequest("POST", ts.URL+"/v1/detect", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	const clientTP = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req.Header.Set("Traceparent", clientTP)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect via gateway: %s", resp.Status)
	}

	// Gateway span: continues the client trace, parented to the client span.
	var gwSpan *obs.Span
	for _, sp := range gwTracer.Snapshot() {
		if sp.Name == "detect" && sp.TraceID == traceID {
			gwSpan = &sp
			break
		}
	}
	if gwSpan == nil {
		t.Fatalf("no gateway detect span for trace %s: %+v", traceID, gwTracer.Snapshot())
	}
	if gwSpan.Parent != "00f067aa0ba902b7" {
		t.Fatalf("gateway span parent = %q, want client span", gwSpan.Parent)
	}

	// Replica span: same trace, parented to the gateway span.
	var repSpan *obs.Span
	for _, sp := range replicaTracer.Snapshot() {
		if sp.Name == "detect" && sp.TraceID == traceID {
			repSpan = &sp
			break
		}
	}
	if repSpan == nil {
		t.Fatalf("no replica detect span for trace %s: %+v", traceID, replicaTracer.Snapshot())
	}
	if repSpan.Parent != gwSpan.SpanID {
		t.Fatalf("replica span parent = %q, want gateway span %q", repSpan.Parent, gwSpan.SpanID)
	}

	// Both /debug/traces surfaces answer for the trace id.
	for _, url := range []string{ts.URL, replica.URL} {
		dbg, err := http.Get(url + "/debug/traces?trace=" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		var tr obs.TracesResponse
		err = json.NewDecoder(dbg.Body).Decode(&tr)
		dbg.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Spans) == 0 {
			t.Errorf("%s/debug/traces has no spans for trace %s", url, traceID)
		}
	}

	// Per-replica attribution: the detect landed in the replica's series.
	if g.replicaReqs[replica.URL].Value() == 0 {
		t.Error("per-replica request counter did not move")
	}
	if g.replicaLat[replica.URL].Count() == 0 {
		t.Error("per-replica latency histogram did not move")
	}
}

// TestGatewayResponseBytesIdenticalWithTracing extends the byte-transparency
// pin across the gateway: the same detect answers identical bodies through a
// traced and an untraced gateway/replica stack.
func TestGatewayResponseBytesIdenticalWithTracing(t *testing.T) {
	buildStack := func(tracer bool) string {
		var svcCfg service.Config
		var gwCfg GatewayConfig
		if tracer {
			svcCfg.Tracer = obs.NewTracer(64, 0)
			gwCfg.Tracer = obs.NewTracer(64, 0)
		}
		svc := service.New(svcCfg)
		replica := httptest.NewServer(svc.Handler())
		gwCfg.Replicas = []string{replica.URL}
		gwCfg.HealthInterval = -1
		g, err := NewGateway(gwCfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(g.Handler())
		t.Cleanup(func() {
			ts.Close()
			g.Close()
			replica.Close()
			svc.Close()
		})
		trainDirect(t, replica.URL, "p")
		return ts.URL
	}
	off, on := buildStack(false), buildStack(true)
	for _, body := range []string{
		mustMarshal(t, service.DetectRequest{Profile: "p", Routes: genSets(1, true, 5000)[0]}),
		`{"profile":"p","routes":` + mustMarshal(t, genSets(1, false, 6000)[0]) + `,"explain":true}`,
	} {
		respOff, blobOff := postRaw(t, off+"/v1/detect", body)
		respOn, blobOn := postRaw(t, on+"/v1/detect", body)
		if respOff.StatusCode != respOn.StatusCode || string(blobOff) != string(blobOn) {
			t.Errorf("gateway responses differ with tracing:\noff %d: %s\non  %d: %s",
				respOff.StatusCode, blobOff, respOn.StatusCode, blobOn)
		}
	}
}
