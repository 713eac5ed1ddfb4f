package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"samnet/internal/obs"
)

const testTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
const testTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"

// TestDetectTracePropagation pins the single-process trace contract: a
// traced detect continues the caller's trace, parents its span under the
// caller's span id, echoes the continuation header in the response, surfaces
// the span on /debug/traces, and stamps the trace id on the ring-side
// decision record.
func TestDetectTracePropagation(t *testing.T) {
	tracer := obs.NewTracer(64, 0)
	ts, svc := newTrainedServer(t, Config{Tracer: tracer})
	body := mustJSON(t, DetectRequest{Profile: "test", Routes: genSets(1, true, 5000)[0]})

	req, err := http.NewRequest("POST", ts.URL+"/v1/detect", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Traceparent", testTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: %s", resp.Status)
	}

	// The response announces the server span, continuing the client's trace.
	echo := resp.Header.Get("Traceparent")
	et, es, ok := obs.ParseTraceparent(echo)
	if !ok {
		t.Fatalf("response traceparent unparseable: %q", echo)
	}
	if et.String() != testTraceID {
		t.Fatalf("response trace = %s, want %s", et, testTraceID)
	}

	var detectSpan *obs.Span
	for _, sp := range tracer.Snapshot() {
		if sp.Name == "detect" && sp.TraceID == testTraceID {
			detectSpan = &sp
			break
		}
	}
	if detectSpan == nil {
		t.Fatalf("no detect span for trace %s in %+v", testTraceID, tracer.Snapshot())
	}
	if detectSpan.Parent != "00f067aa0ba902b7" {
		t.Fatalf("detect span parent = %q, want client span id", detectSpan.Parent)
	}
	if detectSpan.SpanID != es.String() {
		t.Fatalf("span id %q does not match response header %q", detectSpan.SpanID, es)
	}
	if detectSpan.Status != http.StatusOK || detectSpan.DurationNS <= 0 {
		t.Fatalf("span not finished properly: %+v", detectSpan)
	}

	// The decision ring links the verdict to the trace...
	decisions := svc.decisions.Snapshot()
	if len(decisions) == 0 || decisions[len(decisions)-1].TraceID != testTraceID {
		t.Fatalf("decision record missing trace id: %+v", decisions)
	}

	// ...and /debug/traces?trace= filters to it.
	dbg, err := http.Get(ts.URL + "/debug/traces?trace=" + testTraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Body.Close()
	var tresp obs.TracesResponse
	if err := json.NewDecoder(dbg.Body).Decode(&tresp); err != nil {
		t.Fatal(err)
	}
	if !tresp.Enabled || len(tresp.Spans) == 0 {
		t.Fatalf("debug traces empty: %+v", tresp)
	}
	for _, sp := range tresp.Spans {
		if sp.TraceID != testTraceID {
			t.Fatalf("filter leaked span %+v", sp)
		}
	}
}

// TestDetectResponseBytesIdenticalWithTracing pins the hard constraint from
// PRs 2–7 carried into tracing: response bodies are bitwise identical with
// tracing on or off, for plain, explain, and batch detect. Only headers may
// differ (the traceparent echo).
func TestDetectResponseBytesIdenticalWithTracing(t *testing.T) {
	tsOff, _ := newTrainedServer(t, Config{})
	tsOn, _ := newTrainedServer(t, Config{Tracer: obs.NewTracer(64, time.Nanosecond)})

	attacked := genSets(1, true, 5000)[0]
	bodies := []string{
		mustJSON(t, DetectRequest{Profile: "test", Routes: attacked}),
		`{"profile":"test","routes":` + mustJSON(t, attacked) + `,"explain":true}`,
		`{"profile":"test","route_sets":[` + mustJSON(t, attacked) + `,` + mustJSON(t, attacked) + `]}`,
		`{"profile":"nosuch","routes":` + mustJSON(t, attacked) + `}`,
	}
	paths := []string{"/v1/detect", "/v1/detect", "/v1/detect/batch", "/v1/detect"}
	for i, body := range bodies {
		respOff, gotOff := postJSON(t, tsOff.URL+paths[i], body)
		respOn, gotOn := postJSON(t, tsOn.URL+paths[i], body)
		if respOff.StatusCode != respOn.StatusCode {
			t.Errorf("case %d: status %d (off) vs %d (on)", i, respOff.StatusCode, respOn.StatusCode)
		}
		if !bytes.Equal(gotOff, gotOn) {
			t.Errorf("case %d: bodies differ with tracing:\noff: %s\non:  %s", i, gotOff, gotOn)
		}
		if i < 2 && respOn.Header.Get("Traceparent") == "" {
			t.Errorf("case %d: traced response missing traceparent echo", i)
		}
	}
}

// TestStreamPerLineSpans pins the pipeline contract: each scored stream line
// gets its own child span under the stream request's span, all in one trace.
func TestStreamPerLineSpans(t *testing.T) {
	tracer := obs.NewTracer(64, 0)
	ts, _ := newTrainedServer(t, Config{Tracer: tracer})
	line := mustJSON(t, DetectRequest{Profile: "test", Routes: genSets(1, false, 7000)[0]})
	input := line + "\n" + line + "\n" + line + "\n"

	req, err := http.NewRequest("POST", ts.URL+"/v1/detect/stream", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("Traceparent", testTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := 0
	scan := bufio.NewScanner(resp.Body)
	for scan.Scan() {
		if strings.Contains(scan.Text(), `"error"`) {
			t.Fatalf("stream error line: %s", scan.Text())
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("got %d response lines, want 3", lines)
	}

	var streamSpan string
	var lineSpans []obs.Span
	for _, sp := range tracer.Snapshot() {
		switch sp.Name {
		case "detect_stream":
			streamSpan = sp.SpanID
		case "detect_stream_line":
			lineSpans = append(lineSpans, sp)
		}
	}
	if streamSpan == "" {
		t.Fatalf("no stream request span in %+v", tracer.Snapshot())
	}
	if len(lineSpans) != 3 {
		t.Fatalf("got %d line spans, want 3", len(lineSpans))
	}
	for _, sp := range lineSpans {
		if sp.TraceID != testTraceID {
			t.Errorf("line span in foreign trace: %+v", sp)
		}
		if sp.Parent != streamSpan {
			t.Errorf("line span parent = %q, want stream span %q", sp.Parent, streamSpan)
		}
	}
}

// TestDetectTracingDisabledZeroAlloc extends the zero-alloc pin to a service
// built without a tracer, the one way tracing is off: the tracing branch must
// cost its nil check and nothing else.
func TestDetectTracingDisabledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of Puts under the race detector, so pooled-path allocation counts are meaningless")
	}
	svc := New(Config{DecisionBuffer: -1})
	t.Cleanup(svc.Close)
	mux := svc.Handler()

	trainBody, err := json.Marshal(TrainRequest{RouteSets: genSets(20, false, 1000)})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/profiles/zero/train", bytes.NewReader(trainBody)))
	if rec.Code != http.StatusOK {
		t.Fatalf("train: %d %s", rec.Code, rec.Body)
	}
	body, err := json.Marshal(DetectRequest{Profile: "zero", Routes: genSets(1, true, 5000)[0]})
	if err != nil {
		t.Fatal(err)
	}
	req, rd, w := benchRequest("/v1/detect", body)
	for i := 0; i < 8; i++ {
		rd.Reset(body)
		w.status = 0
		mux.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	if got := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		w.status = 0
		mux.ServeHTTP(w, req)
	}); got > 2 {
		t.Errorf("detect with a nil tracer allocates %.1f times per op, want <= 2", got)
	}
}
