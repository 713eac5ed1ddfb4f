package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDGeneration(t *testing.T) {
	seen := map[TraceID]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("NewTraceID returned zero id")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %s after %d draws", id, i)
		}
		seen[id] = true
	}
	sp := NewSpanID()
	if sp.IsZero() {
		t.Fatal("NewSpanID returned zero id")
	}
	if got := len(NewTraceID().String()); got != 32 {
		t.Fatalf("trace id hex length = %d, want 32", got)
	}
	if got := len(sp.String()); got != 16 {
		t.Fatalf("span id hex length = %d, want 16", got)
	}
}

func TestFormatParseTraceparentRoundTrip(t *testing.T) {
	tr, sp := NewTraceID(), NewSpanID()
	h := FormatTraceparent(tr, sp)
	if len(h) != 55 {
		t.Fatalf("traceparent length = %d, want 55: %q", len(h), h)
	}
	if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent framing wrong: %q", h)
	}
	gt, gs, ok := ParseTraceparent(h)
	if !ok || gt != tr || gs != sp {
		t.Fatalf("round trip failed: %q -> %v %v %v", h, gt, gs, ok)
	}
}

func TestParseTraceparentStrict(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		in string
		ok bool
	}{
		{valid, true},
		// Uppercase hex accepted on parse.
		{"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01", true},
		// Future version may carry a dash-prefixed tail.
		{"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", true},
		// Version 00 must be exactly 55 bytes.
		{valid + "-extra", false},
		// Future version tail must start with a dash.
		{"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01extra", false},
		// Version ff is forbidden.
		{"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		// Zero trace / span ids are invalid.
		{"00-00000000000000000000000000000000-00f067aa0ba902b7-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", false},
		// Structural garbage.
		{"", false},
		{"00", false},
		{"004bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e473x-00f067aa0ba902b7-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902bx-01", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0x", false},
		{"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
	}
	for _, c := range cases {
		_, _, ok := ParseTraceparent(c.in)
		if ok != c.ok {
			t.Errorf("ParseTraceparent(%q) ok = %v, want %v", c.in, ok, c.ok)
		}
	}
}

func TestSpanContextHexAliasesHeader(t *testing.T) {
	tr := NewTracer(8, 0)
	span := tr.Start("detect", SpanContext{})
	sc := span.Context()
	if !sc.Valid() {
		t.Fatal("started span context invalid")
	}
	h := sc.Traceparent()
	if h[3:35] != sc.TraceHex() || h[36:52] != sc.SpanHex() {
		t.Fatalf("hex views disagree with header: %q vs %q/%q", h, sc.TraceHex(), sc.SpanHex())
	}
	if sc.TraceHex() != sc.traceID.String() || sc.SpanHex() != sc.spanID.String() {
		t.Fatal("hex views disagree with binary ids")
	}
	// A parsed (remote) context has no header but still renders hex.
	pt, ps, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	remote := SpanContext{traceID: pt, spanID: ps}
	if remote.TraceHex() != "4bf92f3577b34da6a3ce929d0e0e4736" || remote.SpanHex() != "00f067aa0ba902b7" {
		t.Fatalf("remote hex views wrong: %q %q", remote.TraceHex(), remote.SpanHex())
	}
	if remote.Traceparent() != "" {
		t.Fatal("remote context should not carry a propagation header")
	}
}

func TestParentFromRequest(t *testing.T) {
	r := httptest.NewRequest("POST", "/v1/detect", nil)
	if p := ParentFromRequest(r); p.Valid() {
		t.Fatal("no header should yield invalid parent")
	}
	r.Header.Set("Traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	p := ParentFromRequest(r)
	if !p.Valid() || p.TraceHex() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("parent not extracted: %+v", p)
	}
	r.Header.Set("Traceparent", "garbage")
	if p := ParentFromRequest(r); p.Valid() {
		t.Fatal("garbage header should yield invalid parent")
	}
}

func TestContextSpanRoundTrip(t *testing.T) {
	if _, ok := SpanFromContext(context.Background()); ok {
		t.Fatal("empty context should have no span")
	}
	tr := NewTracer(4, 0)
	span := tr.Start("x", SpanContext{})
	ctx := ContextWithSpan(context.Background(), span.Context())
	got, ok := SpanFromContext(ctx)
	if !ok || got != span.Context() {
		t.Fatalf("context round trip failed: %+v %v", got, ok)
	}
}

func TestTracerParentChild(t *testing.T) {
	tr := NewTracer(8, 0)
	root := tr.Start("gateway", SpanContext{})
	child := tr.Start("replica", root.Context())
	if child.Context().TraceHex() != root.Context().TraceHex() {
		t.Fatal("child should continue parent trace")
	}
	if child.Context().SpanHex() == root.Context().SpanHex() {
		t.Fatal("child must get a fresh span id")
	}
	tr.Finish(child, 200)
	tr.Finish(root, 200)
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Finished in child, root order.
	if spans[0].Name != "replica" || spans[1].Name != "gateway" {
		t.Fatalf("span order wrong: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != root.Context().SpanHex() {
		t.Fatalf("child parent = %q, want %q", spans[0].Parent, root.Context().SpanHex())
	}
	if spans[1].Parent != "" {
		t.Fatalf("root parent = %q, want empty", spans[1].Parent)
	}
	if spans[0].Status != 200 {
		t.Fatalf("status = %d, want 200", spans[0].Status)
	}
}

// TestTracerDisabledAndNil: a nil tracer is the one disabled tracer.
func TestTracerDisabledAndNil(t *testing.T) {
	var nilT *Tracer
	if nilT.Enabled() {
		t.Fatal("nil tracer should report tracing off")
	}
	span := nilT.Start("x", SpanContext{})
	if span.Context().Valid() {
		t.Fatal("nil tracer's Start should return an inert span")
	}
	nilT.Finish(span, 200)
	if nilT.Snapshot() != nil || nilT.SnapshotSlow() != nil || nilT.Cap() != 0 || nilT.Recorded() != 0 {
		t.Fatal("nil tracer should report empty")
	}
}

func TestNewTracerRejectsZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("size 0 should panic")
		}
	}()
	NewTracer(0, 0)
}

func TestTracerSlowCapture(t *testing.T) {
	tr := NewTracer(8, time.Nanosecond) // everything is slow
	tr.Finish(tr.Start("slowop", SpanContext{}), 200)
	slow := tr.SnapshotSlow()
	if len(slow) != 1 || !slow[0].Slow || slow[0].Name != "slowop" {
		t.Fatalf("slow capture failed: %+v", slow)
	}
	recent := tr.Snapshot()
	if len(recent) != 1 || !recent[0].Slow {
		t.Fatal("slow span should appear marked in recent ring too")
	}

	// Threshold 0 disables slow capture entirely.
	tr2 := NewTracer(8, 0)
	tr2.Finish(tr2.Start("op", SpanContext{}), 200)
	if len(tr2.SnapshotSlow()) != 0 {
		t.Fatal("zero threshold must not capture slow spans")
	}
	if tr2.Snapshot()[0].Slow {
		t.Fatal("span should not be marked slow with capture off")
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4, 0)
	for i := 0; i < 10; i++ {
		tr.Finish(tr.Start("op", SpanContext{}), 200)
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := uint64(7 + i); sp.Seq != want {
			t.Fatalf("spans[%d].Seq = %d, want %d", i, sp.Seq, want)
		}
	}
	if tr.Recorded() != 10 {
		t.Fatalf("Recorded = %d, want 10", tr.Recorded())
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64, time.Nanosecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root := tr.Start("root", SpanContext{})
				tr.Finish(tr.Start("child", root.Context()), 200)
				tr.Finish(root, 200)
				tr.Snapshot()
				tr.SnapshotSlow()
			}
		}()
	}
	wg.Wait()
	if tr.Recorded() != 8*200*2 {
		t.Fatalf("Recorded = %d, want %d", tr.Recorded(), 8*200*2)
	}
	spans := tr.Snapshot()
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq <= spans[i-1].Seq {
			t.Fatal("snapshot not ordered by seq")
		}
	}
}

func TestTracerHandler(t *testing.T) {
	tr := NewTracer(8, 0)
	root := tr.Start("gateway", SpanContext{})
	tr.Finish(tr.Start("replica", root.Context()), 200)
	tr.Finish(root, 200)
	other := tr.Start("other", SpanContext{})
	tr.Finish(other, 500)

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var resp TracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad json: %v", err)
	}
	if !resp.Enabled || resp.Capacity != 8 || resp.Recorded != 3 || len(resp.Spans) != 3 {
		t.Fatalf("unexpected response: %+v", resp)
	}

	// Trace filter narrows to one trace.
	rec = httptest.NewRecorder()
	url := "/debug/traces?trace=" + root.Context().TraceHex()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad json: %v", err)
	}
	if len(resp.Spans) != 2 {
		t.Fatalf("filtered spans = %d, want 2", len(resp.Spans))
	}
	for _, sp := range resp.Spans {
		if sp.TraceID != root.Context().TraceHex() {
			t.Fatalf("filter leaked foreign trace: %+v", sp)
		}
	}

	// Nil tracer serves a disabled document rather than panicking.
	var nilT *Tracer
	rec = httptest.NewRecorder()
	nilT.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad json: %v", err)
	}
	if resp.Enabled || resp.Capacity != 0 || len(resp.Spans) != 0 {
		t.Fatalf("nil tracer response: %+v", resp)
	}
}

func TestStartAllocsWhenDisabled(t *testing.T) {
	var nilT *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		span := nilT.Start("op", SpanContext{})
		nilT.Finish(span, 200)
	})
	if allocs != 0 {
		t.Fatalf("nil Start/Finish allocs = %v, want 0", allocs)
	}
}

func TestParentFromRequestNoAlloc(t *testing.T) {
	r := httptest.NewRequest("POST", "/v1/detect", nil)
	allocs := testing.AllocsPerRun(100, func() {
		if ParentFromRequest(r).Valid() {
			t.Fatal("unexpected valid parent")
		}
	})
	if allocs != 0 {
		t.Fatalf("ParentFromRequest miss allocs = %v, want 0", allocs)
	}
}

// nopWriter is a ResponseWriter that allocates nothing per request.
type nopWriter struct{ h http.Header }

func (w nopWriter) Header() http.Header         { return w.h }
func (w nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w nopWriter) WriteHeader(int)             {}

// TestServeZeroAllocWhenTracingOff pins the traced-request wrapper's cost with
// tracing off: a nil tracer takes one branch, and the pooled StatusWriter
// allocates nothing per request.
func TestServeZeroAllocWhenTracingOff(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of Puts under the race detector, so pooled-path allocation counts are meaningless")
	}
	var tr *Tracer
	w := nopWriter{h: http.Header{}}
	r := httptest.NewRequest("POST", "/v1/detect", nil)
	h := func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusAccepted) }
	allocs := testing.AllocsPerRun(100, func() {
		if got := tr.Serve("detect", w, r, h); got != http.StatusAccepted {
			t.Fatalf("nil tracer: Serve = %d, want 202", got)
		}
	})
	if allocs != 0 {
		t.Errorf("nil tracer: Serve allocs = %v, want 0", allocs)
	}
	if len(w.h) != 0 {
		t.Errorf("nil tracer: response headers %v, want none", w.h)
	}
}

// TestServeConcurrent drives Serve from several goroutines with tracing on:
// every request sees its own pooled StatusWriter over its own response, the
// span context and the Traceparent echo, and every returned status and span
// status is the one its handler answered, whether it wrote a header, wrote
// two, or only copied a body in. Run it under -race.
func TestServeConcurrent(t *testing.T) {
	const workers, reqs = 8, 200
	tr := NewTracer(workers*reqs, 0)
	statuses := []int{http.StatusOK, http.StatusCreated, http.StatusNotFound, http.StatusConflict,
		http.StatusTooManyRequests, http.StatusInternalServerError, http.StatusBadGateway, http.StatusTeapot}
	names := []string{"g0", "g1", "g2", "g3", "g4", "g5", "g6", "g7"}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := statuses[g]
			for i := 0; i < reqs; i++ {
				rec := httptest.NewRecorder()
				got := tr.Serve(names[g], rec, httptest.NewRequest("GET", "/", nil), func(w http.ResponseWriter, r *http.Request) {
					sw, ok := w.(*StatusWriter)
					if !ok || sw.Unwrap() != rec {
						t.Errorf("handler writer %T does not wrap its own response", w)
						return
					}
					if _, ok := SpanFromContext(r.Context()); !ok {
						t.Error("handler request carries no span context")
					}
					if want == http.StatusOK {
						io.Copy(w, strings.NewReader("x")) // no WriteHeader: a body alone is a 200
						return
					}
					w.WriteHeader(want)
					w.WriteHeader(http.StatusOK) // ignored by net/http; the first status wins
					w.Write([]byte("x"))
				})
				if got != want || rec.Code != want {
					t.Errorf("worker %d: Serve = %d, recorder %d, want %d", g, got, rec.Code, want)
				}
				if _, _, ok := ParseTraceparent(rec.Header().Get("Traceparent")); !ok {
					t.Errorf("worker %d: no traceparent echo in %v", g, rec.Header())
				}
			}
		}()
	}
	wg.Wait()
	spans := tr.Snapshot()
	if len(spans) != workers*reqs {
		t.Fatalf("recorded %d spans, want %d", len(spans), workers*reqs)
	}
	for _, sp := range spans {
		if want := statuses[sp.Name[1]-'0']; sp.Status != want {
			t.Fatalf("span %s status %d, want %d", sp.Name, sp.Status, want)
		}
	}
}
