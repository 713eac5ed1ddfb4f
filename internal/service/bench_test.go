package service

// Serving-path benchmarks: the perf baseline for the detection service.
// They exercise the full handler stack (mux dispatch, instrumentation, body
// read, wire decode, analysis, locked scoring, wire encode) without real
// sockets, so the numbers isolate service cost from kernel networking.
//
// The request and response writer are reused across iterations — httptest's
// per-iteration NewRequest/NewRecorder used to contribute ~15 allocs/op of
// pure harness noise, which would mask the serving path's own allocation
// behaviour (TestServiceDetectAllocs fails the same path above 9 allocs).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchHandler returns the handler of a service trained on 20 normal
// cluster discoveries, plus a marshalled detect body for the given batch
// size (0 = single-detect request).
func benchHandler(b testing.TB, cfg Config, batch int) (http.Handler, []byte, string) {
	b.Helper()
	svc := New(cfg)
	b.Cleanup(svc.Close)
	mux := svc.Handler()

	trainBody, err := json.Marshal(TrainRequest{RouteSets: genSets(20, false, 1000)})
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/profiles/bench/train", bytes.NewReader(trainBody))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("train: %d %s", rec.Code, rec.Body)
	}

	set := genSets(1, true, 5000)[0]
	if batch == 0 {
		body, err := json.Marshal(DetectRequest{Profile: "bench", Routes: set})
		if err != nil {
			b.Fatal(err)
		}
		return mux, body, "/v1/detect"
	}
	items := make([][][]int, batch)
	for i := range items {
		items[i] = set
	}
	body, err := json.Marshal(BatchDetectRequest{Profile: "bench", Items: items})
	if err != nil {
		b.Fatal(err)
	}
	return mux, body, "/v1/detect/batch"
}

// rewindBody adapts a rewindable bytes.Reader as a request body.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// discardWriter is a reusable ResponseWriter that drops the body.
type discardWriter struct {
	h      http.Header
	status int
	bytes  int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) {
	w.bytes += len(b)
	return len(b), nil
}
func (w *discardWriter) WriteHeader(code int) { w.status = code }

// benchRequest builds one reusable request/writer pair for path and body.
func benchRequest(path string, body []byte) (*http.Request, *bytes.Reader, *discardWriter) {
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", path, nil)
	req.Body = rewindBody{rd}
	req.ContentLength = int64(len(body))
	return req, rd, &discardWriter{h: make(http.Header)}
}

// TestServiceDetectAllocs pins BenchmarkServiceDetect's request path — one
// /v1/detect through the full handler stack — at single-digit allocations
// (≤ 9): the detect path is pooled end to end (DESIGN.md §12), so a stray
// per-request allocation is a regression even when every other test passes.
func TestServiceDetectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of Puts under the race detector, so pooled-path allocation counts are meaningless")
	}
	mux, body, path := benchHandler(t, Config{}, 0)
	req, rd, w := benchRequest(path, body)
	serve := func() {
		rd.Reset(body)
		w.status = 0
		mux.ServeHTTP(w, req)
	}
	serve()
	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
	if got := testing.AllocsPerRun(200, serve); got > 9 {
		t.Errorf("detect allocates %.1f times per request, want <= 9", got)
	}
}

// BenchmarkServiceDetect measures one /v1/detect request through the full
// handler stack; TestServiceDetectAllocs gates its allocations.
func BenchmarkServiceDetect(b *testing.B) {
	mux, body, path := benchHandler(b, Config{}, 0)
	req, rd, w := benchRequest(path, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		w.status = 0
		mux.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// trainSets is the route-set count of the benchmarked training request, the
// same count a profile's training write carries in the serving benchmark.
const trainSets = 30

// benchTrain returns the handler of an empty service plus a marshalled
// training request of trainSets normal cluster discoveries.
func benchTrain(b testing.TB) (http.Handler, []byte) {
	b.Helper()
	svc := New(Config{})
	b.Cleanup(svc.Close)
	body, err := json.Marshal(TrainRequest{RouteSets: genSets(trainSets, false, 1000)})
	if err != nil {
		b.Fatal(err)
	}
	return svc.Handler(), body
}

// TestServiceTrainAllocs pins BenchmarkServiceTrain's request path — a warm
// POST /v1/profiles/{name}/train of 30 route sets through the full handler
// stack — at 37 allocations. The body decodes into pooled scratch (DESIGN.md
// §8), so what is left is one per set (its Stats' ByLink) plus the profile
// and detector rebuild and the encoding/json response.
func TestServiceTrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of Puts under the race detector, so pooled-path allocation counts are meaningless")
	}
	mux, body := benchTrain(t)
	req, rd, w := benchRequest("/v1/profiles/bench/train", body)
	serve := func() {
		rd.Reset(body)
		w.status = 0
		mux.ServeHTTP(w, req)
	}
	serve()
	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
	if got := testing.AllocsPerRun(50, serve); got > 37 {
		t.Errorf("train allocates %.1f times per request, want <= 37", got)
	}
}

// BenchmarkServiceTrain measures one 30-set training write through the full
// handler stack; TestServiceTrainAllocs gates its allocations.
func BenchmarkServiceTrain(b *testing.B) {
	mux, body := benchTrain(b)
	req, rd, w := benchRequest("/v1/profiles/bench/train", body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		w.status = 0
		mux.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// BenchmarkServiceDetectParallel measures contended single-detect scoring:
// every request serializes on the same profile's mutex, the shape a hot
// production profile sees.
func BenchmarkServiceDetectParallel(b *testing.B) {
	mux, body, path := benchHandler(b, Config{}, 0)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req, rd, w := benchRequest(path, body)
		for pb.Next() {
			rd.Reset(body)
			w.status = 0
			mux.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				b.Fatalf("status %d", w.status)
			}
		}
	})
}

// BenchmarkServiceDetectBatch measures a 16-item /v1/detect/batch request:
// per-op cost includes fan-out over the worker pool and the barrier wait.
func BenchmarkServiceDetectBatch(b *testing.B) {
	mux, body, path := benchHandler(b, Config{QueueDepth: 1 << 16}, 16)
	req, rd, w := benchRequest(path, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		w.status = 0
		mux.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
	b.ReportMetric(float64(16*b.N)/b.Elapsed().Seconds(), "sets/s")
}

// BenchmarkServiceAnalyze measures the stateless analyze endpoint.
func BenchmarkServiceAnalyze(b *testing.B) {
	svc := New(Config{})
	b.Cleanup(svc.Close)
	mux := svc.Handler()
	body, err := json.Marshal(AnalyzeRequest{Routes: genSets(1, true, 5000)[0]})
	if err != nil {
		b.Fatal(err)
	}
	req, rd, w := benchRequest("/v1/analyze", body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		w.status = 0
		mux.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}
