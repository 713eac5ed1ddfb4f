package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// fuzzService is shared by the fuzz targets: one instance with a trained
// profile, so the detect path past decoding is reachable too.
func fuzzService(f *testing.F) http.Handler {
	svc := New(Config{Workers: 2, QueueDepth: 64})
	f.Cleanup(svc.Close)
	mux := svc.Handler()
	// Train over the API so "p" is a live profile for detect fuzzing.
	body := `{"route_sets":[[[0,1,2],[0,3,2],[0,4,2]],[[0,1,2],[0,3,2]],[[0,1,5,2],[0,3,2]]]}`
	req := httptest.NewRequest("POST", "/v1/profiles/p/train", strings.NewReader(body))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		f.Fatalf("seed training failed: %d %s", rec.Code, rec.Body)
	}
	return mux
}

// allowedStatus is the contract every fuzzed request must satisfy: a
// well-defined client or server refusal, never a panic or a hung handler.
func allowedStatus(code int) bool {
	switch code {
	case http.StatusOK, http.StatusMultiStatus, http.StatusBadRequest,
		http.StatusNotFound,
		http.StatusConflict, http.StatusRequestEntityTooLarge,
		http.StatusUnprocessableEntity,
		http.StatusTooManyRequests, http.StatusMethodNotAllowed,
		// ServeMux path cleaning answers dirty paths ("//", "..") with a
		// redirect before any handler runs.
		http.StatusMovedPermanently, http.StatusPermanentRedirect:
		return true
	}
	return false
}

// detectCorpus seeds the fuzz targets that read detect request bodies.
var detectCorpus = []string{
	`{"profile":"p","routes":[[0,1,2],[0,3,2]]}`,
	`{"profile":"p","routes":[]}`,
	`{"profile":"missing","routes":[[1,2]]}`,
	`{"profile":"p","routes":[[0,1,2]],"update":false}`,
	`{"profile":"p","items":[[[0,1,2]],[[0,3,2]]]}`,
	`{"routes":[[-1,2]]}`,
	`{"routes":[[0,1`,
	`null`,
	`{"profile":"p","routes":[[0,1]]}{"x":1}`,
	`{"profile":"p","routes":[[9999999999999999999]]}`,
}

// FuzzRoutingKey pins the gateway's routing key to the replica's parser: for
// every body parseRequest accepts as a detect request, RoutingKey names the
// profile the replica would score. The seed table pins known keys too.
func FuzzRoutingKey(f *testing.F) {
	for _, tc := range []struct{ body, want string }{
		{`{"profile":"a","routes":[[1,2]]}`, "a"},
		{`{ "profile" : "spaced" }`, "spaced"},
		{`{"routes":[[1]],"profile":"late"}`, "late"},
		{`{"profile":"with\"escape"}`, `with"escape`},
		{`{"note":"\"profile\":","profile":"real"}`, "real"}, // decoy occurrence
		{`{"profile":"a","Profile":"b"}`, "b"},               // case-folded, last wins
		{`{"profile":"a","profile":null}`, "a"},              // null is a no-op
		{`{"profile":123}`, ""},                              // non-string
		{`{"routes":[[1]]}`, ""},                             // absent
		{`not json`, ""},                                     // garbage
	} {
		if got := RoutingKey([]byte(tc.body)); got != tc.want {
			f.Errorf("RoutingKey(%s) = %q, want %q", tc.body, got, tc.want)
		}
		f.Add(tc.body)
	}
	for _, body := range detectCorpus {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		got := RoutingKey([]byte(body))
		sc := getScratch()
		defer putScratch(sc)
		sc.body = append(sc.body[:0], body...)
		if sc.parseRequest(kindDetect) != nil {
			return
		}
		if want := string(sc.profile); got != want {
			t.Fatalf("RoutingKey(%q) = %q, parser scores %q", body, got, want)
		}
	})
}

// FuzzDetectDecoding throws arbitrary bytes at the detect and batch-detect
// request decoders: malformed bodies must map to clean 4xx answers, and
// bodies that do decode must score without panicking.
func FuzzDetectDecoding(f *testing.F) {
	mux := fuzzService(f)
	for _, body := range detectCorpus {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range []string{"/v1/detect", "/v1/detect/batch"} {
			req := httptest.NewRequest("POST", path, strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			if !allowedStatus(rec.Code) {
				t.Fatalf("%s: status %d on body %q", path, rec.Code, body)
			}
		}
	})
}

// FuzzDetectStreamFraming throws arbitrary bytes at the NDJSON stream
// endpoint: whatever the line framing and per-line parser make of the input,
// the answer must be a 200 whose body is well-formed NDJSON — every line a
// complete JSON object — with no panic and no hang.
func FuzzDetectStreamFraming(f *testing.F) {
	mux := fuzzService(f)
	f.Add("{\"profile\":\"p\",\"routes\":[[0,1,2]]}\n")
	f.Add("{\"profile\":\"p\",\"routes\":[[0,1,2]]}\n{\"profile\":\"missing\",\"routes\":[[1]]}\n")
	f.Add("\n\n\r\n")
	f.Add("{\"profile\":\"p\",\"routes\":[[0,1\n{\"profile\":\"p\",\"routes\":[[2]]}\n")
	f.Add("null\ntrue\n[]\n")
	f.Add("{\"profile\":\"p\",\"routes\":[[0,1,2]],\"explain\":true}\n")
	f.Add("{\"profile\":\"p\",\"routes\":[[9999999999999999999]]}")
	f.Add("{} {}\n")
	f.Fuzz(func(t *testing.T, body string) {
		// The no-hang half of the contract, enforced: a handler that stops
		// making progress on some framing shape would otherwise stall the
		// fuzz worker silently instead of recording the input.
		wd := time.AfterFunc(3*time.Second, func() {
			panic(fmt.Sprintf("stream exec exceeded 3s on %d-byte body %.200q", len(body), body))
		})
		defer wd.Stop()
		req := httptest.NewRequest("POST", "/v1/detect/stream", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/x-ndjson")
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("stream: status %d on body %q", rec.Code, body)
		}
		for i, line := range strings.Split(rec.Body.String(), "\n") {
			if line == "" {
				continue
			}
			if !json.Valid([]byte(line)) {
				t.Fatalf("stream: response line %d is not valid JSON: %q (body %q)", i, line, body)
			}
		}
	})
}

// FuzzVerifyRequestJSON throws arbitrary bytes at the /v1/verify decoder:
// malformed bodies and impossible scenarios must map to clean 4xx answers,
// and bodies that do decode must probe (a full scenario simulation) without
// panicking.
func FuzzVerifyRequestJSON(f *testing.F) {
	mux := fuzzService(f)
	f.Add(`{"scenario":{"topo":"cluster"}}`)
	f.Add(`{"scenario":{"topo":"cluster","tier":2,"protocol":"dsr"},"behavior":"forge","isolate":true}`)
	f.Add(`{"scenario":{"topo":"uniform6x6"},"routes":[[0,1,2]],"suspect":{"a":1,"b":2}}`)
	f.Add(`{"scenario":{"topo":"cluster"},"wormholes":0,"behavior":"forward"}`)
	f.Add(`{"scenario":{"topo":"cluster","protocol":"dsr"},"attack":"forge"}`)
	f.Add(`{"scenario":{"topo":"cluster"},"attack":"adaptive"}`)
	f.Add(`{"scenario":{"topo":"cluster"},"timeout":-1,"retries":-1,"max_probes":-1}`)
	f.Add(`{"scenario":{"topo":"nonesuch"}}`)
	f.Add(`{"scenario":{"topo":"cluster"},"suspect":{"a":-5,"b":3}}`)
	f.Add(`{"scenario":{"topo":"cluster"}`)
	f.Add(`null`)
	f.Add(`{"scenario":{"topo":"cluster"},"seed":18446744073709551615}`)
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/v1/verify", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if !allowedStatus(rec.Code) {
			t.Fatalf("verify: status %d on body %q", rec.Code, body)
		}
	})
}

// FuzzAnalyzeAndTrainDecoding does the same for the stateless analyze
// endpoint and the train endpoint (including fuzzed profile names in the
// path).
func FuzzAnalyzeAndTrainDecoding(f *testing.F) {
	mux := fuzzService(f)
	f.Add("q", `{"routes":[[0,1,2],[0,3,2]]}`)
	f.Add("q", `{"route_sets":[[[0,1,2]]]}`)
	f.Add("a b", `{"route_sets":[[[1]],[[2,2]],[[]]]}`)
	f.Add("%2e%2e", `{"route_sets":[[[0,1],[1,0],[0,1]]]}`)
	f.Add("", `{}`)
	f.Add("q", `{"route_sets":[[[-1,2]]],"route_sets":[[[0,1]]]}`)
	f.Add("q", `{"Route_Sets":[null,[null],[[1.5]]]}`)
	f.Fuzz(func(t *testing.T, name, body string) {
		req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(body))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if !allowedStatus(rec.Code) {
			t.Fatalf("analyze: status %d on body %q", rec.Code, body)
		}

		// Fuzzed profile names travel path-escaped, as a real client would
		// send them: either a clean answer or a router-level 404, never a
		// panic.
		target := "/v1/profiles/" + url.PathEscape(name) + "/train"
		req = httptest.NewRequest("POST", target, strings.NewReader(body))
		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if !allowedStatus(rec.Code) {
			t.Fatalf("train %q: status %d on body %q", target, rec.Code, body)
		}
	})
}
