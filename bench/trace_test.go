package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{name: "runner.map", start: 0, end: 100, parent: -1},
		// Two workers' runs overlap: their union covers 10..90.
		{name: "bench.run", start: 10, end: 60, parent: 0},
		{name: "bench.run", start: 40, end: 90, parent: 0},
		// Children of the first run, back to back and apart.
		{name: "routing.discover", start: 20, end: 30, parent: 1},
		{name: "sam.analyze", start: 30, end: 35, parent: 1},
		{name: "sam.analyze", start: 50, end: 55, parent: 1},
	}
	want := []int64{100 - 80, 50 - 10 - 5 - 5, 50, 10, 5, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}

	tr := &tracer{spans: spans}
	tr.n.Store(int64(len(spans)))
	p := buildProfile(tr, nil)
	if o := p.ops["sam.analyze"]; o.calls != 2 || o.selfNS != 10 {
		t.Fatalf("sam.analyze aggregate = %+v", o)
	}
	// Self times attribute the root's 100ns once, plus the 20ns the two
	// workers ran at the same time.
	if p.totalNS != 120 {
		t.Fatalf("self times sum to %d, want 120", p.totalNS)
	}
	if got, want := p.share("sam"), 10.0/120; got != want {
		t.Fatalf("sam layer share = %v, want %v", got, want)
	}
	if got := p.medianUS("sam.analyze"); got != 0.005 {
		t.Fatalf("sam.analyze median self time = %vµs, want 0.005", got)
	}
}

func TestSelfAllocsSubtractsChildren(t *testing.T) {
	spans := []span{
		{parent: -1, m0: 100, m1: 150},
		{parent: 0, m0: 110, m1: 120},
		{parent: 0, m0: 130, m1: 145},
		{parent: 2, m0: 131, m1: 140},
	}
	want := []uint64{25, 10, 6, 9}
	if got := selfAllocs(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfAllocs = %v, want %v", got, want)
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	tr := newTracer(4, false)
	root := tr.begin("bench.run", -1, tr.newReq())
	child := tr.begin("sam.analyze", root, 1)
	tr.end(child)
	tr.end(root)
	for range 3 {
		tr.end(tr.begin("sam.analyze", -1, 0))
	}
	if got := len(tr.recorded()); got != 4 || tr.dropped.Load() != 1 {
		t.Fatalf("recorded %d spans, dropped %d; want 4 and 1", got, tr.dropped.Load())
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x.y", -1, nilTracer.newReq()))

	path := filepath.Join(t.TempDir(), "out", "w.trace.json")
	if err := writeTrace(path, "w", 1, tr, buildProfile(tr, nil)); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Ops   map[string]struct{ Calls int } `json:"ops"`
		Spans []struct {
			Name, Layer string
			Parent      int
		} `json:"spans"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(doc.Spans) != 4 || doc.Spans[1].Layer != "sam" || doc.Spans[1].Parent != 0 || doc.Ops["sam.analyze"].Calls != 3 {
		t.Fatalf("trace file content: %+v", doc)
	}
}
