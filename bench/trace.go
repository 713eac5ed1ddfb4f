package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// A traced run records one span around every call the benchmark makes into
// a layer of the system. Spans live in a slice allocated up front, so
// recording one is an atomic increment and two clock reads; they are
// written out when the run ends.

// span is one timed call. name is "<layer>.<operation>"; parent indexes the
// span that caused it (-1 for a root); req groups the spans of one
// simulation run or one request.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32
	req        int32
	// mallocs at start and end, recorded only by an allocation pass.
	m0, m1 uint64
}

// tracer records spans. A nil *tracer records nothing, so the same calling
// code runs traced and untraced.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	reqs    atomic.Int32
	dropped atomic.Int64
	// mem makes every span read runtime.MemStats at both ends. It stops
	// the world, so it is only for single-goroutine allocation passes.
	mem bool
	ms  runtime.MemStats
}

func newTracer(capacity int, mem bool) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity), mem: mem}
}

// begin opens a span and returns its id (-1 when not tracing or full).
func (t *tracer) begin(name string, parent, req int32) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	s := &t.spans[i]
	s.name, s.parent, s.req = name, parent, req
	if t.mem {
		runtime.ReadMemStats(&t.ms)
		s.m0 = t.ms.Mallocs
	}
	s.start = int64(time.Since(t.epoch))
	return int32(i)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	s := &t.spans[id]
	s.end = int64(time.Since(t.epoch))
	if t.mem {
		runtime.ReadMemStats(&t.ms)
		s.m1 = t.ms.Mallocs
	}
}

// newReq returns a fresh request id.
func (t *tracer) newReq() int32 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// full reports whether fewer than want span slots remain.
func (t *tracer) full(want int) bool {
	return t != nil && t.n.Load()+int64(want) > int64(len(t.spans))
}

// recorded returns the completed spans. Call it only after every traced
// goroutine has finished.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	return t.spans[:min(t.n.Load(), int64(len(t.spans)))]
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each span's duration minus the part of it covered by
// its children's union. Children may overlap (a runner.map span's runs
// execute on several workers), so covered time is the union of their
// intervals, clipped to the parent, not their sum.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && int(s.parent) < len(spans) {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		slices.SortFunc(kids, func(a, b int32) int {
			return cmpInt64(spans[a].start, spans[b].start)
		})
		covered := int64(0)
		curStart, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - curStart
		self[i] = s.end - s.start - covered
	}
	return self
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// opStats aggregates every span of one operation name.
type opStats struct {
	calls  int
	selfNS int64
	allocs uint64    // self allocations, allocation passes only
	selfUS []float64 // every call's self time
}

// selfAllocs mirrors selfTimes for allocation counts: a span's mallocs
// minus its children's. Allocation passes are single-goroutine, so
// children never overlap and a plain difference is exact.
func selfAllocs(spans []span) []uint64 {
	out := make([]uint64, len(spans))
	for i, s := range spans {
		out[i] = s.m1 - s.m0
	}
	for _, s := range spans {
		if s.parent >= 0 {
			out[s.parent] -= s.m1 - s.m0
		}
	}
	return out
}

// aggregate folds spans into per-operation totals.
func aggregate(spans []span) map[string]*opStats {
	self := selfTimes(spans)
	allocs := selfAllocs(spans)
	ops := make(map[string]*opStats)
	for i, s := range spans {
		op := ops[s.name]
		if op == nil {
			op = &opStats{}
			ops[s.name] = op
		}
		op.calls++
		op.selfNS += self[i]
		op.allocs += allocs[i]
		op.selfUS = append(op.selfUS, float64(self[i])/1e3)
	}
	return ops
}

// profile is what a traced run learned about each operation and layer.
type profile struct {
	ops     map[string]*opStats // timing pass
	alloc   map[string]*opStats // allocation pass
	totalNS int64               // sum of every span's self time
	layerNS map[string]int64
}

func buildProfile(timing, alloc *tracer) profile {
	p := profile{ops: aggregate(timing.recorded()), layerNS: map[string]int64{}}
	if alloc != nil {
		p.alloc = aggregate(alloc.recorded())
	}
	for name, op := range p.ops {
		p.totalNS += op.selfNS
		p.layerNS[layerOf(name)] += op.selfNS
	}
	return p
}

// meanUS is the mean self time per call of op, in microseconds.
func (p profile) meanUS(op string) float64 {
	o := p.ops[op]
	if o == nil || o.calls == 0 {
		return 0
	}
	return float64(o.selfNS) / float64(o.calls) / 1e3
}

// medianUS is the median self time of one call of op, in microseconds.
func (p profile) medianUS(op string) float64 {
	if o := p.ops[op]; o != nil {
		return median(o.selfUS)
	}
	return 0
}

// share is op's (or, for a bare layer name, the layer's) self time as a
// fraction of all attributed time.
func (p profile) share(name string) float64 {
	if p.totalNS == 0 {
		return 0
	}
	if !strings.Contains(name, ".") {
		return float64(p.layerNS[name]) / float64(p.totalNS)
	}
	if o := p.ops[name]; o != nil {
		return float64(o.selfNS) / float64(p.totalNS)
	}
	return 0
}

// allocsPerCall is op's self allocations per call in the allocation pass.
func (p profile) allocsPerCall(op string) float64 {
	o := p.alloc[op]
	if o == nil || o.calls == 0 {
		return 0
	}
	return float64(o.allocs) / float64(o.calls)
}

// writeTrace writes the timing pass to path as one JSON object: a summary
// per operation followed by every span, times in microseconds since the
// trace began.
func writeTrace(path, workload string, seed uint64, t *tracer, p profile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	spans := t.recorded()
	var wall int64
	for _, s := range spans {
		wall = max(wall, s.end)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"wall_us\":%.3f,\"dropped\":%d,\"ops\":{", workload, seed, float64(wall)/1e3, t.dropped.Load())
	names := make([]string, 0, len(p.ops))
	for name := range p.ops {
		names = append(names, name)
	}
	slices.Sort(names)
	for i, name := range names {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n%q:{\"layer\":%q,\"calls\":%d,\"self_us\":%.3f,\"self_us_per_call\":%.3f,\"share\":%.6f,\"allocs_per_call\":%.3f}",
			name, layerOf(name), p.ops[name].calls, float64(p.ops[name].selfNS)/1e3, p.meanUS(name), p.share(name), p.allocsPerCall(name))
	}
	w.WriteString("},\n\"spans\":[")
	var buf []byte
	for i, s := range spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n{\"name\":\""...)
		buf = append(buf, s.name...)
		buf = append(buf, "\",\"layer\":\""...)
		buf = append(buf, layerOf(s.name)...)
		buf = append(buf, "\",\"start\":"...)
		buf = strconv.AppendFloat(buf, float64(s.start)/1e3, 'f', 3, 64)
		buf = append(buf, ",\"end\":"...)
		buf = strconv.AppendFloat(buf, float64(s.end)/1e3, 'f', 3, 64)
		buf = append(buf, ",\"parent\":"...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, ",\"req\":"...)
		buf = strconv.AppendInt(buf, int64(s.req), 10)
		buf = append(buf, '}')
		w.Write(buf)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
