package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"samnet/internal/sam"
	"samnet/internal/service"
)

// runServe runs serve-detect or serve-fleet for budget and reports into r.
func runServe(r *report, workload string, seed uint64, budget time.Duration, traced bool, outDir string) {
	spec := serveSpecs[workload]

	var alloc *tracer
	if traced {
		// The allocation pass runs first, before any server exists, so no
		// background goroutine allocates while it counts.
		alloc = allocPass(func(t *tracer) {
			d := &caller{seed: seed, tr: t}
			names := shardNames(1)
			c := genCorpus(d, spec, names)
			profile := d.train(names[0], trainStats(d, c.train), -1)
			det := sam.NewDetector(profile, sam.DetectorConfig{})
			for _, it := range c.items {
				d.evaluate(det, d.analyze(it.routes, -1, 0), -1, 0)
			}
			svc := service.New(service.Config{})
			defer svc.Close()
			h := svc.Handler()
			inProcess(nil, "", h, "/v1/profiles/"+names[0]+"/train", []item{{body: c.trainBody}}, 1)
			inProcess(t, "service.detect", h, "/v1/detect", c.items, 1000)
		})
	}

	client := newClient(loadConns)
	e, setups := setupServe(r, spec, seed, client)
	if e == nil {
		return
	}
	defer e.close()
	r.set("setup_s", median(setups), "s")

	var tr *tracer
	if traced {
		// The corpus again, untraced and then traced, for the overhead.
		g0 := time.Now()
		genCorpus(&caller{seed: seed}, spec, e.names)
		untraced := time.Since(g0)
		tr = newTracer(1<<17, false)
		d := &caller{seed: seed, tr: tr}
		g0 = time.Now()
		genCorpus(d, spec, e.names)
		r.set("bench.trace_overhead", float64(time.Since(g0))/float64(untraced), "ratio")
		r.set("routing.packets_per_discovery", float64(d.packets.Load())/float64(d.discoveries.Load()), "count")
		r.set("routing.routes_per_discovery", float64(d.routes.Load())/float64(d.discoveries.Load()), "count")
	}
	verdictCheck(r, e, client, tr, workload, seed)

	measure := budget
	if traced {
		measure = budget / 2
	}
	rt := readRuntime()
	t0 := time.Now()
	var streamRate float64
	if spec.replicas == 0 {
		l, err := newLadder(client, e.front+"/v1/detect", e.corpus.items, seed)
		if err != nil {
			r.fail("load generator: %v", err)
			return
		}
		// The reference step, then closed-loop capacity, then the ladder;
		// a traced run only needs the reference step.
		stepDur := budget / 20
		if traced {
			ref := l.step(refRate, measure, min(250*time.Millisecond, stepDur/4))
			r.set("bench.lag_ratio", summarize(ref.late).at(limitQ)/latencyCap, "ratio")
		} else {
			ref := l.step(refRate, budget*3/10, min(250*time.Millisecond, stepDur/4))
			answered, failed := l.capacity(budget * 3 / 10)
			steps := l.climb(ref, stepDur, budget*4/10)
			reportDetect(r, steps, answered, failed, budget*3/10)
			r.set("rss_mb", median(l.rss), "MB")
		}
		l.close()
	} else {
		load := runFleetLoad(e, budget/10, measure)
		r.attempt(load.attempts)
		if load.failed > 0 {
			r.failures(load.failed, "%s", strings.Join(load.errs, "; "))
		}
		d := summarize(load.trainMS)
		streamRate = float64(load.lines) / load.window.Seconds()
		r.note("train", "%d writes, p50 %.3f ms, p%g %.3f ms, max %.3f ms", d.N, d.P50, 100*d.TailQ, d.Tail, d.Max)
		r.note("stream", "%d lines answered in %s, %d in all", load.lines, load.window, load.answered)
		r.set("latency_ms", d.P50, "ms")
		r.set("throughput_per_s", streamRate, "1/s")
		r.set("rss_mb", median(load.rss), "MB")
	}
	rtDelta := readRuntime().since(rt, time.Since(t0))

	if !traced {
		return
	}
	rejected := 0.0
	for _, svc := range e.svcs {
		var buf bytes.Buffer
		svc.Registry().WritePrometheus(&buf)
		rejected += scrapeTotal(buf.Bytes(), "samserve_requests_total", `class="4xx"`)
	}
	r.set("runtime.alloc_mb_per_s", rtDelta.allocMBPerS, "MB/s")
	r.set("runtime.gc_cycles_per_s", rtDelta.gcPerS, "1/s")
	r.set("service.rejected", rejected, "count")
	p := probeHops(r, e, tr, alloc, streamRate)
	r.check(tr.dropped.Load() == 0, "trace buffer overflowed by %d spans", tr.dropped.Load())
	r.layerProfile(p)
	if err := writeTrace(tracePath(outDir, workload), workload, seed, tr, p); err != nil {
		r.fail("writing trace: %v", err)
	}
}

// probeHops sends the same requests through each hop in turn, one at a
// time, so the difference between two hops is the cost of the one between
// them: the handler alone, then over a loopback socket, then through the
// gateway. It probes the replica owning the first item, with the items it
// owns, and returns the profile of everything traced.
func probeHops(r *report, e *env, tr *tracer, alloc *tracer, streamRate float64) profile {
	const probes = 2000
	o := e.owner(e.corpus.items[0].profile)
	owner, handler := e.replicas[o].url, e.svcs[o].Handler()
	var items []item
	for _, it := range e.corpus.items {
		if e.owner(it.profile) == o {
			items = append(items, it)
		}
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	inProcess(tr, "service.detect", handler, "/v1/detect", items, probes)
	roundTrips(tr, "service.roundtrip", client, owner+"/v1/detect", items, probes)
	if e.gw != nil {
		roundTrips(tr, "cluster.roundtrip", client, e.front+"/v1/detect", items, probes)
		train := []item{{body: e.corpus.trainBody}}
		path := "/v1/profiles/" + items[0].profile + "/train"
		inProcess(tr, "service.train", handler, path, train, 50)
		roundTrips(tr, "service.train_roundtrip", client, owner+path, train, 50)
		roundTrips(tr, "cluster.train_roundtrip", client, e.front+path, train, 50)
		streamInProcess(tr, handler, items, streamProbeLines)
	}
	p := buildProfile(tr, alloc)

	detect := p.medianUS("service.detect")
	r.set("service.handler_share", detect/p.medianUS("service.roundtrip"), "ratio")
	r.set("service.codec_share", (detect-p.medianUS("sam.analyze")-p.medianUS("sam.evaluate"))/detect, "ratio")
	if e.gw != nil {
		gwRT, gwTrain := p.medianUS("cluster.roundtrip"), p.medianUS("cluster.train_roundtrip")
		r.set("cluster.hop_share", (gwRT-p.medianUS("service.roundtrip"))/gwRT, "ratio")
		r.set("cluster.train_proxy_share", (gwTrain-p.medianUS("service.train_roundtrip"))/gwTrain, "ratio")
		r.set("service.train_share", p.medianUS("service.train")/gwTrain, "ratio")
		// The replicas' own per-line work as a share of both CPUs' time at
		// the measured stream rate.
		perLine := p.medianUS("service.stream") / streamProbeLines
		r.set("service.stream_line_share", perLine*streamRate/1e6/float64(nproc()), "ratio")
		var buf bytes.Buffer
		e.gw.Registry().WritePrometheus(&buf)
		r.set("cluster.failovers", scrapeTotal(buf.Bytes(), "samgate_failovers_total", ""), "count")
	}
	return p
}

// reportDetect turns serve-detect's load into its end-to-end metrics: the
// reference step's median latency and the closed-loop capacity. The
// ladder's highest passing rate is reported beside them, not gated on: on a
// shared VM a noisy second fails a step outright, so it varies by more than
// any bound a regression check could use.
func reportDetect(r *report, steps []stepResult, answered, failed int, capDur time.Duration) {
	stats := make([]stepStat, len(steps))
	for i, st := range steps {
		r.attempt(st.sent)
		if st.failed > 0 {
			r.failures(st.failed, "%d of %d requests failed at %.0f req/s", st.failed, st.sent, st.rate)
		}
		stats[i] = st.stat()
		d := summarize(st.lat)
		r.note("step", "%.0f req/s: n=%d p50 %.3f ms p%g %.3f ms p99 %.3f ms backlog %.3f ms pass=%v",
			st.rate, d.N, d.P50, 100*limitQ, stats[i].tail, d.at(0.99), st.backlog, stats[i].pass())
	}
	r.note("ladder", "highest rate with p%g <= %g ms and no backlog: %.0f req/s", 100*limitQ, latencyCap, maxRate(stats))
	r.attempt(answered + failed)
	if failed > 0 {
		r.failures(failed, "%d of %d closed-loop requests failed", failed, answered+failed)
	}
	r.note("capacity", "%d requests on %d connections in %s", answered, loadConns, capDur)
	r.set("latency_ms", summarize(steps[0].lat).P50, "ms")
	r.set("throughput_per_s", float64(answered)/capDur.Seconds(), "1/s")
}

// inProcess serves n requests for items straight into handler, no socket,
// with one span each.
func inProcess(tr *tracer, name string, h http.Handler, path string, items []item, n int) {
	rd := bytes.NewReader(nil)
	req := httptest.NewRequest("POST", path, nil)
	w := &discardWriter{h: http.Header{}}
	for i := range n {
		rd.Reset(items[i%len(items)].body)
		req.Body = readCloser{rd}
		w.status = 0
		id := tr.begin(name, -1, tr.newReq())
		h.ServeHTTP(w, req)
		tr.end(id)
	}
}

// roundTrips posts n requests for items over one loopback connection.
func roundTrips(tr *tracer, name string, client *http.Client, url string, items []item, n int) {
	var buf []byte
	for i := range n {
		id := tr.begin(name, -1, tr.newReq())
		buf, _ = post(client, url, items[i%len(items)].body, buf)
		tr.end(id)
	}
}

// streamProbeLines is how many lines one in-process stream probe carries.
const streamProbeLines = 1000

// streamInProcess streams n lines through one in-process stream request.
func streamInProcess(tr *tracer, h http.Handler, items []item, n int) {
	var body bytes.Buffer
	for i := range n {
		body.Write(items[i%len(items)].line)
	}
	req := httptest.NewRequest("POST", "/v1/detect/stream", &body)
	rec := httptest.NewRecorder()
	id := tr.begin("service.stream", -1, tr.newReq())
	h.ServeHTTP(rec, req)
	tr.end(id)
}

type readCloser struct{ *bytes.Reader }

func (readCloser) Close() error { return nil }

// discardWriter is a reusable ResponseWriter that drops the body, so the
// handler's allocations are not mixed with a recorder's.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
