// Command samload is the end-to-end serving benchmark for samserve. It
// runs multi-path route discoveries of scenario cells (internal/cli) under
// normal and wormhole conditions, trains a profile over
// the service API, and then drives the detect endpoints with concurrent
// clients — reporting throughput, latency percentiles, and detection
// accuracy (detection rate on wormhole route sets, false-positive rate on
// normal ones).
//
// Usage:
//
//	samload [-addr http://host:port | -addrs http://h1:port,http://h2:port]
//	        [-clients N] [-duration 5s]
//	        [-requests N] [-batch K] [-stream]
//	        [-topo cluster|uniform6x6|uniform10x6]
//	        [-tier K] [-train N] [-corpus N] [-profile name] [-profiles N]
//	        [-verdicts file.ndjson] [-seed S] [-log-format text|json]
//
// With no -addr, samload starts an in-process samserve on a loopback port
// and benchmarks that, so `samload` alone measures the full serving path.
//
// Fleet mode: -addrs drives several replicas directly, placing each request
// on the replica owning its profile with the same rendezvous hash samgate
// uses, and reports per-replica throughput/latency/accuracy next to the
// aggregate. Pointing -addr at a samgate gateway is the other fleet mode —
// placement then happens server-side. -profiles N shards the workload over N
// profiles named <profile>-0..<profile>-(N-1) (trained identically), so a
// fleet actually has placement to do; the default single profile lands on
// one replica. Invalid flag combinations fail immediately (exit 2) instead
// of silently degrading.
//
// -verdicts scores the whole corpus once — sequentially, in corpus order,
// with adaptive updates off — before the load phase, appending each raw
// response body to the file. Two runs over the same corpus (say, one against
// a lone replica and one through a gateway) must produce byte-identical
// files; CI diffs them to prove the fleet serves the same verdicts.
//
// -stream switches each client from request/response over /v1/detect to the
// NDJSON pipeline on /v1/detect/stream: one long-lived POST per client, with
// a bounded window of requests in flight on the connection. Per-request HTTP
// framing is what caps the lockstep modes at round-trip throughput, so
// -stream is the mode that measures the service's actual scoring capacity.
// It requires -batch 1 (the stream protocol is one route set per line).
//
// Latency percentiles come from the same fixed-bucket histogram the service
// exposes (internal/obs), so client- and server-side latency reports share
// one definition. After the run samload scrapes the server's /metrics and
// logs the server-side counters next to its own. The last stdout line is a
// one-line JSON summary for CI consumption.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	samnet "samnet"
	"samnet/internal/cli"
	"samnet/internal/cluster"
	"samnet/internal/obs"
	"samnet/internal/service"
)

// logger is the command's structured logger, set before any work begins.
var logger = slog.Default()

type corpusItem struct {
	payload  []byte // pre-marshalled request body
	noUpdate []byte // same request with adaptive updates off (verdict pass)
	attacks  []bool // ground truth per route set in the body
	target   int    // fleet.bases index this item routes to
}

// fleet is the set of servers under load: one base URL in single/gateway
// mode, several with client-side rendezvous placement in -addrs mode.
type fleet struct {
	bases []string
	ring  *cluster.Ring // nil = everything routes to bases[0]
}

func (f *fleet) owner(profile string) int {
	if f.ring == nil {
		return 0
	}
	addr := f.ring.Owner(profile)
	for i, b := range f.bases {
		if b == addr {
			return i
		}
	}
	return 0
}

func main() {
	var (
		addr      = flag.String("addr", "", "server base URL (empty = start an in-process server)")
		addrs     = flag.String("addrs", "", "comma-separated replica base URLs for client-side fleet placement (mutually exclusive with -addr)")
		clients   = flag.Int("clients", 32, "concurrent client goroutines")
		duration  = flag.Duration("duration", 5*time.Second, "load duration (ignored when -requests > 0)")
		requests  = flag.Int("requests", 0, "total requests to send (0 = run for -duration)")
		batch     = flag.Int("batch", 1, "route sets per request (1 = /v1/detect, >1 = /v1/detect/batch)")
		stream    = flag.Bool("stream", false, "pipeline requests over /v1/detect/stream (requires -batch 1)")
		topoName  = flag.String("topo", "cluster", "topology: cluster, uniform6x6, uniform10x6, random")
		tier      = flag.Int("tier", 1, "transmission range in grid spacings")
		train     = flag.Int("train", 30, "normal discoveries used to train the profile")
		corpus    = flag.Int("corpus", 64, "evaluation discoveries per condition (normal and attacked)")
		profile   = flag.String("profile", "default", "profile name to train and score against")
		profiles  = flag.Int("profiles", 1, "profile shards: train N identical profiles <profile>-0..N-1 and spread the corpus over them")
		verdicts  = flag.String("verdicts", "", "before the load phase, score the corpus once sequentially with updates off and write the raw response bodies to this file")
		seed      = flag.Uint64("seed", 2005, "master seed")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
	)
	flag.Parse()

	var err error
	if logger, err = cli.NewLogger(*logFormat); err != nil {
		fatal(err)
	}
	// Fail fast on every invalid flag at once: a load run that silently
	// "fixes" its parameters benchmarks something other than what was asked.
	var bad []string
	if *batch < 1 {
		bad = append(bad, fmt.Sprintf("-batch %d: want >= 1", *batch))
	}
	if *clients < 1 {
		bad = append(bad, fmt.Sprintf("-clients %d: want >= 1", *clients))
	}
	if *requests < 0 {
		bad = append(bad, fmt.Sprintf("-requests %d: want >= 0", *requests))
	}
	if *requests == 0 && *duration <= 0 {
		bad = append(bad, fmt.Sprintf("-duration %s: want > 0 when -requests is 0", *duration))
	}
	if *train < 1 {
		bad = append(bad, fmt.Sprintf("-train %d: want >= 1", *train))
	}
	if *corpus < 1 {
		bad = append(bad, fmt.Sprintf("-corpus %d: want >= 1", *corpus))
	}
	if *profiles < 1 {
		bad = append(bad, fmt.Sprintf("-profiles %d: want >= 1", *profiles))
	}
	if *stream && *batch > 1 {
		bad = append(bad, fmt.Sprintf("-stream requires -batch 1 (got -batch %d)", *batch))
	}
	if *addr != "" && *addrs != "" {
		bad = append(bad, "-addr and -addrs are mutually exclusive (use -addr for one server or a gateway, -addrs for client-side fleet placement)")
	}
	if *stream && *addrs != "" {
		bad = append(bad, "-stream with -addrs is not supported: stream routing is per-line; point -addr at a samgate gateway instead")
	}
	if len(bad) > 0 {
		for _, msg := range bad {
			fmt.Fprintln(os.Stderr, "samload:", msg)
		}
		os.Exit(2)
	}

	fl, shutdown := resolveFleet(*addr, *addrs)
	defer shutdown()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *clients * 2,
		MaxIdleConnsPerHost: *clients * 2,
	}}

	logger.Info("generating route sets", "topo", *topoName, "tier", *tier,
		"train", *train, "corpus", *corpus)
	trainSets, normalSets, attackSets := generate(*topoName, *tier, *seed, *train, *corpus)

	// Shard names are deterministic, so two samload runs (or samload vs a
	// gateway fleet) place the same profiles in the same order.
	names := shardNames(*profile, *profiles)
	for _, name := range names {
		if err := trainProfile(client, fl.bases[fl.owner(name)], name, trainSets); err != nil {
			fatal(err)
		}
	}
	logger.Info("profiles trained", "profiles", len(names), "route_sets", len(trainSets))

	items := buildCorpus(names, fl, normalSets, attackSets, *batch)
	if *verdicts != "" {
		n, err := dumpVerdicts(client, fl, items, *batch, *verdicts)
		if err != nil {
			fatal(err)
		}
		logger.Info("verdicts written", "path", *verdicts, "responses", n)
	}
	sched := &schedule{budget: int64(*requests), deadline: time.Now().Add(*duration)}
	var total *tally
	var perReplica []*tally
	if *stream {
		total, perReplica = runStream(client, fl.bases[0], items, *clients, sched)
	} else {
		total, perReplica = run(client, fl, items, *clients, sched, *batch)
	}
	// Per-replica rows are rendered once, for the report and the summary.
	var rows []replicaSummary
	if len(perReplica) > 1 {
		for i, t := range perReplica {
			rows = append(rows, t.row(fl.bases[i]))
		}
	}
	total.report(os.Stdout, rows)
	for _, base := range fl.bases {
		scrapeServerMetrics(client, base)
	}
	total.summaryJSON(os.Stdout, mode(*stream, *batch), rows)
	if total.errors > 0 && total.ok == 0 {
		os.Exit(1)
	}
}

// shardNames expands -profile/-profiles into the workload's profile names.
func shardNames(profile string, n int) []string {
	if n == 1 {
		return []string{profile}
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s-%d", profile, i)
	}
	return names
}

// resolveFleet maps the -addr/-addrs flags onto the fleet under load.
func resolveFleet(addr, addrs string) (*fleet, func()) {
	if addrs != "" {
		var bases []string
		for _, a := range strings.Split(addrs, ",") {
			if a = strings.TrimSuffix(strings.TrimSpace(a), "/"); a != "" {
				bases = append(bases, a)
			}
		}
		if len(bases) == 0 {
			fatal(fmt.Errorf("-addrs lists no usable URLs"))
		}
		return &fleet{bases: bases, ring: cluster.NewRing(bases)}, func() {}
	}
	base, shutdown := resolveServer(addr)
	return &fleet{bases: []string{base}}, shutdown
}

// resolveServer returns the base URL to drive and a shutdown function. With
// an empty addr it starts an in-process service on a loopback port.
func resolveServer(addr string) (string, func()) {
	if addr != "" {
		return addr, func() {}
	}
	svc := samnet.NewDetectionService(samnet.ServiceConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	logger.Info("in-process server up", "addr", ln.Addr().String())
	return "http://" + ln.Addr().String(), func() {
		srv.Close()
		svc.Close()
	}
}

// generate produces training route sets plus the normal/attacked evaluation
// corpus from MR discoveries of scenario cells (internal/cli): training is
// runs 0..train-1 of the clean scenario — the grid /v1/train/batch sweeps —
// and the corpus pairs runs train..train+corpus-1 clean with the same runs
// under one forwarding wormhole.
func generate(topoName string, tier int, seed uint64, train, corpus int) (trainSets, normal, attacked [][][]int) {
	clean, err := cli.Resolve(topoName, tier, "mr")
	if err != nil {
		fatal(err)
	}
	armed, err := clean.Armed(1, "forward", "")
	if err != nil {
		fatal(err)
	}
	discover := func(sc cli.Scenario, from, n int) [][][]int {
		out := make([][][]int, n)
		for i := range out {
			out[i] = routesJSON(sc.Cell(seed, from+i).Discover().Routes)
		}
		return out
	}
	return discover(clean, 0, train), discover(clean, train, corpus), discover(armed, train, corpus)
}

func routesJSON(routes []samnet.Route) [][]int {
	out := make([][]int, len(routes))
	for i, r := range routes {
		nodes := make([]int, len(r))
		for j, id := range r {
			nodes[j] = int(id)
		}
		out[i] = nodes
	}
	return out
}

func trainProfile(client *http.Client, base, profile string, sets [][][]int) error {
	body, err := json.Marshal(service.TrainRequest{RouteSets: sets})
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/v1/profiles/"+profile+"/train", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		blob, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("train: %s: %s", resp.Status, blob)
	}
	return nil
}

// buildCorpus pre-marshals the request bodies: alternating normal/attacked
// route sets, grouped batch-at-a-time when batch > 1, each request assigned
// a profile shard round-robin and routed to the replica owning that shard.
// Assignment depends only on (names, corpus order), so every run over the
// same flags produces the same request sequence — the property the -verdicts
// byte-diff rests on.
func buildCorpus(names []string, fl *fleet, normal, attacked [][][]int, batch int) []corpusItem {
	type labeled struct {
		set    [][]int
		attack bool
	}
	var all []labeled
	for i := 0; i < len(normal) || i < len(attacked); i++ {
		if i < len(normal) {
			all = append(all, labeled{normal[i], false})
		}
		if i < len(attacked) {
			all = append(all, labeled{attacked[i], true})
		}
	}
	noUpdate := false
	var items []corpusItem
	if batch == 1 {
		for i, l := range all {
			// The corpus alternates normal/attacked, so assign shards in
			// pairs: i/2 keeps every shard scoring both labels (i alone would
			// give even shard counts a single label each).
			name := names[(i/2)%len(names)]
			body, err := json.Marshal(service.DetectRequest{Profile: name, Routes: l.set})
			if err != nil {
				fatal(err)
			}
			frozen, err := json.Marshal(service.DetectRequest{Profile: name, Routes: l.set, Update: &noUpdate})
			if err != nil {
				fatal(err)
			}
			items = append(items, corpusItem{
				payload: body, noUpdate: frozen,
				attacks: []bool{l.attack}, target: fl.owner(name),
			})
		}
		return items
	}
	for at := 0; at < len(all); at += batch {
		end := at + batch
		if end > len(all) {
			end = len(all)
		}
		name := names[(at/batch)%len(names)]
		req := service.BatchDetectRequest{Profile: name}
		var truth []bool
		for _, l := range all[at:end] {
			req.Items = append(req.Items, l.set)
			truth = append(truth, l.attack)
		}
		body, err := json.Marshal(req)
		if err != nil {
			fatal(err)
		}
		req.Update = &noUpdate
		frozen, err := json.Marshal(req)
		if err != nil {
			fatal(err)
		}
		items = append(items, corpusItem{
			payload: body, noUpdate: frozen,
			attacks: truth, target: fl.owner(name),
		})
	}
	return items
}

// detectPath is the endpoint a corpus of the given batch size scores on.
func detectPath(batch int) string {
	if batch > 1 {
		return "/v1/detect/batch"
	}
	return "/v1/detect"
}

// dumpVerdicts scores every corpus item once — sequentially, in order,
// adaptive updates off — and appends the raw response bodies to path. The
// bodies are NDJSON already (the service newline-terminates every JSON
// response), so the file diffs cleanly across runs: same corpus, same
// verdict bytes, no matter how many replicas served it.
func dumpVerdicts(client *http.Client, fl *fleet, items []corpusItem, batch int, path string) (int, error) {
	suffix := detectPath(batch)
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	for i, item := range items {
		resp, err := client.Post(fl.bases[item.target]+suffix, "application/json", bytes.NewReader(item.noUpdate))
		if err != nil {
			return i, fmt.Errorf("verdict %d: %w", i, err)
		}
		status := resp.StatusCode
		_, err = io.Copy(f, resp.Body)
		resp.Body.Close()
		if err != nil {
			return i, fmt.Errorf("verdict %d: %w", i, err)
		}
		if status != http.StatusOK && status != http.StatusMultiStatus {
			return i, fmt.Errorf("verdict %d: status %d", i, status)
		}
	}
	if err := f.Sync(); err != nil {
		return len(items), err
	}
	return len(items), nil
}

// tally is one slice of a run's outcome: one client's, one replica's, or
// the whole run's.
type tally struct {
	ok, errors, rejected int64
	scored               int64 // route sets scored
	truePos, falsePos    int64
	attackSeen, normSeen int64
	slowest              time.Duration  // slowest ok request
	slowestTrace         string         // its trace id, for /debug/traces lookup
	latency              *obs.Histogram // shared with the service's bucket layout
	elapsed              time.Duration
}

func newTally() *tally { return &tally{latency: obs.NewHistogram(obs.DefaultLatencyBuckets)} }

// answered records one ok request into t and into the run-wide histogram.
// Histograms take concurrent observations (atomic bucket counters), so
// latency needs no per-client staging or merge.
func (t *tally) answered(took time.Duration, trace string, all *obs.Histogram) {
	t.ok++
	t.latency.ObserveDuration(took)
	all.ObserveDuration(took)
	if took > t.slowest {
		t.slowest, t.slowestTrace = took, trace
	}
}

// classify scores one route set's decision against its ground truth.
func (t *tally) classify(decision string, attack bool) {
	t.scored++
	positive := decision != "normal"
	if attack {
		t.attackSeen++
		if positive {
			t.truePos++
		}
	} else {
		t.normSeen++
		if positive {
			t.falsePos++
		}
	}
}

// merge adds src's counts into t, keeping the slower slowest request.
func (t *tally) merge(src *tally) {
	t.ok += src.ok
	t.errors += src.errors
	t.rejected += src.rejected
	t.scored += src.scored
	t.truePos += src.truePos
	t.falsePos += src.falsePos
	t.attackSeen += src.attackSeen
	t.normSeen += src.normSeen
	if src.slowest > t.slowest {
		t.slowest, t.slowestTrace = src.slowest, src.slowestTrace
	}
}

// schedule hands out corpus slots until the request budget (or, without
// one, the deadline) runs out.
type schedule struct {
	next     atomic.Int64
	budget   int64
	deadline time.Time
}

func (s *schedule) claim() (int64, bool) {
	idx := s.next.Add(1) - 1
	if s.budget > 0 {
		return idx, idx < s.budget
	}
	return idx, !time.Now().After(s.deadline)
}

// drive runs clients concurrent workers, each tallying into one local slot
// per replica, and merges the slots into per-replica and run-wide tallies.
func drive(clients, replicas int, worker func(local []tally, all *obs.Histogram)) (*tally, []*tally) {
	total := newTally()
	perReplica := make([]*tally, replicas)
	for i := range perReplica {
		perReplica[i] = newTally()
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]tally, replicas)
			for i := range local {
				local[i].latency = perReplica[i].latency
			}
			worker(local, total.latency)
			mu.Lock()
			defer mu.Unlock()
			for i := range local {
				perReplica[i].merge(&local[i])
				total.merge(&local[i])
			}
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	for _, t := range perReplica {
		t.elapsed = total.elapsed
	}
	return total, perReplica
}

// run drives the corpus over request/response until the schedule runs out,
// routing each item to its placed replica.
func run(client *http.Client, fl *fleet, items []corpusItem, clients int, sched *schedule, batch int) (*tally, []*tally) {
	suffix := detectPath(batch)
	return drive(clients, len(fl.bases), func(local []tally, all *obs.Histogram) {
		for {
			idx, ok := sched.claim()
			if !ok {
				return
			}
			item := items[idx%int64(len(items))]
			st := &local[item.target]
			tp := newTraceparent()
			begin := time.Now()
			decisions, status, err := post(client, fl.bases[item.target]+suffix, tp, item.payload, batch)
			took := time.Since(begin)
			switch {
			case status == http.StatusTooManyRequests:
				st.rejected++
				continue
			case err != nil || status != http.StatusOK:
				st.errors++
				continue
			}
			st.answered(took, traceHex(tp), all)
			for i, dec := range decisions {
				if i < len(item.attacks) {
					st.classify(dec, item.attacks[i])
				}
			}
		}
	})
}

// mode names the driving strategy for the machine-readable summary.
func mode(stream bool, batch int) string {
	switch {
	case stream:
		return "stream"
	case batch > 1:
		return "batch"
	}
	return "detect"
}

// streamWindow bounds how many request lines each stream client keeps in
// flight: the writer blocks pushing into the window once it is full, so a
// slow server applies backpressure instead of letting the pipe buffer grow.
const streamWindow = 128

// inflight is the ground truth a stream writer records per request line for
// the reader to match against the response line in order.
type inflight struct {
	begin  time.Time
	attack bool
}

// runStream drives the corpus through /v1/detect/stream: one long-lived POST
// per client, a writer goroutine pipelining request lines, and the client
// goroutine reading response lines in request order. Latency is line-written
// to line-answered, which includes queueing inside the window — the price of
// measuring a pipeline rather than a round trip.
func runStream(client *http.Client, base string, items []corpusItem, clients int, sched *schedule) (*tally, []*tally) {
	endpoint := base + "/v1/detect/stream"
	// Batch-1 detect bodies are single-line JSON, so NDJSON framing is just
	// a newline suffix, appended once here rather than per write.
	for i := range items {
		items[i].payload = append(items[i].payload, '\n')
	}
	return drive(clients, 1, func(local []tally, all *obs.Histogram) {
		streamClient(client, endpoint, items, sched, &local[0], all)
	})
}

// streamClient runs one connection's writer/reader pair to completion. The
// connection carries one traceparent: line latency is pipeline latency, so
// the useful trace unit is the connection's stream span, not a per-line id.
func streamClient(client *http.Client, endpoint string, items []corpusItem, sched *schedule, st *tally, all *obs.Histogram) {
	connTP := newTraceparent()
	pr, pw := io.Pipe()
	window := make(chan inflight, streamWindow)

	// Writer: claims corpus slots from the schedule, records the ground
	// truth in the window, then ships the line. Lines are buffered and
	// flushed before the window can block, so the server always holds every
	// line the reader is waiting on.
	go func() {
		bw := bufio.NewWriterSize(pw, 16*1024)
		var werr error
		for werr == nil {
			idx, ok := sched.claim()
			if !ok {
				break
			}
			item := items[idx%int64(len(items))]
			if len(window) == cap(window) {
				if werr = bw.Flush(); werr != nil {
					break
				}
			}
			window <- inflight{begin: time.Now(), attack: item.attacks[0]}
			_, werr = bw.Write(item.payload)
		}
		if werr == nil {
			werr = bw.Flush()
		}
		// A write error means the server tore the stream down; the reader
		// sees the cause on its side. Either way the request body ends now.
		pw.CloseWithError(werr)
		close(window)
	}()
	// Every return counts the requests the server never answered, after
	// making sure the writer cannot stay blocked on the pipe.
	defer func() {
		pr.CloseWithError(fmt.Errorf("response stream ended"))
		for range window {
			st.errors++
		}
	}()

	req, err := http.NewRequest("POST", endpoint, pr)
	if err != nil {
		fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("Traceparent", connTP)
	resp, err := client.Do(req)
	if err != nil {
		st.errors++
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		st.errors++
		return
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		sent, open := <-window
		if !open {
			// More response lines than requests: a stream-level error line
			// appended after the last answer, or a protocol bug. Count it
			// and stop matching.
			st.errors++
			break
		}
		decision, lineErr := streamDecision(line)
		if lineErr != nil {
			st.errors++
			continue
		}
		st.answered(time.Since(sent.begin), traceHex(connTP), all)
		st.classify(decision, sent.attack)
	}
	if err := sc.Err(); err != nil {
		st.errors++
	}
}

// decisionMark is the response-line prefix of the decision value. Scanning
// for it beats a full json.Unmarshal per line, and at stream rates the
// client's parsing shares a CPU budget with the server under test.
var decisionMark = []byte(`"verdict":{"decision":"`)

// streamDecision extracts the verdict decision from one response line, or
// the error the line carries. The fast path byte-scans for the decision
// field; anything it cannot place exactly falls back to real JSON decoding.
func streamDecision(line []byte) (string, error) {
	if i := bytes.Index(line, decisionMark); i >= 0 {
		rest := line[i+len(decisionMark):]
		if j := bytes.IndexByte(rest, '"'); j > 0 {
			switch string(rest[:j]) { // compiler avoids the conversion alloc
			case "normal":
				return "normal", nil
			case "suspicious":
				return "suspicious", nil
			case "attacked":
				return "attacked", nil
			}
		}
	}
	var lr struct {
		Verdict struct {
			Decision string `json:"decision"`
		} `json:"verdict"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(line, &lr); err != nil {
		return "", err
	}
	if lr.Error != "" {
		return "", fmt.Errorf("server: %s", lr.Error)
	}
	if lr.Verdict.Decision == "" {
		return "", fmt.Errorf("response line carries no decision: %.120s", line)
	}
	return lr.Verdict.Decision, nil
}

// newTraceparent mints one client-rooted W3C traceparent. Every load request
// carries its own, so a slow request seen in the report can be looked up by
// trace id in the server's /debug/traces ring.
func newTraceparent() string {
	return obs.FormatTraceparent(obs.NewTraceID(), obs.NewSpanID())
}

// traceHex extracts the 32-hex trace id from a traceparent header value.
func traceHex(tp string) string { return tp[3:35] }

// post issues one request and extracts the verdict decisions.
func post(client *http.Client, endpoint, traceparent string, payload []byte, batch int) ([]string, int, error) {
	req, err := http.NewRequest("POST", endpoint, bytes.NewReader(payload))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode, nil
	}
	if batch == 1 {
		var dr service.DetectResponse
		if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
			return nil, resp.StatusCode, err
		}
		return []string{dr.Verdict.Decision}, resp.StatusCode, nil
	}
	var br service.BatchDetectResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return nil, resp.StatusCode, err
	}
	decisions := make([]string, len(br.Verdicts))
	for i, v := range br.Verdicts {
		decisions[i] = v.Decision
	}
	return decisions, resp.StatusCode, nil
}

// quantile estimates the q-quantile in seconds, clamped to the observed
// maximum (bucket interpolation can overshoot it in a sparse tail bucket).
func (t *tally) quantile(q float64) float64 {
	return min(t.latency.Quantile(q), t.latency.Max())
}

// rate is n/d, 0 when d is.
func rate(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// micros renders seconds as a duration rounded to the microsecond.
func micros(secs float64) time.Duration {
	return time.Duration(secs * float64(time.Second)).Round(time.Microsecond)
}

func (t *tally) report(w io.Writer, rows []replicaSummary) {
	fmt.Fprintf(w, "requests:       %d ok, %d rejected (429), %d errors in %s\n",
		t.ok, t.rejected, t.errors, t.elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "throughput:     %.0f req/s (%.0f route sets/s)\n",
		float64(t.ok)/t.elapsed.Seconds(), float64(t.scored)/t.elapsed.Seconds())
	if t.latency.Count() > 0 {
		fmt.Fprintf(w, "latency:        p50 %s  p95 %s  p99 %s  max %s\n",
			micros(t.quantile(0.50)), micros(t.quantile(0.95)), micros(t.quantile(0.99)), micros(t.latency.Max()))
	}
	if t.slowestTrace != "" {
		fmt.Fprintf(w, "slowest:        %s (trace %s — look it up under /debug/traces?trace=%s)\n",
			t.slowest.Round(time.Microsecond), t.slowestTrace, t.slowestTrace)
	}
	if t.attackSeen > 0 {
		fmt.Fprintf(w, "detection rate: %.3f (%d/%d wormhole route sets flagged)\n",
			rate(t.truePos, t.attackSeen), t.truePos, t.attackSeen)
	}
	if t.normSeen > 0 {
		fmt.Fprintf(w, "false positives: %.3f (%d/%d normal route sets flagged)\n",
			rate(t.falsePos, t.normSeen), t.falsePos, t.normSeen)
	}
	for _, rs := range rows {
		line := fmt.Sprintf("replica %-28s %d ok, %d rejected, %d errors, %.0f req/s",
			rs.Addr+":", rs.OK, rs.Rejected, rs.Errors, rs.RequestsPerS)
		if rs.OK > 0 {
			line += fmt.Sprintf(", p50 %s, p95 %s, p99 %s, detection %.3f",
				micros(rs.P50S), micros(rs.P95S), micros(rs.P99S), rs.DetectionRate)
		}
		fmt.Fprintln(w, line)
	}
}

// summary is the machine-readable run record emitted as the last stdout
// line, so CI can `tail -n 1` and parse one JSON object.
type summary struct {
	Mode          string  `json:"mode"`
	OK            int64   `json:"ok"`
	Rejected      int64   `json:"rejected"`
	Errors        int64   `json:"errors"`
	ElapsedS      float64 `json:"elapsed_s"`
	RequestsPerS  float64 `json:"req_per_s"`
	SetsPerS      float64 `json:"sets_per_s"`
	P50S          float64 `json:"p50_s"`
	P95S          float64 `json:"p95_s"`
	P99S          float64 `json:"p99_s"`
	MaxS          float64 `json:"max_s"`
	DetectionRate float64 `json:"detection_rate"`
	FalsePosRate  float64 `json:"false_positive_rate"`
	// SlowestS/SlowestTraceID identify the slowest ok request for follow-up
	// against the server's /debug/traces ring.
	SlowestS       float64 `json:"slowest_s,omitempty"`
	SlowestTraceID string  `json:"slowest_trace_id,omitempty"`
	// Replicas breaks the run down per replica in -addrs fleet mode.
	Replicas []replicaSummary `json:"replicas,omitempty"`
}

// replicaSummary is one replica's row in the fleet summary.
type replicaSummary struct {
	Addr          string  `json:"addr"`
	OK            int64   `json:"ok"`
	Rejected      int64   `json:"rejected"`
	Errors        int64   `json:"errors"`
	RequestsPerS  float64 `json:"req_per_s"`
	P50S          float64 `json:"p50_s"`
	P95S          float64 `json:"p95_s"`
	P99S          float64 `json:"p99_s"`
	DetectionRate float64 `json:"detection_rate"`
}

// row renders t as one replica's summary row.
func (t *tally) row(addr string) replicaSummary {
	rs := replicaSummary{Addr: addr, OK: t.ok, Rejected: t.rejected, Errors: t.errors,
		DetectionRate: rate(t.truePos, t.attackSeen)}
	if t.elapsed > 0 {
		rs.RequestsPerS = float64(t.ok) / t.elapsed.Seconds()
	}
	if t.latency.Count() > 0 {
		rs.P50S, rs.P95S, rs.P99S = t.quantile(0.50), t.quantile(0.95), t.quantile(0.99)
	}
	return rs
}

func (t *tally) summaryJSON(w io.Writer, mode string, rows []replicaSummary) {
	r := t.row("")
	s := summary{
		Mode: mode, OK: r.OK, Rejected: r.Rejected, Errors: r.Errors, ElapsedS: t.elapsed.Seconds(),
		RequestsPerS: r.RequestsPerS, P50S: r.P50S, P95S: r.P95S, P99S: r.P99S,
		DetectionRate: r.DetectionRate, FalsePosRate: rate(t.falsePos, t.normSeen),
		Replicas: rows,
	}
	if t.elapsed > 0 {
		s.SetsPerS = float64(t.scored) / t.elapsed.Seconds()
	}
	if t.latency.Count() > 0 {
		s.MaxS = t.latency.Max()
	}
	if t.slowestTrace != "" {
		s.SlowestS, s.SlowestTraceID = t.slowest.Seconds(), t.slowestTrace
	}
	blob, err := json.Marshal(s)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", blob)
}

// scrapeServerMetrics fetches the server's Prometheus exposition after the
// run and logs the server-side view of the load: detections by decision,
// trainings, and peak queue pressure. Missing /metrics (older or remote
// servers) only downgrades the log, never the benchmark.
func scrapeServerMetrics(client *http.Client, base string) {
	resp, err := client.Get(base + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			err = fmt.Errorf("status %s", resp.Status)
		}
		logger.Info("server metrics unavailable", "err", err.Error())
		return
	}
	defer resp.Body.Close()

	// Sum each counter family over its label sets; enough structure for a
	// one-line operational log without a real exposition parser.
	totals := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(f) {
			continue
		}
		totals[name] += f
	}
	logger.Info("server metrics",
		"detections", totals["samserve_detections_total"],
		"requests", totals["samserve_requests_total"],
		"trainings", totals["samserve_profile_trainings_total"],
		"decisions_recorded", totals["samserve_decisions_recorded"],
		"latency_count", totals["samserve_request_duration_seconds_count"])
}

func fatal(err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}
