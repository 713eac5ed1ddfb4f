package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"samnet/internal/attack"
	"samnet/internal/cluster"
	"samnet/internal/routing"
	"samnet/internal/sam"
	"samnet/internal/service"
)

// The serve workloads drive the detection service the way an operator's
// clients do: route sets from the same generator cmd/samload uses, over
// loopback HTTP to in-process servers. serve-detect is one samserve hit by
// open-loop single requests; serve-fleet is two replicas behind a gateway,
// hit by a pipelined stream plus a trickle of training writes.

// serveSpec is one serve workload's shape.
type serveSpec struct {
	topo     topoFunc
	profiles int // profile shards, trained identically
	replicas int // 0 = one samserve, no gateway
	perCond  int // corpus route sets per condition (normal, attacked)
}

const trainSets = 30 // normal route sets per training request, as samload

var serveSpecs = map[string]serveSpec{
	"serve-detect": {topo: clusterB(1), profiles: 8, perCond: 256},
	"serve-fleet":  {topo: uniformB(10, 6, 1), profiles: 16, replicas: 2, perCond: 128},
}

// item is one corpus route set with its pre-marshalled request bodies.
type item struct {
	profile string
	routes  []routing.Route
	attack  bool
	body    []byte // detect request, adaptive updates on
	frozen  []byte // the same with "update":false
	line    []byte // body + '\n', one NDJSON stream line
	links   int    // total links, echoed as the verdict's "n"
}

type corpus struct {
	train     [][]routing.Route
	trainBody []byte // the training request for every shard
	items     []item
}

// genCorpus builds the training sets and the alternating normal/attacked
// corpus on one topology, with samload's seeding scheme, so a seed names
// the same route sets here and in cmd/samload.
func genCorpus(d *caller, spec serveSpec, names []string) corpus {
	net := d.build(spec.topo, d.seed, 0, -1, 0)
	var sc scratch
	discover := func(n int, base uint64) [][]routing.Route {
		out := make([][]routing.Route, n)
		rng := rand.New(rand.NewPCG(base, 0x10ad))
		for i := range out {
			req := d.tr.newReq()
			root := d.tr.begin("bench.run", -1, req)
			src, dst := net.PickPair(rng)
			simNet := d.network(&sc, net.Topo, base+uint64(i)*7919, root, req)
			out[i] = d.discover(mrProto(), simNet, src, dst, root, req).Routes
			d.tr.end(root)
		}
		return out
	}
	train := discover(trainSets, d.seed)
	normal := discover(spec.perCond, d.seed+1_000_000)
	atk := d.scenario(net, 1, attack.Forward, -1, 0)
	attacked := discover(spec.perCond, d.seed+2_000_000)
	d.teardown(atk, -1, 0)

	c := corpus{train: train}
	sets := make([][][]int, len(train))
	for i, r := range train {
		sets[i] = routesJSON(r)
	}
	c.trainBody = mustJSON(service.TrainRequest{RouteSets: sets})
	off := false
	for i := 0; i < 2*spec.perCond; i++ {
		routes, isAttack := normal[i/2], false
		if i%2 == 1 {
			routes, isAttack = attacked[i/2], true
		}
		// Shards go in pairs so every shard scores both labels.
		name := names[(i/2)%len(names)]
		set := routesJSON(routes)
		it := item{profile: name, routes: routes, attack: isAttack,
			body:   mustJSON(service.DetectRequest{Profile: name, Routes: set}),
			frozen: mustJSON(service.DetectRequest{Profile: name, Routes: set, Update: &off}),
		}
		it.line = append(bytes.Clone(it.body), '\n')
		for _, r := range routes {
			it.links += len(r) - 1
		}
		c.items = append(c.items, it)
	}
	return c
}

func routesJSON(routes []routing.Route) [][]int {
	out := make([][]int, len(routes))
	for i, r := range routes {
		out[i] = make([]int, len(r))
		for j, id := range r {
			out[i][j] = int(id)
		}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func shardNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = "default-" + strconv.Itoa(i)
	}
	return names
}

// server is one in-process HTTP server on a loopback port.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// env is one booted serve workload.
type env struct {
	names    []string
	corpus   corpus
	svcs     []*service.Service
	replicas []*server
	gw       *cluster.Gateway
	gwSrv    *server
	front    string        // base URL the load targets
	ring     *cluster.Ring // replica placement, nil without a gateway
}

// owner returns the index of the replica holding profile.
func (e *env) owner(profile string) int {
	if e.ring == nil {
		return 0
	}
	addr := e.ring.Owner(profile)
	for i, r := range e.replicas {
		if r.url == addr {
			return i
		}
	}
	return 0
}

func (e *env) close() {
	if e.gwSrv != nil {
		e.gwSrv.close()
	}
	if e.gw != nil {
		e.gw.Close()
	}
	for i, r := range e.replicas {
		r.close()
		e.svcs[i].Close()
	}
}

// boot generates the corpus, starts the servers and trains every profile
// through the front end: the workload's set-up.
func boot(spec serveSpec, seed uint64, client *http.Client) (e *env, err error) {
	e = &env{names: shardNames(spec.profiles)}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	e.corpus = genCorpus(&caller{seed: seed}, spec, e.names)
	for range max(spec.replicas, 1) {
		svc := service.New(service.Config{})
		s, err := serve(svc.Handler())
		if err != nil {
			svc.Close()
			return nil, err
		}
		e.svcs, e.replicas = append(e.svcs, svc), append(e.replicas, s)
	}
	e.front = e.replicas[0].url
	if spec.replicas > 0 {
		urls := make([]string, len(e.replicas))
		for i, r := range e.replicas {
			urls[i] = r.url
		}
		if e.gw, err = cluster.NewGateway(cluster.GatewayConfig{Replicas: urls}); err != nil {
			return nil, err
		}
		e.ring = cluster.NewRing(urls)
		if e.gwSrv, err = serve(e.gw.Handler()); err != nil {
			return nil, err
		}
		e.front = e.gwSrv.url
	}
	for _, name := range e.names {
		if _, err := post(client, e.front+"/v1/profiles/"+name+"/train", e.corpus.trainBody, nil); err != nil {
			return nil, fmt.Errorf("training %s: %w", name, err)
		}
	}
	return e, nil
}

// post sends body and returns the response body, appended to buf; any
// status other than 200 is an error.
func post(client *http.Client, url string, body, buf []byte) ([]byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return buf, err
	}
	defer resp.Body.Close()
	out := bytes.NewBuffer(buf[:0])
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return out.Bytes(), err
	}
	if resp.StatusCode != http.StatusOK {
		return out.Bytes(), fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(out.Bytes()))
	}
	return out.Bytes(), nil
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return b, err
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// setupServe boots the workload setupRepeats times, keeping the last boot,
// and returns it with each boot's wall time.
func setupServe(r *report, spec serveSpec, seed uint64, client *http.Client) (*env, []float64) {
	var secs []float64
	var e *env
	for i := range setupRepeats {
		t0 := time.Now()
		next, err := boot(spec, seed, client)
		r.attempt(1)
		if err != nil {
			r.fail("set-up: %v", err)
			return nil, secs
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			next.close()
		}
		e = next
	}
	return e, secs
}

// verdictCheck is the frozen pass over the corpus that runs before any
// load: every verdict must be what the detector the experiments validate
// says on the profile the service exports, through every path to it.
func verdictCheck(r *report, e *env, client *http.Client, tr *tracer, workload string, seed uint64) {
	d := &caller{seed: seed, tr: tr}
	detectors := map[string]*sam.Detector{}
	local := d.train(e.names[0], trainStats(d, e.corpus.train), -1)
	for _, name := range e.names {
		blob, err := get(client, e.front+"/v1/profiles/"+name)
		r.attempt(1)
		if err != nil {
			r.fail("GET profile %s: %v", name, err)
			return
		}
		var pr service.ProfileResponse
		if err := json.Unmarshal(blob, &pr); err != nil || pr.Profile == nil {
			r.fail("profile %s: undecodable: %v", name, err)
			return
		}
		det := sam.NewDetector(pr.Profile, sam.DetectorConfig{})
		det.SetAdaptiveMeans(pr.PMaxMean, pr.PhiMean)
		detectors[name] = det
		if name == e.names[0] {
			r.check(bytes.Equal(mustJSON(local), mustJSON(pr.Profile)),
				"served profile %s differs from sam.Trainer over the same route sets", name)
		}
	}

	var flagged, attacked, falsePos, normal int
	var viaFront, viaReplica []byte
	for i, it := range e.corpus.items {
		var err error
		viaFront, err = post(client, e.front+"/v1/detect", it.frozen, viaFront)
		r.attempt(1)
		if err != nil {
			r.fail("frozen detect %d: %v", i, err)
			continue
		}
		if e.gw != nil {
			viaReplica, err = post(client, e.replicas[e.owner(it.profile)].url+"/v1/detect", it.frozen, viaReplica)
			r.check(err == nil && bytes.Equal(viaFront, viaReplica),
				"item %d: gateway verdict %q, replica verdict %q (%v)", i, viaFront, viaReplica, err)
		}
		var resp service.DetectResponse
		if err := json.Unmarshal(viaFront, &resp); err != nil {
			r.fail("item %d: undecodable verdict %q", i, viaFront)
			continue
		}
		req := tr.newReq()
		want := d.evaluate(detectors[it.profile], d.analyze(it.routes, -1, req), -1, req).Decision.String()
		r.check(resp.Verdict.Decision == want, "item %d (%s): served %q, sam.Detector %q", i, it.profile, resp.Verdict.Decision, want)
		positive := resp.Verdict.Decision != "normal"
		if it.attack {
			attacked++
			if positive {
				flagged++
			}
		} else {
			normal++
			if positive {
				falsePos++
			}
		}
	}
	det, fp := float64(flagged)/float64(attacked), float64(falsePos)/float64(normal)
	r.note("accuracy", "detection rate %.4f (%d/%d), false positives %.4f (%d/%d)", det, flagged, attacked, fp, falsePos, normal)
	if pin, ok := pinned.Serve[workload]; ok && seed == pinnedSeed {
		r.check(det == pin.DetectionRate && fp == pin.FalsePositiveRate,
			"at seed %d: detection %v false positives %v, pinned %v and %v", seed, det, fp, pin.DetectionRate, pin.FalsePositiveRate)
	}
}

func trainStats(d *caller, sets [][]routing.Route) []sam.Stats {
	out := make([]sam.Stats, len(sets))
	for i, routes := range sets {
		out[i] = d.analyze(routes, -1, 0)
	}
	return out
}

// scrapeTotal sums every sample of a metric family, optionally filtered by
// a label substring, from a Prometheus exposition.
func scrapeTotal(expo []byte, family, label string) float64 {
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(expo))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		base, labels, _ := strings.Cut(name, "{")
		if base != family || !strings.Contains(labels, label) {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			total += f
		}
	}
	return total
}
