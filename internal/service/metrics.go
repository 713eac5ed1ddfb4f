package service

import (
	"net/http"
	"time"

	"samnet/internal/obs"
	"samnet/internal/sam"
	"samnet/internal/verify"
)

// metrics bundles the service's pre-resolved obs instruments. Every series is
// registered up front (at New, as each route is instrumented), so the
// request hot path never touches the registry's mutex — it only increments
// atomics it already holds pointers to.
type metrics struct {
	reg *obs.Registry

	// Per-detection instruments: one counter per hard decision plus the
	// distributions of the paper's statistics as scored in production.
	detections   [3]*obs.Counter // indexed by sam.Decision
	detectPMax   *obs.Histogram
	detectPhi    *obs.Histogram
	detectTV     *obs.Histogram
	detectLambda *obs.Histogram

	// Step-2 verification instruments: one counter per probe outcome, one
	// per evidence kind, and the likelihood distribution.
	verifications    map[string]*obs.Counter
	verifyEvidence   [verify.PairIsolated + 1]*obs.Counter // indexed by verify.Kind
	verifyLikelihood *obs.Histogram

	// Profile-store lifecycle counters. Evictions are labelled by cause:
	// an explicit DELETE, the idle-TTL sweep, or the max-profiles LRU cap.
	trainings    *obs.Counter
	loads        *obs.Counter
	evictDelete  *obs.Counter
	evictTTL     *obs.Counter
	evictLRU     *obs.Counter
	snapshots    *obs.Counter
	snapshotErrs *obs.Counter

	// respErrors counts response bodies that failed after the status line was
	// committed — the one failure a JSON API cannot report in-band (a 200 with
	// truncated JSON used to be silent; now it is at least observable).
	respErrors *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{reg: reg}
	for d := sam.Normal; d <= sam.Attacked; d++ {
		m.detections[d] = reg.Counter("samserve_detections_total",
			"Scored route sets, by hard decision.",
			obs.Label{Key: "decision", Value: d.String()})
	}
	m.detectPMax = reg.Histogram("samserve_detect_pmax",
		"Observed p_max (max link relative frequency) per scored route set.", obs.RatioBuckets)
	m.detectPhi = reg.Histogram("samserve_detect_phi",
		"Observed phi (normalized top-two frequency gap) per scored route set.", obs.RatioBuckets)
	m.detectTV = reg.Histogram("samserve_detect_tv",
		"PMF total-variation distance from the trained profile per scored route set.", obs.RatioBuckets)
	m.detectLambda = reg.Histogram("samserve_detect_lambda",
		"Soft decision lambda per scored route set (0 attacked, 1 normal).", obs.RatioBuckets)
	m.verifications = make(map[string]*obs.Counter, 4)
	for _, outcome := range []string{"condemned", "cleared", "unproven", "refused"} {
		m.verifications[outcome] = reg.Counter("samserve_verifications_total",
			"Probe verifications served, by outcome.",
			obs.Label{Key: "outcome", Value: outcome})
	}
	for k := verify.AckValid; k <= verify.PairIsolated; k++ {
		m.verifyEvidence[k] = reg.Counter("samserve_verify_evidence_total",
			"Probe evidence records produced, by kind.",
			obs.Label{Key: "kind", Value: k.String()})
	}
	m.verifyLikelihood = reg.Histogram("samserve_verify_likelihood",
		"Incriminating evidence mass fraction per verified pair.", obs.RatioBuckets)
	m.trainings = reg.Counter("samserve_profile_trainings_total",
		"Successful training requests.")
	m.loads = reg.Counter("samserve_profile_loads_total",
		"Profiles installed from external snapshots (LoadProfile).")
	for _, c := range []struct {
		reason string
		dst    **obs.Counter
	}{{"delete", &m.evictDelete}, {"ttl", &m.evictTTL}, {"lru", &m.evictLRU}} {
		*c.dst = reg.Counter("samserve_profile_evictions_total",
			"Profiles evicted from the store, by cause (delete, ttl, lru).",
			obs.Label{Key: "reason", Value: c.reason})
	}
	m.snapshots = reg.Counter("samserve_snapshots_total",
		"Snapshot files written successfully (timer or shutdown).")
	m.snapshotErrs = reg.Counter("samserve_snapshot_errors_total",
		"Snapshot write attempts that failed.")
	m.respErrors = reg.Counter("samserve_response_errors_total",
		"Response bodies that failed to encode or write after the status was sent.")
	return m
}

// observeVerify feeds one probe verdict into the verification instruments.
func (m *metrics) observeVerify(v verify.Verdict, refused bool) {
	m.verifications[verifyOutcome(v, refused)].Inc()
	for _, e := range v.Evidence {
		if int(e.Kind) < len(m.verifyEvidence) && m.verifyEvidence[e.Kind] != nil {
			m.verifyEvidence[e.Kind].Inc()
		}
	}
	m.verifyLikelihood.Observe(v.Likelihood)
}

// observeVerdict feeds one scored verdict into the detection instruments.
func (m *metrics) observeVerdict(v sam.Verdict) {
	if d := int(v.Decision); d >= 0 && d < len(m.detections) {
		m.detections[d].Inc()
	}
	m.detectPMax.Observe(v.Stats.PMax)
	m.detectPhi.Observe(v.Stats.Phi)
	m.detectTV.Observe(v.TV)
	m.detectLambda.Observe(v.Lambda)
}

// endpointMetrics tracks one endpoint: request counts by status class and a
// latency histogram, resolved once at registration.
type endpointMetrics struct {
	byClass [6]*obs.Counter // index status/100; 0 collects anything odd
	latency *obs.Histogram
}

var classNames = [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

func (m *metrics) endpoint(name string) *endpointMetrics {
	em := &endpointMetrics{
		latency: m.reg.Histogram("samserve_request_duration_seconds",
			"Request latency.", obs.DefaultLatencyBuckets,
			obs.Label{Key: "endpoint", Value: name}),
	}
	// Only the classes a handler can actually answer are declared, keeping
	// the exposition focused; anything unexpected lands in "other".
	for _, class := range []int{0, 2, 4, 5} {
		em.byClass[class] = m.reg.Counter("samserve_requests_total",
			"Requests served, by endpoint and status class.",
			obs.Label{Key: "endpoint", Value: name},
			obs.Label{Key: "class", Value: classNames[class]})
	}
	return em
}

func (em *endpointMetrics) record(status int, d time.Duration) {
	class := status / 100
	if class < 0 || class >= len(em.byClass) || em.byClass[class] == nil {
		class = 0
	}
	em.byClass[class].Inc()
	em.latency.ObserveDuration(d)
}

// instrument wraps a handler with request counting, latency observation,
// and — when tracing is on — a server span under the given endpoint name
// (obs.Tracer.Serve). With a nil tracer the wrapper costs one nil check and
// allocates nothing: the zero-alloc detect guarantee does not move.
func (s *Service) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	em := s.metrics.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		status := s.cfg.Tracer.Serve(name, w, r, h)
		em.record(status, time.Since(begin))
	}
}
