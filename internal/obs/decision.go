package obs

import (
	"sort"
	"sync/atomic"
)

// DecisionLink is one link in a decision record's frequency table: an
// undirected link with its occurrence count and relative frequency.
type DecisionLink struct {
	A     int     `json:"a"`
	B     int     `json:"b"`
	Count int     `json:"count,omitempty"`
	P     float64 `json:"p,omitempty"`
}

// Decision is one explainable SAM verdict: everything the destination used
// to judge a route set, flattened into plain types so the record can travel
// through JSON (the /detect "explain" field, GET /debug/decisions) without
// dragging in the detector's internal types.
//
// The schema mirrors the paper's §IV decision procedure: the per-link
// frequency table the statistics are computed from, both feature statistics
// (as raw values and as z-scores against the trained profile) next to the
// thresholds that turn them into risk, the PMF total-variation distance, the
// localized (accused) link, and the soft decision lambda with its verdict
// partition.
type Decision struct {
	// Seq is the record's position in the emitting ring, assigned at
	// Record time; strictly increasing within one ring.
	Seq uint64 `json:"seq"`
	// Profile names the trained profile the route set was scored against.
	Profile string `json:"profile,omitempty"`

	// Routes is |R|, N the total non-distinct link count across R.
	Routes int `json:"routes"`
	N      int `json:"n"`
	// Links is the per-link frequency table, most frequent first.
	Links []DecisionLink `json:"links,omitempty"`

	// PMax and Phi are the observed feature statistics; ZPMax and ZPhi
	// their deviations from the trained means in trained standard
	// deviations; TV the PMF total-variation distance.
	PMax  float64 `json:"p_max"`
	Phi   float64 `json:"phi"`
	TV    float64 `json:"tv"`
	ZPMax float64 `json:"z_pmax"`
	ZPhi  float64 `json:"z_phi"`

	// The detector thresholds the statistics were judged against: z-score
	// and TV risk ramps, and the lambda partition.
	ZLow          float64 `json:"z_low"`
	ZHigh         float64 `json:"z_high"`
	TVLow         float64 `json:"tv_low"`
	TVHigh        float64 `json:"tv_high"`
	SuspectLambda float64 `json:"suspect_lambda"`
	AttackLambda  float64 `json:"attack_lambda"`

	// Suspect is the localized link — under attack, the tunnel — and
	// Lambda/Decision the soft and hard verdicts.
	Suspect  DecisionLink `json:"suspect"`
	Lambda   float64      `json:"lambda"`
	Decision string       `json:"decision"`

	// Kind distinguishes record flavours: empty for step-1 detection
	// records, "verify" for step-2 probe verdicts.
	Kind string `json:"kind,omitempty"`
	// Likelihood and Evidence carry a verify record's probe outcome: the
	// incriminating evidence mass fraction and the typed records behind it.
	Likelihood float64            `json:"likelihood,omitempty"`
	Evidence   []DecisionEvidence `json:"evidence,omitempty"`

	// TraceID links the decision to its request trace (/debug/traces) when
	// tracing was on. Ring-only: response bodies never carry it, so output
	// stays byte-identical with tracing on or off.
	TraceID string `json:"trace_id,omitempty"`
}

// DecisionEvidence is one probe evidence record inside a verify decision,
// flattened for JSON travel like the rest of the Decision schema.
type DecisionEvidence struct {
	Kind    string  `json:"kind"`
	Route   string  `json:"route,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
	At      float64 `json:"at"`
}

// DecisionRing retains the most recent decision records in a fixed-size
// lock-free ring. Writers claim a slot with one atomic increment and publish
// the record with one atomic pointer store; readers snapshot without
// blocking writers.
//
// A ring captures exactly when it is non-nil. A nil *DecisionRing is valid
// and captures nothing, so callers can thread "maybe telemetry" without nil
// checks, and capture off costs one branch and zero allocations on the
// detect hot path.
type DecisionRing struct {
	ring[Decision]
}

// ring is the fixed-size lock-free ring behind DecisionRing and the Tracer:
// one atomic increment claims a sequence number and its slot, one atomic
// pointer store publishes the record.
type ring[T any] struct {
	seq   atomic.Uint64
	slots []atomic.Pointer[T]
	seqOf func(*T) *uint64 // the record's Seq field
}

// record gives v the next sequence number and publishes it.
func (r *ring[T]) record(v T) {
	seq := r.seq.Add(1)
	*r.seqOf(&v) = seq
	r.slots[(seq-1)%uint64(len(r.slots))].Store(&v)
}

// snapshot returns a copy of the retained records, oldest first by seq.
// Concurrent records may or may not be included; each returned record is
// internally consistent because publication is a single pointer store.
func (r *ring[T]) snapshot() []T {
	out := make([]T, 0, len(r.slots))
	for i := range r.slots {
		if p := r.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	// Slot order is ring order, not age order; sort by the global sequence.
	sort.Slice(out, func(i, j int) bool { return *r.seqOf(&out[i]) < *r.seqOf(&out[j]) })
	return out
}

// NewDecisionRing builds a ring retaining the last size records. It panics
// if size is below 1.
func NewDecisionRing(size int) *DecisionRing {
	if size < 1 {
		panic("obs: DecisionRing size must be at least 1")
	}
	return &DecisionRing{ring[Decision]{
		slots: make([]atomic.Pointer[Decision], size),
		seqOf: func(d *Decision) *uint64 { return &d.Seq },
	}}
}

// Enabled reports whether Record captures: whether r is non-nil.
func (r *DecisionRing) Enabled() bool { return r != nil }

// Cap returns the ring capacity. Nil-safe (0).
func (r *DecisionRing) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Recorded returns how many records have ever been accepted. Nil-safe (0).
func (r *DecisionRing) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Record captures d (assigning its Seq) unless the ring is nil. Callers on
// hot paths should guard record construction with Enabled so the capture-off
// case stays allocation-free:
//
//	if ring.Enabled() {
//	    ring.Record(buildDecision(...))
//	}
func (r *DecisionRing) Record(d Decision) {
	if !r.Enabled() {
		return
	}
	r.record(d)
}

// Snapshot returns a copy of the retained records, oldest first. Concurrent
// Records may or may not be included; each returned record is internally
// consistent because publication is a single pointer store.
func (r *DecisionRing) Snapshot() []Decision {
	if r == nil {
		return nil
	}
	return r.snapshot()
}
