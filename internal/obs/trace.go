package obs

// Distributed tracing for the serving fleet, in the same zero-dependency,
// observe-only discipline as the rest of this package. A Tracer hands out
// trace/span identities, propagates them in W3C trace-context style
// ("traceparent" header), and retains completed spans in lock-free rings —
// one for recent spans, one for spans over a slow threshold. Tracing is on
// exactly when the tracer is non-nil, so tracing off costs one branch and
// zero allocations on the detect hot path.
//
// The contract mirrors DecisionRing's: writers claim a slot with one atomic
// increment and publish with one atomic pointer store; readers snapshot
// without blocking writers; nothing in here may perturb request handling or
// response bytes. Spans are records about requests, never inputs to them.

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sync/atomic"
	"time"
)

// TraceID is a 16-byte trace identity, rendered as 32 lowercase hex digits.
// The all-zero value is invalid, as in the W3C trace-context spec.
type TraceID [16]byte

// SpanID is an 8-byte span identity, rendered as 16 lowercase hex digits.
// The all-zero value is invalid.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero identity.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero identity.
func (s SpanID) IsZero() bool { return s == SpanID{} }

const hexDigits = "0123456789abcdef"

func appendHex(dst []byte, src []byte) []byte {
	for _, b := range src {
		dst = append(dst, hexDigits[b>>4], hexDigits[b&0x0f])
	}
	return dst
}

// String renders the trace id as 32 lowercase hex digits.
func (t TraceID) String() string { return string(appendHex(make([]byte, 0, 32), t[:])) }

// String renders the span id as 16 lowercase hex digits.
func (s SpanID) String() string { return string(appendHex(make([]byte, 0, 16), s[:])) }

// traceparentLen is the exact length of a version-00 traceparent value:
// "00-" + 32 trace hex + "-" + 16 span hex + "-" + 2 flag hex.
const traceparentLen = 55

// FormatTraceparent renders a version-00 traceparent header value with the
// sampled flag set: "00-<trace>-<span>-01".
func FormatTraceparent(t TraceID, s SpanID) string {
	b := make([]byte, 0, traceparentLen)
	b = append(b, '0', '0', '-')
	b = appendHex(b, t[:])
	b = append(b, '-')
	b = appendHex(b, s[:])
	b = append(b, '-', '0', '1')
	return string(b)
}

// hexNibble decodes one lowercase-or-uppercase hex digit, reporting failure
// without error allocation (the parser runs per request).
func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

func decodeHex(dst []byte, s string) bool {
	for i := range dst {
		hi, ok1 := hexNibble(s[2*i])
		lo, ok2 := hexNibble(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

// ParseTraceparent parses a W3C traceparent header value. Version 00 must be
// exactly 55 bytes; a future (non-ff) version may carry a "-"-prefixed tail,
// which is ignored. The zero trace or span id is rejected, per the spec.
func ParseTraceparent(s string) (TraceID, SpanID, bool) {
	var t TraceID
	var sp SpanID
	if len(s) < traceparentLen || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return t, sp, false
	}
	v1, ok1 := hexNibble(s[0])
	v2, ok2 := hexNibble(s[1])
	if !ok1 || !ok2 {
		return t, sp, false
	}
	version := v1<<4 | v2
	if version == 0xff {
		return t, sp, false
	}
	if len(s) > traceparentLen && (version == 0 || s[traceparentLen] != '-') {
		return t, sp, false
	}
	if !decodeHex(t[:], s[3:35]) || !decodeHex(sp[:], s[36:52]) {
		return t, sp, false
	}
	if _, ok := hexNibble(s[53]); !ok {
		return t, sp, false
	}
	if _, ok := hexNibble(s[54]); !ok {
		return t, sp, false
	}
	if t.IsZero() || sp.IsZero() {
		return t, sp, false
	}
	return t, sp, true
}

// idState seeds trace/span id generation: a process-global splitmix64 walk
// over an atomic counter. splitmix64 is the same mixer the cluster ring uses;
// one atomic add plus a few multiplies per id, no locks, no allocation.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32 ^ 0x9e3779b97f4a7c15)
}

func nextID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func put64(dst []byte, v uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = byte(v >> (56 - 8*i))
	}
}

// NewTraceID draws a fresh random trace id (never zero).
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		put64(t[:8], nextID())
		put64(t[8:], nextID())
	}
	return t
}

// NewSpanID draws a fresh random span id (never zero).
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		put64(s[:], nextID())
	}
	return s
}

// SpanContext identifies one live span: the ids plus the pre-rendered
// traceparent value outbound propagation reuses, so forwarding a trace never
// re-renders hex on a per-hop basis.
type SpanContext struct {
	traceID TraceID
	spanID  SpanID
	header  string
}

// Valid reports whether the context carries a real trace identity.
func (c SpanContext) Valid() bool { return !c.traceID.IsZero() && !c.spanID.IsZero() }

// Traceparent returns the header value propagating this span as the parent
// of downstream work ("" for a context parsed from a remote header, which is
// never re-propagated verbatim).
func (c SpanContext) Traceparent() string { return c.header }

// TraceHex returns the 32-digit hex trace id without allocating: it aliases
// the pre-rendered header when one exists.
func (c SpanContext) TraceHex() string {
	if len(c.header) == traceparentLen {
		return c.header[3:35]
	}
	if c.traceID.IsZero() {
		return ""
	}
	return c.traceID.String()
}

// SpanHex returns the 16-digit hex span id, aliasing the header like TraceHex.
func (c SpanContext) SpanHex() string {
	if len(c.header) == traceparentLen {
		return c.header[36:52]
	}
	if c.spanID.IsZero() {
		return ""
	}
	return c.spanID.String()
}

type spanCtxKey struct{}

// ContextWithSpan attaches a span context for downstream propagation. Only
// call it when tracing is enabled: context.WithValue allocates, and the
// tracing-off path must not.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext returns the request's span context, if one was attached.
// The miss path is a plain context walk: no allocation, safe per request.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok
}

// ParentFromRequest extracts the inbound traceparent header as a parent span
// context. It indexes the canonical header key directly, so an untraced
// request costs one map lookup and zero allocations.
func ParentFromRequest(r *http.Request) SpanContext {
	vals := r.Header["Traceparent"]
	if len(vals) == 0 {
		return SpanContext{}
	}
	t, s, ok := ParseTraceparent(vals[0])
	if !ok {
		return SpanContext{}
	}
	return SpanContext{traceID: t, spanID: s}
}

// Span is one completed operation: a server request, a per-line stream
// score, or a gateway hop. Ids travel as hex strings so the record greps the
// same way it propagates.
type Span struct {
	// Seq is the record's position in the emitting ring, assigned at record
	// time; strictly increasing within one ring.
	Seq     uint64 `json:"seq"`
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	// Parent is the hex span id this span was created under: the gateway's
	// span for a replica request, the stream request's span for a per-line
	// span, a remote client's span for an externally initiated trace. Empty
	// for trace roots.
	Parent string `json:"parent_span_id,omitempty"`
	// Name is the endpoint or operation name (instrumentation label).
	Name string `json:"name"`
	// Status is the HTTP status the operation answered (0 when not HTTP).
	Status      int   `json:"status,omitempty"`
	StartUnixNS int64 `json:"start_unix_ns"`
	DurationNS  int64 `json:"duration_ns"`
	// Slow marks spans at or over the tracer's slow threshold; they are
	// retained in the dedicated slow ring as well as the recent one.
	Slow bool `json:"slow,omitempty"`
}

// spanSeq is the ring key of a span: its Seq field.
func spanSeq(sp *Span) *uint64 { return &sp.Seq }

// Tracer creates spans and retains the completed ones. A nil *Tracer is
// valid and traces nothing, so services thread "maybe tracing" without nil
// checks — the same contract as DecisionRing.
type Tracer struct {
	slowNS int64
	recent ring[Span]
	slow   ring[Span]
}

// NewTracer builds a tracer retaining the last size spans plus a
// quarter-size ring of spans at or over slowThreshold (slowThreshold <= 0
// disables slow capture). It panics if size is below 1.
func NewTracer(size int, slowThreshold time.Duration) *Tracer {
	if size < 1 {
		panic("obs: Tracer size must be at least 1")
	}
	slowSize := size / 4
	if slowSize < 1 {
		slowSize = 1
	}
	return &Tracer{
		slowNS: int64(slowThreshold),
		recent: ring[Span]{slots: make([]atomic.Pointer[Span], size), seqOf: spanSeq},
		slow:   ring[Span]{slots: make([]atomic.Pointer[Span], slowSize), seqOf: spanSeq},
	}
}

// Enabled reports whether Start/Finish capture: whether t is non-nil.
func (t *Tracer) Enabled() bool { return t != nil }

// Cap returns the recent-span ring capacity. Nil-safe (0).
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.recent.slots)
}

// Recorded returns how many spans have ever been recorded. Nil-safe (0).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.recent.seq.Load()
}

// SlowThreshold returns the slow-capture threshold (0 when disabled).
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.slowNS)
}

// ActiveSpan is a started, unfinished span. It is a plain value — starting a
// span allocates only the pre-rendered propagation header.
type ActiveSpan struct {
	ctx    SpanContext
	parent SpanID
	name   string
	begin  time.Time
}

// Context returns the span's identity for propagation.
func (a ActiveSpan) Context() SpanContext { return a.ctx }

// Start begins a span under parent: the parent's trace is continued when it
// is valid, otherwise a fresh trace is rooted. Callers on hot paths must
// guard with Enabled so tracing off stays allocation-free; Start on a nil
// tracer returns an inert span Finish ignores.
func (t *Tracer) Start(name string, parent SpanContext) ActiveSpan {
	if !t.Enabled() {
		return ActiveSpan{}
	}
	trace := parent.traceID
	if trace.IsZero() {
		trace = NewTraceID()
	}
	span := NewSpanID()
	return ActiveSpan{
		ctx:    SpanContext{traceID: trace, spanID: span, header: FormatTraceparent(trace, span)},
		parent: parent.spanID,
		name:   name,
		begin:  time.Now(),
	}
}

// Finish completes a span and records it, stamping duration and status. The
// slow ring additionally retains it when the duration reaches the threshold.
// Inert spans (from a nil tracer's Start) and nil tracers are no-ops.
func (t *Tracer) Finish(a ActiveSpan, status int) {
	if t == nil || !a.ctx.Valid() {
		return
	}
	d := time.Since(a.begin)
	sp := Span{
		TraceID:     a.ctx.TraceHex(),
		SpanID:      a.ctx.SpanHex(),
		Name:        a.name,
		Status:      status,
		StartUnixNS: a.begin.UnixNano(),
		DurationNS:  int64(d),
	}
	if !a.parent.IsZero() {
		sp.Parent = a.parent.String()
	}
	if t.slowNS > 0 && int64(d) >= t.slowNS {
		sp.Slow = true
		t.slow.record(sp)
	}
	t.recent.record(sp)
}

// Serve runs h as one request span named name and returns the status h
// answered: the one traced-request wrapper behind samserve's and samgate's
// per-endpoint instrumentation. With tracing on it continues the caller's
// trace (or roots a new one), echoes the span in the Traceparent response
// header so clients and the access log can join the trace, hands the span
// context to h through the request context for downstream propagation, and
// records the span with the status. A nil tracer costs one nil check, and
// the pooled status capture allocates nothing.
func (t *Tracer) Serve(name string, w http.ResponseWriter, r *http.Request, h http.HandlerFunc) int {
	sw := NewStatusWriter(w)
	var span ActiveSpan
	if t.Enabled() {
		span = t.Start(name, ParentFromRequest(r))
		sw.Header()["Traceparent"] = []string{span.Context().Traceparent()}
		r = r.WithContext(ContextWithSpan(r.Context(), span.Context()))
	}
	h(sw, r)
	status := sw.Status()
	sw.Release()
	t.Finish(span, status)
	return status
}

// Snapshot returns a copy of the retained recent spans, oldest first.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	return t.recent.snapshot()
}

// SnapshotSlow returns a copy of the retained slow spans, oldest first.
func (t *Tracer) SnapshotSlow() []Span {
	if t == nil {
		return nil
	}
	return t.slow.snapshot()
}

// TracesResponse is the GET /debug/traces document, shaped like the decision
// ring's debug endpoint.
type TracesResponse struct {
	Enabled         bool    `json:"enabled"`
	Capacity        int     `json:"capacity"`
	Recorded        uint64  `json:"recorded"`
	SlowThresholdMS float64 `json:"slow_threshold_ms"`
	Spans           []Span  `json:"spans"`
	Slow            []Span  `json:"slow,omitempty"`
}

// Traces builds the debug document. Nil-safe: a nil tracer reports disabled.
func (t *Tracer) Traces() TracesResponse {
	return TracesResponse{
		Enabled:         t.Enabled(),
		Capacity:        t.Cap(),
		Recorded:        t.Recorded(),
		SlowThresholdMS: float64(t.SlowThreshold()) / float64(time.Millisecond),
		Spans:           t.Snapshot(),
		Slow:            t.SnapshotSlow(),
	}
}

// Handler serves GET /debug/traces. An optional ?trace=<32 hex> query
// filters both span lists to one trace, so a request's whole story reads
// back with one call. Nil-safe, like the tracer itself.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp := t.Traces()
		if want := r.URL.Query().Get("trace"); want != "" {
			resp.Spans = filterTrace(resp.Spans, want)
			resp.Slow = filterTrace(resp.Slow, want)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
}

func filterTrace(spans []Span, trace string) []Span {
	out := spans[:0]
	for _, sp := range spans {
		if sp.TraceID == trace {
			out = append(out, sp)
		}
	}
	return out
}
