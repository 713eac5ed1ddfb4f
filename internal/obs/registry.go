// Package obs is the repository's zero-dependency observability core: a
// process-wide registry of counters, sampled gauges, and fixed-bucket
// histograms with a Prometheus text exposition writer, structured detection
// decision records held in a lock-free ring buffer, and a progress tracker
// for long-running experiment sweeps.
//
// Two constraints shape the package, carried over from the hot-path work of
// earlier PRs:
//
//   - Telemetry must be allocation-light on hot paths. Instrument handles
//     are resolved once at registration time (the only place a lock is
//     taken); Inc/Observe are atomic operations and never allocate.
//     Decision capture is on exactly when the ring is non-nil, so capture
//     off costs one predictable branch and zero allocations.
//   - Telemetry must never perturb simulation results. Nothing in this
//     package touches RNG state or event ordering; progress and metrics only
//     aggregate counts and wall-clock time. samrepro output is pinned
//     bitwise-identical with telemetry on or off.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Label is one metric label pair. Labels attach at registration time, so
// the hot path never renders them.
type Label struct{ Key, Value string }

// kind discriminates the instrument families a registry holds.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "unknown"
}

// series is one (family, label set) instrument. Exactly one of the value
// fields is populated, matching the family's kind.
type series struct {
	labels string // rendered {k="v",...} suffix, "" when label-less
	c      *Counter
	gf     func() float64
	h      *Histogram
}

// family groups every series sharing one metric name; HELP and TYPE are
// emitted once per family.
type family struct {
	name, help string
	kind       kind
	bounds     []float64
	series     map[string]*series
}

// Registry is a set of named instruments with Prometheus text exposition.
// Registration takes a mutex; the returned instrument handles are lock-free
// and safe for concurrent use. Registering the same (name, labels) twice
// returns the same instrument; registering one name with conflicting kinds
// or histogram bounds panics, since that is a programming error no caller
// can recover from meaningfully.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter registers (or fetches) a monotonically increasing counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.getOrCreate(name, help, counterKind, nil, labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// GaugeFunc registers a gauge whose value is sampled from fn at exposition
// time — for values some other component already owns (queue depth, store
// size). fn must be safe to call concurrently. Re-registering the same
// (name, labels) replaces the sampler.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.getOrCreate(name, help, gaugeKind, nil, labels)
	r.mu.Lock()
	s.gf = fn
	r.mu.Unlock()
}

// Histogram registers (or fetches) a fixed-bucket histogram. bounds are the
// inclusive bucket upper limits in increasing order; an implicit +Inf bucket
// is always appended.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.getOrCreate(name, help, histogramKind, bounds, labels)
	if s.h == nil {
		s.h = NewHistogram(bounds)
	}
	return s.h
}

func (r *Registry) getOrCreate(name, help string, k kind, bounds []float64, labels []Label) *series {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{
			name: name, help: help, kind: k,
			bounds: append([]float64(nil), bounds...),
			series: make(map[string]*series),
		}
		r.families[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, k))
	}
	if k == histogramKind && !sliceEq(f.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		f.series[key] = s
	}
	return s
}

// WritePrometheus renders every registered instrument in Prometheus text
// exposition format (version 0.0.4): HELP and TYPE once per family,
// families and series in sorted order, histogram buckets cumulative with a
// trailing +Inf bucket plus _sum and _count series.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			writeSeries(w, f, f.series[k])
		}
	}
}

func writeSeries(w io.Writer, f *family, s *series) {
	switch f.kind {
	case counterKind:
		fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.c.Value())
	case gaugeKind:
		// A GaugeFunc series exists before its sampler is stored (getOrCreate
		// and the store take the lock separately); a scrape in between
		// renders it as 0.
		v := 0.0
		if s.gf != nil {
			v = s.gf()
		}
		fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(v))
	case histogramKind:
		var cum uint64
		for i, bound := range s.h.bounds {
			cum += s.h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, withLE(s.labels, formatFloat(bound)), cum)
		}
		cum += s.h.counts[len(s.h.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, withLE(s.labels, "+Inf"), cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, formatFloat(s.h.Sum()))
		fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, s.h.Count())
	}
}

// Handler returns an HTTP handler serving the exposition — a drop-in
// /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		r.WritePrometheus(w)
	})
}

// withLE splices an le label into a rendered label suffix.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// renderLabels renders a label set as a deterministic {k="v",...} suffix.
// Labels are sorted by key so the same set always maps to the same series.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if !validLabelName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Key))
		}
		if i > 0 && ls[i-1].Key == l.Key {
			panic(fmt.Sprintf("obs: duplicate label name %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way Prometheus expects: shortest exact
// decimal, with integral values kept integral.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// EscapeLabelValue escapes a string for use inside a double-quoted label
// value per the Prometheus 0.0.4 text format: backslash, double quote, and
// line feed become \\, \", and \n. Exported for composers that splice label
// values into already-rendered exposition text (fleet federation).
func EscapeLabelValue(s string) string { return escapeValue(s) }

// validMetricName accepts Prometheus metric names, which — unlike label
// names — may contain ':' (reserved for recording rules, but legal).
func validMetricName(s string) bool { return validIdent(s, true) }

// validLabelName accepts Prometheus label names: [a-zA-Z_][a-zA-Z0-9_]*.
// ':' is legal in metric names only; accepting it here would emit series no
// conformant parser ingests.
func validLabelName(s string) bool { return validIdent(s, false) }

func validIdent(s string, allowColon bool) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c == ':':
			if !allowColon {
				return false
			}
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func sliceEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
