package cluster

// GET /metrics/fleet: one federated Prometheus exposition for the whole
// fleet. The gateway scrapes every healthy replica's /metrics concurrently,
// parses each exposition just enough to track metric families, and re-emits
// every sample with a `replica="<addr>"` label injected, so one scrape (or
// one curl) answers "which replica?" for every samserve series. Families are
// merged: HELP/TYPE appear once per family even when every replica exports
// it, families are sorted by name, and within a family each replica's
// samples keep their original order. Unreachable replicas are reported as
// `# fleet:` comments (and counted) rather than failing the whole scrape —
// a federated view that dies with its weakest member would be useless
// exactly when it matters.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"samnet/internal/obs"
)

// fleetScrapeTimeout bounds one federation pass; a replica slower than this
// to serve /metrics is reported unreachable for the scrape.
const fleetScrapeTimeout = 5 * time.Second

func (g *Gateway) handleMetricsFleet(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), fleetScrapeTimeout)
	defer cancel()
	scrapes := g.fanOut(ctx, "/metrics")
	if len(scrapes) == 0 {
		g.writeError(w, http.StatusServiceUnavailable, "no healthy replicas")
		return
	}
	g.metrics.fleetScrapes.Inc()
	for _, sc := range scrapes {
		if sc.err != nil {
			g.metrics.fleetScrapeErrs.Inc()
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if _, err := w.Write(mergeExpositions(scrapes)); err != nil {
		g.respFailed(err)
	}
}

// sample is one exposition line attributed to its family and replica.
type sample struct {
	replica string
	line    string
}

// expoFamily accumulates one metric family across replicas.
type expoFamily struct {
	name    string
	help    string // first non-empty HELP wins
	typ     string // first TYPE wins
	samples []sample
}

// mergeExpositions merges per-replica Prometheus expositions into one
// document with a `replica` label injected on every sample:
//
//   - families (grouped by metric name, with _bucket/_sum/_count attributed
//     to their histogram family) carry HELP/TYPE once, sorted by name;
//   - within a family, samples keep per-replica order, replicas in scrape
//     (membership) order;
//   - failed scrapes surface as leading `# fleet:` comments.
//
// It is a pure function of its input, pinned by TestMergeExpositions.
func mergeExpositions(scrapes []replicaScrape) []byte {
	var buf bytes.Buffer
	families := make(map[string]*expoFamily)
	var order []string

	family := func(name string) *expoFamily {
		// A histogram's _bucket/_sum/_count series belong to the family
		// declared by its TYPE line; strip the suffix when that family is
		// already known so samples group under it.
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(name, suffix); ok && families[trimmed] != nil {
				base = trimmed
				break
			}
		}
		f := families[base]
		if f == nil {
			f = &expoFamily{name: base}
			families[base] = f
			order = append(order, base)
		}
		return f
	}

	for _, sc := range scrapes {
		if sc.err != nil {
			fmt.Fprintf(&buf, "# fleet: replica %s unreachable: %s\n",
				sc.addr, strings.ReplaceAll(sc.err.Error(), "\n", " "))
			continue
		}
		for _, line := range strings.Split(string(sc.body), "\n") {
			line = strings.TrimRight(line, "\r")
			if line == "" {
				continue
			}
			if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
				name, help, _ := strings.Cut(rest, " ")
				if f := family(name); f.help == "" {
					f.help = help
				}
				continue
			}
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, typ, _ := strings.Cut(rest, " ")
				if f := family(name); f.typ == "" {
					f.typ = typ
				}
				continue
			}
			if strings.HasPrefix(line, "#") {
				continue // other comments don't federate
			}
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			f := family(name)
			f.samples = append(f.samples, sample{replica: sc.addr, line: line})
		}
	}

	sort.Strings(order)
	for _, name := range order {
		f := families[name]
		if f.help != "" {
			fmt.Fprintf(&buf, "# HELP %s %s\n", f.name, f.help)
		}
		if f.typ != "" {
			fmt.Fprintf(&buf, "# TYPE %s %s\n", f.name, f.typ)
		}
		for _, s := range f.samples {
			buf.WriteString(injectReplicaLabel(s.line, s.replica))
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// injectReplicaLabel adds replica="<addr>" as the first label of one sample
// line, escaping the address per the 0.0.4 label-value rules.
func injectReplicaLabel(line, addr string) string {
	label := `replica="` + obs.EscapeLabelValue(addr) + `"`
	name := line
	rest := ""
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		name, rest = line[:i], line[i:]
	}
	if strings.HasPrefix(rest, "{}") { // degenerate empty label set
		return name + "{" + label + "}" + rest[2:]
	}
	if strings.HasPrefix(rest, "{") {
		return name + "{" + label + "," + rest[1:]
	}
	return name + "{" + label + "}" + rest
}
