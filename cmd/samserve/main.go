// Command samserve runs the SAM wormhole-detection service: a long-running
// HTTP/JSON API that stores trained normal-condition profiles, scores route
// sets against them (singly, in batches over a bounded worker pool with 429
// backpressure, or pipelined over the NDJSON stream on POST
// /v1/detect/stream), replays the paper's step-2 challenge–response probe
// verification against deterministic scenarios (POST /v1/verify), maintains
// the step-3 isolation list (GET /v1/isolation, DELETE
// /v1/isolation/{a}/{b}), and exposes Prometheus-style metrics plus
// structured decision records. It shuts down gracefully on SIGINT/SIGTERM.
//
// Usage:
//
//	samserve [-addr :8080] [-workers N] [-queue N]
//	         [-decisions N] [-traces N] [-trace-slow 250ms] [-log-requests N]
//	         [-debug-addr :6060] [-log-format text|json]
//	         [-profile name=file.json]...
//	         [-snapshot state.jsonl] [-snapshot-interval 1m]
//	         [-profile-ttl 0] [-max-profiles 0]
//
// -profile preloads a samtrain-produced profile JSON under the given name
// (repeatable), so the server can score immediately without online training.
//
// -snapshot makes the profile store durable: the file is restored on boot
// (a missing file is a fresh start), rewritten atomically every
// -snapshot-interval, and written once more on graceful shutdown, so trained
// profiles and their adaptive means survive restarts.
//
// -profile-ttl evicts profiles idle longer than the given duration;
// -max-profiles caps residency, evicting least-recently-used first. Both
// default to 0 (disabled); evictions surface in the
// samserve_profile_evictions_total metric by reason.
//
// -debug-addr opens a second listener for runtime introspection: net/http/
// pprof under /debug/pprof/, the metrics registry under /metrics, recent
// decision records under /debug/decisions, and recent spans under
// /debug/traces — kept off the service port so the scoring API can face
// untrusted clients while introspection stays internal.
//
// -traces sizes the span ring behind /debug/traces (negative disables
// tracing entirely); -trace-slow retains spans at or over the threshold in a
// dedicated slow ring; -log-requests samples 1-in-N requests to the access
// log with the request's trace id.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"samnet/internal/cli"
	"samnet/internal/cli/server"
	"samnet/internal/obs"
	"samnet/internal/sam"
	"samnet/internal/service"
)

// profileFlags collects repeated -profile name=path pairs.
type profileFlags []struct{ name, path string }

func (p *profileFlags) String() string { return fmt.Sprintf("%d profiles", len(*p)) }

func (p *profileFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return errors.New("want name=file.json")
	}
	*p = append(*p, struct{ name, path string }{name, path})
	return nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		debugAddr    = flag.String("debug-addr", "", "debug listener for pprof, metrics and decisions (empty = disabled)")
		workers      = flag.Int("workers", 0, "worker pool size (0 = NumCPU)")
		queue        = flag.Int("queue", 0, "worker queue depth (0 = default)")
		maxBody      = flag.Int64("max-body", 0, "request body limit in bytes (0 = default 8MiB)")
		decisions    = flag.Int("decisions", 0, "decision record buffer (0 = default 256, negative disables capture)")
		traces       = flag.Int("traces", 256, "span ring size behind /debug/traces (negative disables tracing)")
		traceSlow    = flag.Duration("trace-slow", 250*time.Millisecond, "retain spans at or over this duration in the slow ring (0 disables slow capture)")
		logRequests  = flag.Int("log-requests", 0, "log 1-in-N requests with method/path/status/duration/trace id (0 = off)")
		logFormat    = flag.String("log-format", "text", "log output format: text or json")
		snapshot     = flag.String("snapshot", "", "profile snapshot file: restored on boot, rewritten periodically and on shutdown (empty = no persistence)")
		snapInterval = flag.Duration("snapshot-interval", time.Minute, "interval between periodic snapshot writes")
		profileTTL   = flag.Duration("profile-ttl", 0, "evict profiles idle longer than this (0 = never)")
		maxProfiles  = flag.Int("max-profiles", 0, "cap resident profiles, evicting least recently used (0 = unlimited)")
		profiles     profileFlags
	)
	flag.Var(&profiles, "profile", "preload a trained profile as name=file.json (repeatable)")
	flag.Parse()

	logger, err := cli.NewLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "samserve:", err)
		os.Exit(2)
	}

	tracer := cli.NewTracer(*traces, *traceSlow)

	cfg := service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		MaxBodyBytes:   *maxBody,
		DecisionBuffer: *decisions,
		Tracer:         tracer,
		ProfileTTL:     *profileTTL,
		MaxProfiles:    *maxProfiles,
		Logger:         logger,
	}
	svc := service.New(cfg)

	// Boot restore happens before -profile preloads, so explicitly preloaded
	// profiles win over whatever the last snapshot held under the same name.
	if *snapshot != "" {
		st, err := svc.RestoreSnapshot(*snapshot)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			logger.Info("no snapshot yet, starting fresh", "path", *snapshot)
		case err != nil:
			// A present-but-unreadable snapshot is a refusal to guess: better
			// to stop than to silently boot empty and overwrite it later.
			fatal(logger, fmt.Errorf("snapshot restore: %w", err))
		default:
			logger.Info("snapshot restored", "path", *snapshot,
				"profiles", st.Restored, "skipped", st.Skipped)
			if st.LastError != nil {
				logger.Warn("snapshot records skipped", "last_cause", st.LastError)
			}
		}
	}

	for _, p := range profiles {
		blob, err := os.ReadFile(p.path)
		if err != nil {
			fatal(logger, err)
		}
		var prof sam.Profile
		if err := json.Unmarshal(blob, &prof); err != nil {
			fatal(logger, fmt.Errorf("%s: %w", p.path, err))
		}
		if err := svc.LoadProfile(p.name, &prof); err != nil {
			fatal(logger, err)
		}
		logger.Info("profile loaded", "name", p.name, "path", p.path, "runs", prof.Runs)
	}

	srv := server.New(*addr, obs.AccessLog(logger, *logRequests, svc.Handler()), server.DefaultTimeouts)

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = server.New(*debugAddr, debugMux(svc), server.DefaultTimeouts)
		logger.Info("debug listener up", "addr", *debugAddr,
			"endpoints", "/debug/pprof/ /debug/decisions /debug/traces /metrics")
	}

	logger.Info("starting",
		"addr", *addr,
		"workers", *workers, "queue", *queue,
		"max_body", *maxBody, "decisions", *decisions,
		"traces", *traces, "trace_slow", *traceSlow, "log_requests", *logRequests,
		"profiles", len(profiles),
		"snapshot", *snapshot, "profile_ttl", *profileTTL, "max_profiles", *maxProfiles)

	// Periodic snapshot writer. Each write is atomic (temp + rename), so a
	// crash between ticks loses at most one interval of adaptive drift, never
	// the file.
	var snapStop, snapDone chan struct{}
	if *snapshot != "" && *snapInterval > 0 {
		snapStop, snapDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(snapDone)
			t := time.NewTicker(*snapInterval)
			defer t.Stop()
			for {
				select {
				case <-snapStop:
					return
				case <-t.C:
					if n, err := svc.SaveSnapshot(*snapshot); err != nil {
						logger.Error("snapshot write failed", "path", *snapshot, "err", err)
					} else {
						logger.Debug("snapshot written", "path", *snapshot, "profiles", n)
					}
				}
			}
		}()
	}

	if err := server.Run(logger, srv, debugSrv); err != nil {
		fatal(logger, err)
	}
	// Final snapshot after the listeners drain — every in-flight adaptive
	// update is in the store by now — and before Close tears the sweeper down.
	if snapStop != nil {
		close(snapStop)
		<-snapDone
	}
	if *snapshot != "" {
		if n, err := svc.SaveSnapshot(*snapshot); err != nil {
			logger.Error("final snapshot failed", "path", *snapshot, "err", err)
		} else {
			logger.Info("final snapshot written", "path", *snapshot, "profiles", n)
		}
	}
	svc.Close()
	logger.Info("stopped")
}

// debugMux assembles the introspection listener: pprof's full suite, the
// service's metrics registry, and the decision record ring.
func debugMux(svc *service.Service) *http.ServeMux {
	mux := server.DebugMux()
	mux.Handle("GET /metrics", svc.Registry().Handler())
	// The service mux already routes decision records and traces; reuse it so
	// both listeners serve the identical representation.
	mux.Handle("GET /debug/decisions", svc.Handler())
	mux.Handle("GET /debug/traces", svc.Handler())
	return mux
}

func fatal(logger *slog.Logger, err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}
