// Command samgate fronts a samserve fleet with one endpoint. It places every
// profile on a replica by rendezvous hashing, proxies profile-scoped requests
// (/v1/detect, /v1/detect/batch, /v1/detect/stream, profile CRUD) to the
// owner, scatters /v1/train/batch grids across the replicas owning each
// scenario's profile and merges the results in grid order — byte-identical
// to a single-replica sweep, because training derives all randomness from
// grid coordinates — and repairs placement by shipping profile snapshot
// records: pull-on-miss when an owner answers 404, and an optional periodic
// anti-entropy pass. Replica health is checked in the background and routing
// fails over past unreachable replicas.
//
// Usage:
//
//	samgate -replicas http://h1:8080,http://h2:8080 [-addr :8070]
//	        [-health-interval 2s] [-sync-interval 0] [-max-body 0]
//	        [-retries 4] [-traces N] [-trace-slow 250ms]
//	        [-log-requests N] [-debug-addr :6070] [-log-format text|json]
//
// -sync-interval 0 disables anti-entropy (pull-on-miss still repairs lazily).
//
// -traces sizes the span ring behind /debug/traces (negative disables
// tracing); a traced gateway starts a span per request and propagates the
// W3C traceparent to the owning replica, so one trace id follows a request
// across the fleet. -debug-addr opens a second listener with pprof, the
// gateway registry under /metrics, the federated fleet scrape under
// /metrics/fleet, and recent spans under /debug/traces. -log-requests
// samples 1-in-N requests to the access log.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"samnet/internal/cli"
	"samnet/internal/cli/server"
	"samnet/internal/cluster"
	"samnet/internal/obs"
)

func main() {
	var (
		addr           = flag.String("addr", ":8070", "listen address")
		replicas       = flag.String("replicas", "", "comma-separated samserve base URLs (required)")
		healthInterval = flag.Duration("health-interval", 2*time.Second, "replica health sweep period (<=0 disables the background checker)")
		syncInterval   = flag.Duration("sync-interval", 0, "anti-entropy profile sync period (0 = disabled)")
		maxBody        = flag.Int64("max-body", 0, "request body limit in bytes (0 = default 8MiB)")
		retries        = flag.Int("retries", 0, "attempts per scatter sub-request on 429 (0 = default 4)")
		traces         = flag.Int("traces", 256, "span ring size behind /debug/traces (negative disables tracing)")
		traceSlow      = flag.Duration("trace-slow", 250*time.Millisecond, "retain spans at or over this duration in the slow ring (0 disables slow capture)")
		logRequests    = flag.Int("log-requests", 0, "log 1-in-N requests with method/path/status/duration/trace id (0 = off)")
		debugAddr      = flag.String("debug-addr", "", "debug listener for pprof, metrics, fleet federation and traces (empty = disabled)")
		logFormat      = flag.String("log-format", "text", "log output format: text or json")
	)
	flag.Parse()

	logger, err := cli.NewLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "samgate:", err)
		os.Exit(2)
	}
	if *replicas == "" {
		fmt.Fprintln(os.Stderr, "samgate: -replicas is required (comma-separated samserve URLs)")
		os.Exit(2)
	}

	// -health-interval <= 0 means "check once at boot, never again"; the
	// config's 0 value would select the default, so map it below zero.
	hi := *healthInterval
	if hi <= 0 {
		hi = -1
	}
	tracer := cli.NewTracer(*traces, *traceSlow)

	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Replicas:       strings.Split(*replicas, ","),
		MaxAttempts:    *retries,
		HealthInterval: hi,
		SyncInterval:   *syncInterval,
		MaxBodyBytes:   *maxBody,
		Tracer:         tracer,
		Logger:         logger,
	})
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}

	logger.Info("starting",
		"addr", *addr, "replicas", len(gw.Fleet().Replicas()), "healthy", gw.Fleet().HealthyCount(),
		"health_interval", *healthInterval, "sync_interval", *syncInterval,
		"traces", *traces, "trace_slow", *traceSlow, "log_requests", *logRequests)

	srv := server.New(*addr, obs.AccessLog(logger, *logRequests, gw.Handler()), server.DefaultTimeouts)
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = server.New(*debugAddr, debugMux(gw), server.DefaultTimeouts)
		logger.Info("debug listener up", "addr", *debugAddr,
			"endpoints", "/debug/pprof/ /debug/traces /metrics /metrics/fleet")
	}
	if err := server.Run(logger, srv, debugSrv); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	gw.Close()
	logger.Info("stopped")
}

// debugMux assembles the gateway's introspection listener: pprof's full
// suite, plus the gateway mux's own metrics, fleet federation and trace
// endpoints — reused so both listeners serve the identical representation.
func debugMux(gw *cluster.Gateway) *http.ServeMux {
	mux := server.DebugMux()
	mux.Handle("GET /metrics", gw.Handler())
	mux.Handle("GET /metrics/fleet", gw.Handler())
	mux.Handle("GET /debug/traces", gw.Handler())
	return mux
}
