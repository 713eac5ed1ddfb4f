// Package server is the HTTP lifecycle samserve and samgate share: listener
// timeouts, the pprof debug mux, and serving until a signal with a graceful
// shutdown. It is apart from package cli so that only the two servers link
// net/http/pprof; the library packages that import cli (and the benchmark
// through them) do not pay for it.
package server

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Timeouts bundles an http.Server's slow-client protection so tests can
// shrink it without duplicating server construction.
type Timeouts struct {
	ReadHeader, Read, Write, Idle time.Duration
}

// DefaultTimeouts bounds how long a client may dribble a request (read), how
// long a response may take to drain (write; streaming handlers lift their own
// deadline), and how long an idle keep-alive connection is kept.
var DefaultTimeouts = Timeouts{
	ReadHeader: 10 * time.Second,
	Read:       30 * time.Second,
	Write:      2 * time.Minute,
	Idle:       2 * time.Minute,
}

// New builds every listener samserve and samgate open: each gets the full
// timeout set, so a slow or stalled client can never pin a connection (and
// its goroutine) forever.
func New(addr string, h http.Handler, to Timeouts) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: to.ReadHeader,
		ReadTimeout:       to.Read,
		WriteTimeout:      to.Write,
		IdleTimeout:       to.Idle,
	}
}

// DebugMux starts an introspection listener's mux with pprof's full suite;
// the caller adds its own metrics, decision and trace routes.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// shutdownGrace is how long a stopping server waits for in-flight requests.
const shutdownGrace = 10 * time.Second

// Run runs srv, and debug beside it when debug is non-nil, until SIGINT or
// SIGTERM, then gives both shutdownGrace to drain. It returns the error that
// stopped srv's listener, or nil once a signal has shut both down. A failed
// debug listener is logged and leaves srv serving.
func Run(logger *slog.Logger, srv, debug *http.Server) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if debug != nil {
		go func() {
			if err := debug.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", debug.Addr, "err", err)
			}
		}()
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		if debug != nil {
			debug.Close()
		}
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down", "reason", "signal")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown incomplete", "err", err)
	}
	if debug != nil {
		debug.Shutdown(shutdownCtx)
	}
	return nil
}
