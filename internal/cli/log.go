package cli

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"samnet/internal/obs"
)

// LogFormats lists the accepted -log-format values.
var LogFormats = []string{"text", "json"}

// NewLogger resolves a -log-format flag value into the structured logger the
// commands share. Operational logging goes to stderr so stdout stays
// reserved for each command's actual output (tables, profiles, JSON
// summaries) and remains byte-stable for scripting.
func NewLogger(format string) (*slog.Logger, error) {
	return NewLoggerTo(os.Stderr, format)
}

// NewLoggerTo is NewLogger writing to w (tests capture the stream).
func NewLoggerTo(w io.Writer, format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	}
	return nil, fmt.Errorf("unknown log format %q (want one of %v)", format, LogFormats)
}

// NewTracer resolves the -traces and -trace-slow flags samserve and samgate
// share. They follow samserve's -decisions convention: 0 sizes the default
// ring of 256 spans, and a negative size turns tracing off, which returns a
// nil tracer that costs the request path nothing.
func NewTracer(size int, slow time.Duration) *obs.Tracer {
	if size < 0 {
		return nil
	}
	if size == 0 {
		size = 256
	}
	return obs.NewTracer(size, slow)
}
