package obs

import (
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// StatusWriter captures the status a handler answers, for metrics, spans and
// the access log. The first status written wins, as net/http ignores later
// WriteHeader calls, and a body written without one is a 200. Unwrap keeps
// http.ResponseController working (Flush, deadlines, full duplex on the
// stream paths). Writers are pooled: at the serving throughput target even
// this one small struct per request is measurable garbage.
type StatusWriter struct {
	http.ResponseWriter
	status int
}

var statusWriters = sync.Pool{New: func() any { return new(StatusWriter) }}

// NewStatusWriter wraps w in a pooled StatusWriter; Release returns it.
func NewStatusWriter(w http.ResponseWriter) *StatusWriter {
	sw := statusWriters.Get().(*StatusWriter)
	sw.ResponseWriter, sw.status = w, 0
	return sw
}

// Release returns the writer to the pool once the handler has returned; it
// must not be used afterwards.
func (w *StatusWriter) Release() {
	w.ResponseWriter = nil
	statusWriters.Put(w)
}

func (w *StatusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *StatusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// ReadFrom hands io.Copy into the response to the wrapped writer, so a
// relayed body keeps net/http's pooled copy buffers instead of allocating
// one per request.
func (w *StatusWriter) ReadFrom(src io.Reader) (int64, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return io.Copy(w.ResponseWriter, src)
}

// Status returns the status the handler answered (200 when it wrote nothing).
func (w *StatusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

func (w *StatusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// AccessLog wraps next with sampled structured request logging: one request
// in every `every` is logged at Info with method, path, status, duration,
// and — when the handler started a span — the trace id, so a log line joins
// /debug/traces directly. every <= 0 disables sampling entirely and returns
// next unwrapped, every == 1 logs everything. Sampling is a single atomic
// counter, shared across all connections.
func AccessLog(logger *slog.Logger, every int, next http.Handler) http.Handler {
	if logger == nil || every <= 0 {
		return next
	}
	var n atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%uint64(every) != 0 {
			next.ServeHTTP(w, r)
			return
		}
		sw := NewStatusWriter(w)
		defer sw.Release()
		begin := time.Now()
		next.ServeHTTP(sw, r)
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.Status(),
			"duration", time.Since(begin),
		}
		// Instrumented handlers announce their span in the response header;
		// reading it back here keeps the middleware decoupled from the
		// tracer while still joining log lines to traces.
		if tp := sw.Header().Get("Traceparent"); tp != "" {
			if t, _, ok := ParseTraceparent(tp); ok {
				attrs = append(attrs, "trace_id", t.String())
			}
		}
		logger.Info("request", attrs...)
	})
}
