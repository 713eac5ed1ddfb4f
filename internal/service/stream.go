package service

// POST /v1/detect/stream: the NDJSON pipeline mode. The client writes
// newline-delimited DetectRequest objects and reads one response line per
// request, in request order — DetectResponse for scored lines, ErrorResponse
// for lines that fail. Per-request HTTP framing is what caps a detect client
// at round-trip throughput; a stream lets a loader (cmd/samload -stream)
// keep hundreds of requests in flight on one connection.
//
// Contract:
//
//   - One JSON object per line; blank lines are skipped. Each line is
//     limited to MaxBodyBytes; an over-limit line is discarded up to its
//     terminating newline (bounded memory, not bounded read) and answered
//     with an ErrorResponse line like any other per-line failure.
//   - Per-line failures (malformed JSON, oversized line, unknown profile,
//     untrained, bad route ids) answer an ErrorResponse line and the
//     stream continues — the newline framing is still intact, so later
//     lines are unaffected.
//   - A body read error answers a final ErrorResponse line and the stream
//     ends: the connection itself is broken, there is nothing left to
//     resynchronize on.
//   - Response lines collect in the StreamWriter's own buffer, which is
//     written and flushed as one chunk whenever no further complete line is
//     already buffered, every streamFlushEvery lines, at streamFlushBytes,
//     and when the stream ends. A lockstep client sees every answer
//     immediately while a pipelining client gets large write batches.
//
// The response status is always 200 with Content-Type application/x-ndjson;
// per-line status lives in the line itself (an "error" key marks failures,
// mirroring writeJSON's error bodies).

import (
	"bytes"
	"io"
	"net/http"
	"time"

	"samnet/internal/obs"
)

// streamFlushEvery bounds how many response lines may accumulate before a
// flush even when the client keeps the input buffer full, so a pipelining
// client's window cannot be starved by the adaptive flush policy alone.
// streamFlushBytes bounds the batch's size the same way when lines are long.
const (
	streamFlushEvery = 64
	streamFlushBytes = 32 << 10
)

// lineBufferSize is the least a stream reads its body in: a line buffer that
// holds many lines lets Buffered see them, so the stream batches its writes.
const lineBufferSize = 64 << 10

// streamIdleTimeout replaces the server's whole-request read/write deadlines
// on the stream path: a stream may run for hours, but a client that goes
// silent (or stops reading) for this long is disconnected.
const streamIdleTimeout = 2 * time.Minute

func (s *Service) handleDetectStream(w http.ResponseWriter, r *http.Request) {
	out, err := StartStream(w)
	if err != nil {
		s.responseFailed("stream flush", err)
		return
	}

	sc := getScratch()
	defer putScratch(sc)
	if cap(sc.lbuf) < lineBufferSize {
		sc.lbuf = make([]byte, 0, lineBufferSize)
	}
	lr := LineReader{lineReader{r: r.Body, buf: sc.lbuf[:0], limit: s.cfg.MaxBodyBytes}}
	defer func() { sc.lbuf = lr.buf }()

	// Per-line child spans: the stream request's own span (started by
	// instrument) parents one span per scored line, so an individual slow
	// line inside an hours-long pipelined connection is still traceable.
	// With tracing off, parent stays zero and the loop takes one nil check
	// per line.
	tracer := s.cfg.Tracer
	parent, _ := obs.SpanFromContext(r.Context())

	for {
		line, lineErr, err := lr.Next()
		if err != nil {
			if err != io.EOF {
				// The connection itself failed mid-read: answer once and
				// end the stream (nothing further can arrive on it).
				sc.out = AppendErrorResponse(sc.out[:0], err.Error())
				err = out.WriteLine(sc.out, true)
			} else {
				err = out.Flush()
			}
			if err != nil {
				s.responseFailed("stream write", err)
			}
			return
		}
		if lineErr == nil {
			sc.reset()
			sc.body = append(sc.body[:0], line...)
			// A line that parsed as a complete (but invalid) JSON value is a
			// semantic failure: report and continue. parseRequest only sees
			// full lines, so framing stays intact.
			lineErr = sc.parseRequest(kindDetect)
		}
		if lineErr != nil {
			sc.out = AppendErrorResponse(sc.out[:0], lineErr.Error())
		} else {
			var lineSpan obs.ActiveSpan
			if tracer.Enabled() {
				lineSpan = tracer.Start("detect_stream_line", parent)
				sc.trace = lineSpan.Context().TraceHex()
			}
			tracer.Finish(lineSpan, s.detectScratch(sc))
		}
		// Adaptive flush: only when no complete line is already buffered
		// (a lockstep client is waiting) or the batch is large enough.
		if err := out.WriteLine(sc.out, !lr.Buffered()); err != nil {
			s.responseFailed("stream write", err)
			return
		}
	}
}

// StreamWriter is the response side of both /v1/detect/stream endpoints,
// samserve's and samgate's: an application/x-ndjson 200 in full-duplex mode.
// Lines collect in the writer's own buffer, and each flush hands the whole
// batch to the ResponseWriter in one Write, so net/http sends it as one
// chunk rather than one per 2 KiB of its pre-chunking buffer. The
// connection's idle deadline slides forward at every flush.
type StreamWriter struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	buf     []byte // lines written since the last flush
	pending int    // lines in buf
}

// StartStream commits the stream's 200 header and flushes it at once, so the
// client's Do returns and it can start reading before the first answer.
func StartStream(w http.ResponseWriter) (*StreamWriter, error) {
	sw := &StreamWriter{w: w, rc: http.NewResponseController(w)}
	// Full duplex: response lines go out while the client is still
	// streaming request lines (net/http otherwise drains the body before
	// letting responses interleave).
	_ = sw.rc.EnableFullDuplex()
	w.Header()["Content-Type"] = ctNDJSON
	w.WriteHeader(http.StatusOK)
	return sw, sw.flush()
}

// WriteLine copies one response line into the batch. drained reports that
// no further input line is waiting, which flushes at once so a lockstep
// client is answered; so do streamFlushEvery lines or streamFlushBytes.
func (sw *StreamWriter) WriteLine(line []byte, drained bool) error {
	sw.buf = append(sw.buf, line...)
	if sw.pending++; drained || sw.pending >= streamFlushEvery || len(sw.buf) >= streamFlushBytes {
		return sw.flush()
	}
	return nil
}

// Flush ships any lines still batched. A stream handler calls it on its way
// out, since the last lines need not have met a flush trigger.
func (sw *StreamWriter) Flush() error {
	if sw.pending == 0 {
		return nil
	}
	return sw.flush()
}

// flush ships the batch and slides the read and write deadlines forward:
// the server's blanket ReadTimeout/WriteTimeout would otherwise cut a
// healthy long-running stream mid-flight, so only a genuinely idle peer
// runs into them. Deadline errors (a ResponseWriter without deadline
// support, e.g. in tests) leave the defaults in place.
func (sw *StreamWriter) flush() error {
	if len(sw.buf) > 0 {
		_, err := sw.w.Write(sw.buf)
		sw.buf = sw.buf[:0]
		if err != nil {
			return err
		}
	}
	if err := sw.rc.Flush(); err != nil {
		return err
	}
	sw.pending = 0
	idle := time.Now().Add(streamIdleTimeout)
	_ = sw.rc.SetReadDeadline(idle)
	_ = sw.rc.SetWriteDeadline(idle)
	return nil
}

// LineReader frames an NDJSON request body for both /v1/detect/stream
// endpoints, so samgate splits a stream into exactly the lines samserve
// would score.
type LineReader struct{ lineReader }

// NewLineReader frames r with a per-line limit of limit bytes.
func NewLineReader(r io.Reader, limit int64) *LineReader {
	return &LineReader{lineReader{r: r, buf: make([]byte, 0, lineBufferSize), limit: limit}}
}

// Next returns the next non-empty line (valid until the following call).
// lineErr reports a line that failed framing — an over-limit line,
// discarded up to its newline — which is answered with an error line while
// the stream reads on. err ends the stream: io.EOF at a clean end, any other
// error when the body read failed.
//
// Because an over-limit line is consumed to its newline, a stream handler
// never returns with a half-read body. Doing so after a full-duplex response
// trips a net/http race: the post-handler body discard hits EOF and fires
// the background-read hook after finishRequest already aborted pending
// reads, panicking ("invalid concurrent Body.Read call") on a reused
// connection.
func (lr *LineReader) Next() (line []byte, lineErr, err error) {
	line, err = lr.next()
	if err == errBodyTooLarge {
		return nil, err, nil
	}
	return line, nil, err
}

// lineReader splits the request body into newline-delimited frames using one
// reusable buffer. A line longer than limit is consumed to its terminating
// newline without being buffered (the buffer would otherwise grow
// unboundedly on a missing newline) and reported as errBodyTooLarge, leaving
// the reader aligned on the next line.
type lineReader struct {
	r     io.Reader
	buf   []byte // unconsumed bytes, start..len valid
	start int
	limit int64
	err   error
}

// next returns the next non-empty line (CR trimmed, newline excluded). The
// returned slice is valid until the following next call. errBodyTooLarge
// marks a dropped over-limit line (the stream remains usable); io.EOF marks
// a clean end of stream; any other error means the body reader failed.
func (lr *lineReader) next() ([]byte, error) {
	for {
		// Look for a complete line in the buffered window.
		for lr.start < len(lr.buf) {
			if i := bytes.IndexByte(lr.buf[lr.start:], '\n'); i >= 0 {
				line := lr.buf[lr.start : lr.start+i]
				lr.start += i + 1
				if int64(len(line)) > lr.limit {
					// A pooled buffer can be (much) larger than the limit, so
					// a complete over-limit line may arrive in a single read
					// without ever tripping the refill-time check below. It is
					// already consumed past its newline, so alignment holds.
					return nil, errBodyTooLarge
				}
				if line = trimLine(line); len(line) > 0 {
					return line, nil
				}
				continue
			}
			break
		}
		if lr.err != nil {
			// Reader exhausted: a trailing unterminated line still counts.
			if line := trimLine(lr.buf[lr.start:]); len(line) > 0 && lr.err == io.EOF {
				lr.start = len(lr.buf)
				if int64(len(line)) > lr.limit {
					return nil, errBodyTooLarge
				}
				return line, nil
			}
			if lr.err == io.EOF {
				return nil, io.EOF
			}
			return nil, lr.err
		}
		// Compact and refill.
		if lr.start > 0 {
			lr.buf = append(lr.buf[:0], lr.buf[lr.start:]...)
			lr.start = 0
		}
		if int64(len(lr.buf)) > lr.limit {
			// The buffer holds exactly one partial line here (a complete
			// line would have been returned above), so its length is the
			// line's length so far.
			return nil, lr.discardLine()
		}
		if len(lr.buf) == cap(lr.buf) {
			lr.buf = append(lr.buf, 0)[:len(lr.buf)]
		}
		n, err := lr.r.Read(lr.buf[len(lr.buf):cap(lr.buf)])
		lr.buf = lr.buf[:len(lr.buf)+n]
		if err != nil {
			lr.err = err
		}
	}
}

// discardLine consumes the remainder of an over-limit line without buffering
// it, then reports errBodyTooLarge with the reader realigned on the byte
// after the line's newline. A read error inside the discard ends the stream
// with that error; EOF still reports the truncated line as too large.
func (lr *lineReader) discardLine() error {
	lr.buf = lr.buf[:0]
	lr.start = 0
	scratch := lr.buf[:cap(lr.buf)]
	for {
		n, err := lr.r.Read(scratch)
		if i := bytes.IndexByte(scratch[:n], '\n'); i >= 0 {
			// Alignment restored: keep whatever follows the newline.
			// scratch aliases lr.buf's array; copy moves the tail down.
			lr.buf = lr.buf[:copy(scratch, scratch[i+1:n])]
			if err != nil {
				lr.err = err
			}
			return errBodyTooLarge
		}
		if err != nil {
			lr.err = err
			if err == io.EOF {
				return errBodyTooLarge
			}
			return err
		}
	}
}

// Buffered reports whether a complete line is already waiting, so a stream
// handler can batch its writes while the client keeps the pipe full, and
// must flush them before the next read can block.
func (lr *lineReader) Buffered() bool {
	return bytes.IndexByte(lr.buf[lr.start:], '\n') >= 0
}

func trimLine(line []byte) []byte {
	for len(line) > 0 {
		switch line[len(line)-1] {
		case '\r', ' ', '\t':
			line = line[:len(line)-1]
		default:
			return line
		}
	}
	return line
}
