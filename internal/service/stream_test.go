package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// countingWriter is a ResponseWriter that counts the body writes and
// flushes a StreamWriter makes.
type countingWriter struct {
	header  http.Header
	body    bytes.Buffer
	writes  int
	flushes int
}

func newCountingWriter() *countingWriter { return &countingWriter{header: http.Header{}} }

func (c *countingWriter) Header() http.Header { return c.header }
func (c *countingWriter) WriteHeader(int)     {}
func (c *countingWriter) Flush()              { c.flushes++ }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.body.Write(p)
}

// TestStreamWriterOneWritePerFlush pins the batching: lines collect in the
// writer's own buffer and reach the ResponseWriter as one Write per flush,
// at each of the three triggers and at the end of the stream.
func TestStreamWriterOneWritePerFlush(t *testing.T) {
	cw := newCountingWriter()
	sw, err := StartStream(cw)
	if err != nil {
		t.Fatal(err)
	}
	if cw.writes != 0 || cw.flushes != 1 {
		t.Fatalf("after StartStream: %d writes, %d flushes; want 0 and 1", cw.writes, cw.flushes)
	}
	var want bytes.Buffer
	write := func(line string, drained bool, wantWrites int) {
		t.Helper()
		want.WriteString(line)
		if err := sw.WriteLine([]byte(line), drained); err != nil {
			t.Fatal(err)
		}
		if cw.writes != wantWrites {
			t.Fatalf("after %q (drained %v): %d writes, want %d", line[:min(len(line), 12)], drained, cw.writes, wantWrites)
		}
	}
	line := `{"profile":"p"}` + "\n"
	for i := 1; i < streamFlushEvery; i++ {
		write(line, false, 0)
	}
	write(line, false, 1) // streamFlushEvery lines
	write(line, true, 2)  // the input drained
	long := strings.Repeat("x", streamFlushBytes/2) + "\n"
	write(long, false, 2)
	write(long, false, 3) // streamFlushBytes
	write(line, false, 3)
	if err := sw.Flush(); err != nil { // the end of the stream
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil { // nothing left to ship
		t.Fatal(err)
	}
	if cw.writes != 4 || cw.flushes != 5 {
		t.Fatalf("after the final flushes: %d writes, %d flushes; want 4 and 5", cw.writes, cw.flushes)
	}
	if !bytes.Equal(cw.body.Bytes(), want.Bytes()) {
		t.Fatalf("body differs from the lines written: %d bytes, want %d", cw.body.Len(), want.Len())
	}
}

// TestDetectStreamFlushesOnExit drives the replica's stream handler with a
// body whose trailing blank lines keep its last answer from meeting a flush
// trigger: the handler's exit flush must still ship it, in the same single
// write as the lines before it.
func TestDetectStreamFlushesOnExit(t *testing.T) {
	svc := New(Config{})
	t.Cleanup(svc.Close)
	mux := svc.Handler()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/profiles/p/train",
		strings.NewReader(`{"route_sets":[[[0,1,2],[0,3,2],[0,4,2]],[[0,1,2],[0,3,2]]]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("train: %d %s", rec.Code, rec.Body)
	}

	const n = streamFlushEvery + 10
	body := strings.Repeat(`{"profile":"p","routes":[[0,1,2],[0,3,2]]}`+"\n", n) + "\n\n"
	cw := newCountingWriter()
	mux.ServeHTTP(cw, httptest.NewRequest("POST", "/v1/detect/stream", strings.NewReader(body)))
	if got := strings.Count(cw.body.String(), "\n"); got != n {
		t.Fatalf("stream answered %d lines, want %d", got, n)
	}
	if cw.writes != 2 {
		t.Fatalf("stream made %d body writes, want 2 (one at %d lines, one on exit)", cw.writes, streamFlushEvery)
	}
}
