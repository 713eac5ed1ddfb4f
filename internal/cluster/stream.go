package cluster

// Gateway NDJSON scatter: POST /v1/detect/stream fans each input line out to
// the replica owning the line's profile over a per-replica upstream stream
// connection, then merges the answers back in global input order. The
// replica contract (one response line per non-empty input line, in order)
// makes the merge a queue: remember which upstream got line k, and read line
// k's answer from that upstream's response when its turn comes.
//
// Lines bound for a replica collect in a bufio.Writer in front of its
// upstream pipe, so the hop sends one chunk per batch, not one per line.
// The handler flushes every upstream, oldest batched line first: when the
// client's input drains (no complete line buffered), so a lockstep client
// still sees every verdict immediately; before any send on the order queue
// that would block, so a line the merger waits for is never stuck behind a
// full queue; when a batch is full; and at the end. Replicas flush whenever
// their own input drains, so a pipelining client keeps every replica's
// window full at once. DESIGN.md §13 gives the deadlock-freedom argument.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"

	"samnet/internal/service"
)

// upstreamBatch is the size of the buffer that batches one upstream's lines.
const upstreamBatch = 32 << 10

// upstream is one replica's live stream connection. Only the handler
// goroutine touches pw, bw and err; only the merger goroutine reads br.
type upstream struct {
	addr string
	pw   *io.PipeWriter
	bw   *bufio.Writer // batches lines into pw
	br   *bufio.Reader
	resp *http.Response
	err  error // open or write failure: later lines for this replica answer it
}

// streamSlot is one input line's reservation in the response order: either
// "read the next line from this upstream" or a pre-rendered error line.
type streamSlot struct {
	u       *upstream
	errLine []byte
}

// handleDetectStream frames the request with the replica's own line reader
// and answers through the replica's stream writer, so framing failures (an
// over-limit line, a broken body) read exactly as a lone replica words them.
func (g *Gateway) handleDetectStream(w http.ResponseWriter, r *http.Request) {
	out, err := service.StartStream(w)
	if err != nil {
		g.respFailed(err)
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	ups := make(map[string]*upstream)
	defer func() {
		for _, u := range ups {
			if u.resp != nil {
				u.resp.Body.Close()
			}
		}
	}()
	order := make(chan streamSlot, 256)
	done := make(chan struct{})
	go g.mergeStream(out, order, done)

	// dirty lists the upstreams holding batched lines, oldest line first.
	// flush ships them in that order: the line the merger waits on, if it
	// is batched at all, is the oldest, so it never waits behind a write to
	// a replica whose answers the merger is not yet reading. A failed flush
	// means the transport gave up on that request, which closes its
	// connection: the merger then answers the upstream's queued slots
	// "stream ended early".
	var dirty []*upstream
	flush := func() {
		for _, u := range dirty {
			if u.err == nil {
				u.err = u.bw.Flush()
			}
		}
		dirty = dirty[:0]
	}
	// send queues a slot, flushing first if the queue is full: the merger
	// may be waiting on a line that is still batched.
	send := func(slot streamSlot) {
		select {
		case order <- slot:
		default:
			flush()
			order <- slot
		}
	}

	lr := service.NewLineReader(r.Body, g.cfg.MaxBodyBytes)
	for {
		line, lineErr, err := lr.Next()
		if err != nil {
			if err != io.EOF {
				// The client connection failed mid-read: answer once, after
				// every pending verdict, and end the stream.
				send(streamSlot{errLine: service.AppendErrorResponse(nil, err.Error())})
			}
			break
		}
		if lineErr != nil {
			send(streamSlot{errLine: service.AppendErrorResponse(nil, lineErr.Error())})
		} else {
			// Unparseable lines get profile "" — still a deterministic
			// rendezvous key, so some replica answers the canonical
			// per-line error in order.
			addr := g.fleet.Owner(service.RoutingKey(line))
			u := ups[addr]
			if u == nil {
				u = g.openUpstream(ctx, addr)
				ups[addr] = u
			}
			if u.err == nil && len(line) >= u.bw.Available() {
				// A full batch ships every batch, in order, rather than
				// letting bufio flush this one alone.
				flush()
			}
			if u.err == nil {
				if u.bw.Buffered() == 0 {
					dirty = append(dirty, u)
				}
				if _, u.err = u.bw.Write(line); u.err == nil {
					u.err = u.bw.WriteByte('\n')
				}
			}
			if u.err != nil {
				send(streamSlot{errLine: service.AppendErrorResponse(nil, fmt.Sprintf("replica %s: %v", u.addr, u.err))})
			} else {
				send(streamSlot{u: u})
			}
		}
		if !lr.Buffered() {
			flush()
		}
	}
	flush()
	for _, u := range ups {
		if u.pw != nil {
			u.pw.Close()
		}
	}
	close(order)
	<-done
}

// openUpstream dials one replica's stream endpoint with a pipe body the
// handler feeds line by line. The replica answers the 200 header before the
// first verdict, so the request returns as soon as the connection is up.
func (g *Gateway) openUpstream(ctx context.Context, addr string) *upstream {
	u := &upstream{addr: addr}
	pr, pw := io.Pipe()
	resp, err := g.client.send(ctx, http.MethodPost, addr+"/v1/detect/stream", "application/x-ndjson", pr)
	switch {
	case err != nil:
		if NotDelivered(err) {
			g.fleet.MarkDown(addr, err)
		}
		u.err = err
	case resp.StatusCode != http.StatusOK:
		u.err = statusError(resp)
		resp.Body.Close()
	default:
		u.pw, u.resp = pw, resp
		u.bw = bufio.NewWriterSize(pw, upstreamBatch)
		u.br = bufio.NewReaderSize(resp.Body, 64<<10)
		return u
	}
	pw.Close()
	return u
}

// mergeStream emits response lines in input order, reading each slot's
// answer from its upstream, and flushes when the order queue drains and
// when it closes. An upstream that ends early answers an error line for
// each of its remaining slots (its own tracking, not u.err — that field
// belongs to the handler goroutine). A client write failure drains the
// remaining slots without writing so the handler never blocks on the order
// queue. An answer is read in place from the upstream's buffer; WriteLine
// copies it out before the next read.
func (g *Gateway) mergeStream(out *service.StreamWriter, order <-chan streamSlot, done chan<- struct{}) {
	defer close(done)
	dead := make(map[*upstream]error)
	failed := false
	for slot := range order {
		line := slot.errLine
		if u := slot.u; u != nil {
			err := dead[u]
			if err == nil {
				var resp []byte
				resp, err = u.br.ReadSlice('\n')
				if err == bufio.ErrBufferFull {
					// A line longer than the buffer: copy what is in hand
					// before the next read reuses the buffer, then read on.
					head := append([]byte(nil), resp...)
					resp, err = u.br.ReadBytes('\n')
					resp = append(head, resp...)
				}
				switch {
				case err == nil:
					line = resp
				case len(bytes.TrimSpace(resp)) > 0:
					line, err = append(append([]byte(nil), resp...), '\n'), nil
				default:
					dead[u] = err
				}
			}
			if err != nil {
				line = service.AppendErrorResponse(nil, fmt.Sprintf("replica %s: stream ended early: %v", u.addr, err))
			}
		}
		if !failed && out.WriteLine(line, len(order) == 0) != nil {
			g.metrics.respErrs.Inc()
			failed = true
		}
	}
	if !failed && out.Flush() != nil {
		g.metrics.respErrs.Inc()
	}
}
