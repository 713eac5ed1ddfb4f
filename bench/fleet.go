package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// serve-fleet's load is two closed loops on two connections. Connection 1
// pipelines /v1/detect/stream through the gateway with at most
// streamWindow lines unanswered; connection 2 posts a training write every
// trainEvery, round-robin over the shards, beside those reads.

const (
	streamWindow = 128
	trainEvery   = 100 * time.Millisecond
)

// streamBody is the request body of the stream: it hands the transport
// corpus lines until the deadline, never more than the window allows
// unanswered. Each line's corpus index goes into window, from which the
// reader matches answers to requests in order.
type streamBody struct {
	items    []item
	next     int
	window   chan int
	stop     chan struct{}
	deadline time.Time
	ended    bool
}

func (b *streamBody) Read(p []byte) (int, error) {
	n := 0
	for !b.ended {
		if time.Now().After(b.deadline) {
			b.ended = true
			close(b.window)
			break
		}
		idx := b.next % len(b.items)
		line := b.items[idx].line
		if n+len(line) > len(p) {
			if n == 0 {
				return 0, fmt.Errorf("stream line of %d bytes exceeds the %d-byte read", len(line), len(p))
			}
			return n, nil
		}
		if n == 0 {
			// Nothing to hand over yet: wait for a window slot.
			select {
			case b.window <- idx:
			case <-b.stop:
				return 0, io.ErrClosedPipe
			}
		} else {
			select {
			case b.window <- idx:
			default:
				return n, nil
			}
		}
		n += copy(p[n:], line)
		b.next++
	}
	if n > 0 {
		return n, nil
	}
	return 0, io.EOF
}

func (b *streamBody) Close() error { return nil }

// fleetLoad is the outcome of one serve-fleet load phase.
type fleetLoad struct {
	lines    int // stream lines answered inside the measurement window
	answered int // stream lines answered in all
	window   time.Duration
	trainMS  []float64 // training write latencies inside the window
	rss      []float64 // resident set, sampled with each training write
	attempts int
	failed   int
	errs     []string
}

// fail records n failed operations; the first few messages are kept.
func (l *fleetLoad) fail(n int, format string, args ...any) {
	l.failed += n
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// runFleetLoad warms for warm, then measures both loops for measure.
func runFleetLoad(e *env, warm, measure time.Duration) *fleetLoad {
	res := &fleetLoad{window: measure}
	start := time.Now()
	from, to := start.Add(warm), start.Add(warm+measure)

	var wg sync.WaitGroup
	var trainMS, rss []float64
	var trains, trainFailed int
	var trainErr error
	trainClient := newClient(1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf []byte
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * trainEvery)
			if due.After(to) {
				return
			}
			time.Sleep(time.Until(due))
			name := e.names[i%len(e.names)]
			trains++
			t0 := time.Now()
			var err error
			buf, err = post(trainClient, e.front+"/v1/profiles/"+name+"/train", e.corpus.trainBody, buf)
			if err != nil {
				trainFailed++
				trainErr = err
				continue
			}
			if !due.Before(from) {
				trainMS = append(trainMS, float64(time.Since(t0))/1e6)
				rss = append(rss, rssMB())
			}
		}
	}()

	body := &streamBody{items: e.corpus.items, window: make(chan int, streamWindow), stop: make(chan struct{}), deadline: to}
	streamClient := newClient(1)
	req, err := http.NewRequest("POST", e.front+"/v1/detect/stream", body)
	if err != nil {
		panic(err)
	}
	req.ContentLength = -1
	req.Header.Set("Content-Type", "application/x-ndjson")
	answered := 0
	resp, err := streamClient.Do(req)
	if err != nil {
		res.fail(1, "stream: %v", err)
	} else {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			idx, open := <-body.window
			if !open {
				res.fail(1, "stream: answer with no request outstanding: %.120s", sc.Bytes())
				break
			}
			answered++
			if err := checkStreamLine(sc.Bytes(), &e.corpus.items[idx]); err != nil {
				res.fail(1, "stream line %d: %v", answered, err)
				continue
			}
			if now := time.Now(); now.After(from) && !now.After(to) {
				res.lines++
			}
		}
		if err := sc.Err(); err != nil {
			res.fail(1, "stream: %v", err)
		}
		resp.Body.Close()
	}
	close(body.stop)
	// Lines still in the window were sent and never answered.
	if n := len(body.window); n > 0 {
		res.fail(n, "stream: %d lines never answered", n)
	}
	res.answered = answered
	res.attempts += answered + len(body.window)
	wg.Wait()
	streamClient.CloseIdleConnections()
	trainClient.CloseIdleConnections()

	res.attempts += trains
	if trainFailed > 0 {
		res.fail(trainFailed, "%d training writes failed, last: %v", trainFailed, trainErr)
	}
	res.trainMS, res.rss = trainMS, rss
	return res
}

// checkStreamLine verifies an answer belongs to the request in its slot:
// same profile, same route and link counts. Those do not depend on the
// adaptive state the concurrent training writes move.
func checkStreamLine(line []byte, it *item) error {
	if !bytes.HasPrefix(line, []byte(`{"profile":"`+it.profile+`"`)) {
		return fmt.Errorf("answer %.120s is not for profile %s", line, it.profile)
	}
	routes, ok1 := intField(line, `"routes":`)
	links, ok2 := intField(line, `"n":`)
	if !ok1 || !ok2 || routes != len(it.routes) || links != it.links {
		return fmt.Errorf("answer %.160s does not match a request of %d routes, %d links", line, len(it.routes), it.links)
	}
	return nil
}

// intField reads the integer following key in line.
func intField(line []byte, key string) (int, bool) {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := line[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	v, err := strconv.Atoi(string(rest[:j]))
	return v, err == nil
}
