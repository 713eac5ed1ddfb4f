package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"samnet/internal/obs"
)

// retryBudget caps the total Retry-After sleep of one call.
const retryBudget = 10 * time.Second

// Client issues requests to replicas under the fleet's retry discipline:
//
//   - 429 with Retry-After is honored with a bounded sleep-and-retry when the
//     caller opts in (scatter sub-requests, sync ships) — a 429 means the
//     replica shed the request before doing any work, so a retry is always
//     safe, idempotent or not.
//   - A dial failure (connection refused, no route) means the request never
//     reached the replica; NotDelivered reports it so callers can fail over
//     to the next-ranked replica safely even for state-changing methods.
//   - Anything else is returned as-is: the request may have executed, and
//     only the caller knows whether a retry is idempotent.
type Client struct {
	// HTTP is the underlying client (nil selects http.DefaultClient). It
	// should carry no global timeout: training sweeps run long, and per-call
	// deadlines belong to the request context.
	HTTP *http.Client
	// MaxAttempts caps tries per call when retry429 is set (default 4).
	MaxAttempts int
	// sleep is the test seam for Retry-After waits.
	sleep func(time.Duration)
	// observe, when set, receives (url, duration) for every delivered
	// request attempt — the gateway wires its per-replica latency
	// histograms here. Health probes and metric scrapes are excluded so
	// the distributions describe proxied work, not the control plane.
	observe func(url string, d time.Duration)
}

// observeURL reports an attempt's latency to the observe hook, filtering the
// control-plane endpoints the health checker and federation scraper hit.
func (c *Client) observeURL(url string, d time.Duration) {
	if c.observe == nil {
		return
	}
	if strings.HasSuffix(url, "/healthz") || strings.HasSuffix(url, "/metrics") {
		return
	}
	c.observe(url, d)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) attempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 4
}

func (c *Client) doSleep(d time.Duration) {
	if c.sleep != nil {
		c.sleep(d)
		return
	}
	time.Sleep(d)
}

// NotDelivered reports whether err means the request never reached the
// server — the connection could not be established — making a retry against
// another replica safe regardless of the request's method.
func NotDelivered(err error) bool {
	var opErr *net.OpError
	if errors.As(err, &opErr) {
		return opErr.Op == "dial"
	}
	return false
}

// send issues one request attempt carrying the caller's trace: a request
// issued under a traced gateway span carries that span as traceparent, so
// the replica's span parents under the gateway's and the two debug-trace
// views join on one trace id. The response body is the caller's to close.
func (c *Client) send(ctx context.Context, method, url, contentType string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if sctx, ok := obs.SpanFromContext(ctx); ok && sctx.Valid() {
		req.Header["Traceparent"] = []string{sctx.Traceparent()}
	}
	begin := time.Now()
	resp, err := c.httpClient().Do(req)
	if err == nil {
		c.observeURL(url, time.Since(begin))
	}
	return resp, err
}

// do sends a buffered body. With retry429 set, 429 responses are retried
// after their Retry-After delay until MaxAttempts or the sleep budget runs
// out (the last 429 response is then returned to the caller, who can pass it
// through).
func (c *Client) do(ctx context.Context, method, url, contentType string, body []byte, retry429 bool) (*http.Response, error) {
	budget := retryBudget
	for attempt := 1; ; attempt++ {
		resp, err := c.send(ctx, method, url, contentType, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if !retry429 || resp.StatusCode != http.StatusTooManyRequests || attempt >= c.attempts() {
			return resp, nil
		}
		wait := retryAfter(resp)
		if wait > budget {
			return resp, nil
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		budget -= wait
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		c.doSleep(wait)
	}
}

// retryAfter parses a 429's Retry-After seconds, defaulting to 1s (what
// samserve sends) and clamping to [100ms, 30s].
func retryAfter(resp *http.Response) time.Duration {
	wait := time.Second
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil {
			wait = time.Duration(secs) * time.Second
		}
	}
	if wait < 100*time.Millisecond {
		wait = 100 * time.Millisecond
	}
	if wait > 30*time.Second {
		wait = 30 * time.Second
	}
	return wait
}

// getJSON fetches url and decodes its 200 body into v. Non-200 statuses are
// returned as errors carrying the body's error text.
func (c *Client) getJSON(ctx context.Context, url string, v any) error {
	resp, err := c.do(ctx, http.MethodGet, url, "", nil, true)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// statusError summarizes a non-2xx response, preferring the JSON error body.
func statusError(resp *http.Response) error {
	blob, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if len(blob) > 0 {
		return fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(blob))
	}
	return fmt.Errorf("status %s", resp.Status)
}
