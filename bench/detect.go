package main

import (
	"bytes"
	"math"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// serve-detect's load is an open loop: independent clients whose requests
// arrive as a Poisson process from the seeded RNG, whether or not earlier
// ones have been answered. At most loadConns requests are on the wire at a
// time (lockstep HTTP/1.1 over that many connections); a request due while
// both are busy waits, and that wait counts, because every request is
// timed from the moment it was due.

const (
	loadConns = 2
	refRate   = 6000.0 // the reference step's rate, req/s
	rateStep  = 1.1    // ladder multiplier
	maxLadder = 30000.0
	// A step passes when its limitQ latency stays under latencyCap. The
	// limit sits on p90, not p99: the 2-CPU VM this benchmark was sized on
	// stalls for a few milliseconds about 1% of the time at any load, even
	// 1,000 req/s, so its p99 measures the host rather than the service.
	limitQ     = 0.90
	latencyCap = 1.0 // ms
	// maxLagShare bounds the backlog a passing step may end with, as a
	// share of the step's length.
	maxLagShare = 0.05
)

// stepResult is one rate step of the ladder.
type stepResult struct {
	rate    float64
	dur     time.Duration
	lat     []float64 // ms from due to answered, requests due after warm-up
	late    []float64 // ms from due to sent, same requests
	backlog float64   // ms the step's last request was sent after it was due
	sent    int
	failed  int
}

// stepStat is what the ladder rule reads from a step.
type stepStat struct {
	rate, tail, backlogMS, durMS float64
	failed                       int
}

func (s stepResult) stat() stepStat {
	return stepStat{rate: s.rate, tail: summarize(s.lat).at(limitQ), backlogMS: s.backlog, durMS: float64(s.dur) / 1e6, failed: s.failed}
}

// keptUp reports whether nothing failed and the generator ended the step
// without a growing backlog.
func (s stepStat) keptUp() bool {
	return s.failed == 0 && s.backlogMS <= maxLagShare*s.durMS
}

// pass reports whether a step met every limit.
func (s stepStat) pass() bool { return s.keptUp() && s.tail <= latencyCap }

// ladderDone reports whether the ladder should stop: two consecutive
// failed steps, or the rate cap reached.
func ladderDone(steps []stepStat) bool {
	n := len(steps)
	if n > 0 && steps[n-1].rate*rateStep > maxLadder {
		return true
	}
	return n >= 2 && !steps[n-1].pass() && !steps[n-2].pass()
}

// maxRate is the highest rate that meets every limit. Between the highest
// passing step and the step above it, when that one failed on latency
// alone, the limit is crossed somewhere inside the 10% gap; the rate where
// it crosses is interpolated log-linearly from the two steps' latencies,
// so the result moves smoothly instead of in ladder-sized jumps. It is 0
// when no step passed.
func maxRate(steps []stepStat) float64 {
	best := -1
	for i, s := range steps {
		if s.pass() {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	lo := steps[best]
	if best+1 == len(steps) {
		return lo.rate
	}
	hi := steps[best+1]
	if !hi.keptUp() || lo.tail <= 0 || hi.tail <= lo.tail {
		return lo.rate
	}
	f := (math.Log(latencyCap) - math.Log(lo.tail)) / (math.Log(hi.tail) - math.Log(lo.tail))
	return lo.rate * math.Pow(hi.rate/lo.rate, f)
}

// ladder drives one server with the open-loop generator.
type ladder struct {
	client  *http.Client
	url     string
	items   []item
	next    int // corpus position of the next request
	rng     *rand.Rand
	waiters [loadConns]*waiter
	rss     []float64 // resident set after each phase
}

func newLadder(client *http.Client, url string, items []item, seed uint64) (*ladder, error) {
	l := &ladder{client: client, url: url, items: items, rng: rand.New(rand.NewPCG(seed, 0x0dd5))}
	for i := range l.waiters {
		w, err := newWaiter()
		if err != nil {
			l.close()
			return nil, err
		}
		l.waiters[i] = w
	}
	return l, nil
}

func (l *ladder) close() {
	for _, w := range l.waiters {
		if w != nil {
			w.close()
		}
	}
}

// step offers rate req/s for dur, discarding the first warm of it.
func (l *ladder) step(rate float64, dur, warm time.Duration) stepResult {
	var due []time.Duration
	for t := 0.0; ; {
		t += l.rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			break
		}
		due = append(due, time.Duration(t*1e9))
	}
	type rec struct {
		sent, done time.Duration
		ok         bool
	}
	recs := make([]rec, len(due))
	base := l.next
	l.next += len(due)

	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for _, w := range l.waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for {
				k := int(next.Add(1) - 1)
				if k >= len(due) {
					return
				}
				err := w.until(start.Add(due[k]))
				sent := time.Since(start)
				if err == nil {
					buf, err = post(l.client, l.url, l.items[(base+k)%len(l.items)].body, buf)
				}
				recs[k] = rec{sent: sent, done: time.Since(start), ok: err == nil && bytes.Contains(buf, decisionKey)}
			}
		}()
	}
	wg.Wait()

	res := stepResult{rate: rate, dur: dur, sent: len(due)}
	for k, r := range recs {
		if !r.ok {
			res.failed++
			continue
		}
		if due[k] < warm {
			continue
		}
		res.lat = append(res.lat, float64(r.done-due[k])/1e6)
		res.late = append(res.late, float64(r.sent-due[k])/1e6)
	}
	if n := len(recs); n > 0 {
		res.backlog = float64(recs[n-1].sent-due[n-1]) / 1e6
	}
	l.rss = append(l.rss, rssMB())
	return res
}

var decisionKey = []byte(`"decision":"`)

// capacity runs the same connections as a closed loop for dur, each
// sending its next request as soon as the last is answered, and returns
// the requests answered and failed. A closed loop cannot build a queue, so
// host stalls cost it only their own length; that makes its rate the
// steady measure of per-request cost, where the ladder's open loop turns
// each stall into a queue.
func (l *ladder) capacity(dur time.Duration) (answered, failed int) {
	var ok, bad atomic.Int64
	var wg sync.WaitGroup
	var next atomic.Int64
	deadline := time.Now().Add(dur)
	for range loadConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				var err error
				buf, err = post(l.client, l.url, l.items[(l.next+k)%len(l.items)].body, buf)
				if err == nil && bytes.Contains(buf, decisionKey) {
					ok.Add(1)
				} else {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	l.next += int(next.Load())
	l.rss = append(l.rss, rssMB())
	return int(ok.Load()), int(bad.Load())
}

// climb starts one step above the reference rate and climbs by rateStep
// every stepDur until two consecutive steps fail, the rate cap, or the
// budget runs out. ref is the reference step, first in the result.
func (l *ladder) climb(ref stepResult, stepDur, budget time.Duration) []stepResult {
	warm := min(250*time.Millisecond, stepDur/4)
	t0 := time.Now()
	steps := []stepResult{ref}
	stats := []stepStat{ref.stat()}
	for !ladderDone(stats) && time.Since(t0)+stepDur <= budget {
		st := l.step(steps[len(steps)-1].rate*rateStep, stepDur, warm)
		steps = append(steps, st)
		stats = append(stats, st.stat())
	}
	return steps
}
