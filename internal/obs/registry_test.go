package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the Prometheus text format: HELP/TYPE once per
// family, sorted families and series, cumulative le buckets with a +Inf
// bucket plus _sum and _count.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_requests_total", "Requests served.", Label{"endpoint", "detect"}, Label{"class", "2xx"})
	for i := 0; i < 7; i++ {
		c.Inc()
	}
	r.Counter("app_requests_total", "Requests served.", Label{"endpoint", "detect"}, Label{"class", "5xx"}).Inc()
	r.GaugeFunc("app_queue_depth", "Tasks admitted.", func() float64 { return 3 })
	r.GaugeFunc("app_uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	h := r.Histogram("app_latency_seconds", "Latency.", []float64{0.1, 0.5, 1}, Label{"endpoint", "detect"})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.7)
	h.Observe(9) // +Inf bucket

	var b strings.Builder
	r.WritePrometheus(&b)
	want := `# HELP app_latency_seconds Latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{endpoint="detect",le="0.1"} 2
app_latency_seconds_bucket{endpoint="detect",le="0.5"} 2
app_latency_seconds_bucket{endpoint="detect",le="1"} 3
app_latency_seconds_bucket{endpoint="detect",le="+Inf"} 4
app_latency_seconds_sum{endpoint="detect"} 9.8
app_latency_seconds_count{endpoint="detect"} 4
# HELP app_queue_depth Tasks admitted.
# TYPE app_queue_depth gauge
app_queue_depth 3
# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total{class="2xx",endpoint="detect"} 7
app_requests_total{class="5xx",endpoint="detect"} 1
# HELP app_uptime_seconds Uptime.
# TYPE app_uptime_seconds gauge
app_uptime_seconds 12.5
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", Label{"k", "v"})
	b := r.Counter("x_total", "", Label{"k", "v"})
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	if r.Counter("x_total", "", Label{"k", "w"}) == a {
		t.Fatal("different labels must return a different counter")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on kind mismatch")
		}
	}()
	r.GaugeFunc("m", "", func() float64 { return 0 })
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 50, 10}, {0.95, 95, 10}, {0.99, 99, 10},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Quantile(%v) = %v, want %v±%v", tc.q, got, tc.want, tc.tol)
		}
	}
	if got := h.Max(); got != 100 {
		t.Errorf("Max = %v, want 100", got)
	}
	if got := h.Sum(); got != 5050 {
		t.Errorf("Sum = %v, want 5050", got)
	}
	// Beyond the last bound, the quantile falls back to the observed max.
	h.Observe(1e6)
	if got := h.Quantile(1); got != 1e6 {
		t.Errorf("Quantile(1) with overflow sample = %v, want 1e6", got)
	}
	if got := NewHistogram([]float64{1}).Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram Quantile = %v, want NaN", got)
	}
}

// TestInstrumentsConcurrent hammers every instrument from many goroutines;
// run under -race this pins the lock-free hot paths.
func TestInstrumentsConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", []float64{1, 2, 4})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i % 5))
				if i%100 == 0 {
					var b strings.Builder
					r.WritePrometheus(&b)
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}
