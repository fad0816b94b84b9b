package metrics

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

var h0 = time.Date(2025, 6, 2, 8, 0, 0, 0, time.UTC)

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := &Histogram{}
	// 1..1000 ms uniform: p50 ≈ 500, p95 ≈ 950, p99 ≈ 990.
	for i := 1; i <= 1000; i++ {
		h.Observe(h0, float64(i))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 500}, {0.95, 950}, {0.99, 990},
	} {
		got := h.Quantile(h0, tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.15 {
			t.Errorf("p%.0f = %.1f, want %.1f ± 15%%", tc.q*100, got, tc.want)
		}
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", h.Count())
	}
}

func TestHistogramEmptyAndZeroValue(t *testing.T) {
	h := &Histogram{}
	if got := h.Quantile(h0, 0.95); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
	if h.Count() != 0 || h.WindowCount(h0) != 0 {
		t.Fatal("zero-value histogram reports observations")
	}
}

// TestHistogramWindowForgets: the quantile must recover after a latency
// burst ages out — the property the SLO breaker depends on (a cumulative
// histogram would latch the breach forever).
func TestHistogramWindowForgets(t *testing.T) {
	h := &Histogram{MaxAge: time.Minute, AgeBuckets: 4}
	for i := 0; i < 100; i++ {
		h.Observe(h0, 5000) // 5 s burst
	}
	if p95 := h.Quantile(h0, 0.95); p95 < 4000 {
		t.Fatalf("p95 during burst = %.0f, want ≈5000", p95)
	}
	// 2 minutes later the burst has aged out; only fresh fast samples count.
	later := h0.Add(2 * time.Minute)
	for i := 0; i < 100; i++ {
		h.Observe(later, 10)
	}
	if p95 := h.Quantile(later, 0.95); p95 > 50 {
		t.Fatalf("p95 after burst aged out = %.0f, want ≈10", p95)
	}
	// All-time exposition still remembers everything.
	if h.Count() != 200 {
		t.Fatalf("Count = %d, want 200", h.Count())
	}
}

func TestHistogramGradualRotation(t *testing.T) {
	h := &Histogram{MaxAge: 50 * time.Second, AgeBuckets: 5}
	h.Observe(h0, 100)
	// Advance in 10 s steps: after 5 slots the first sample must expire.
	now := h0
	for i := 0; i < 6; i++ {
		now = now.Add(10 * time.Second)
		if h.WindowCount(now) == 0 && i < 4 {
			t.Fatalf("sample expired too early at +%ds", (i+1)*10)
		}
	}
	if n := h.WindowCount(now); n != 0 {
		t.Fatalf("WindowCount after full rotation = %d, want 0", n)
	}
}

func TestHistogramBucketIdxMonotone(t *testing.T) {
	prev := -1
	for v := 0.01; v < 1e6; v *= 1.07 {
		i := bucketIdx(v)
		if i < prev {
			t.Fatalf("bucketIdx not monotone at %v: %d < %d", v, i, prev)
		}
		if i < len(histBounds) && histBounds[i] < v {
			t.Fatalf("value %v above its bucket bound %v", v, histBounds[i])
		}
		if i > 0 && i <= len(histBounds) && histBounds[i-1] >= v {
			t.Fatalf("value %v not above previous bound %v", v, histBounds[i-1])
		}
		prev = i
	}
}

func TestRegistryRender(t *testing.T) {
	r := &Registry{}
	r.CounterFunc("gw_requests_total", "client requests", func() float64 { return 3 })
	r.GaugeFunc("gw_inflight", "in-flight requests", func() float64 { return 7 })
	r.GaugeFunc("gw_backends", "healthy backends", func() float64 { return 3 })
	h := r.Histogram("gw_request_latency_ms", "request latency", nil)

	h.Observe(h0, 12.5)
	h.Observe(h0, 80)

	out := r.Render(h0)
	for _, want := range []string{
		"# TYPE gw_requests_total counter",
		"gw_requests_total 3",
		"gw_inflight 7",
		"gw_backends 3",
		"# TYPE gw_request_latency_ms histogram",
		"gw_request_latency_ms_count 2",
		"gw_request_latency_ms_sum 92.5",
		`le="+Inf"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts: every non-empty bucket line must be
	// non-decreasing in count.
	last := -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		n, err := strconv.Atoi(line[i+1:])
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, last)
		}
		last = n
	}
}
