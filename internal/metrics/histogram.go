package metrics

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Histogram is a log-bucketed latency histogram with two accountings:
//
//   - cumulative per-bucket counts (plus sum and count) for
//     Prometheus-style text exposition, which by convention never
//     resets; and
//   - a rotating ring of per-age-slot counts, merged on demand to answer
//     Quantile over a trailing window — so an SLO breaker reading p95
//     from the histogram recovers after a burst instead of latching on
//     all-time history.
//
// Every histogram shares one set of bucket upper bounds, histBounds.
//
// The zero value is usable; configuration fields are read at the first
// Observe. No locking — the simulation's cooperative scheduler
// serializes access.
type Histogram struct {
	// MaxAge is the trailing window Quantile answers over (default 5
	// minutes).
	MaxAge time.Duration
	// AgeBuckets is the rotation granularity of the window (default 5):
	// observations expire in MaxAge/AgeBuckets steps.
	AgeBuckets int

	cum     []uint64 // all-time per-bucket counts; last slot is +Inf
	count   uint64
	sum     float64
	ring    [][]uint64 // per-age-slot counts, same layout as cum
	age     ageClock
	scratch []uint64 // reused merge buffer for Quantile
}

// Bucket upper bounds grow geometrically: histMin, histMin·histGrowth,
// histMin·histGrowth², …, with one final +Inf overflow bucket. The range
// covers 0.1 ms to ~9 minutes at ≤15% relative error per bucket — well
// inside the SLO breaker's 0.85 hysteresis margin.
const (
	histMin     = 0.1 // first bucket's upper bound; the serving stack observes milliseconds
	histGrowth  = 1.15
	histBuckets = 112 // finite buckets
)

var (
	// histBounds are the finite bucket upper bounds.
	histBounds = func() (bounds [histBuckets]float64) {
		b := histMin
		for i := range bounds {
			bounds[i] = b
			b *= histGrowth
		}
		return bounds
	}()
	logGrowth = math.Log(histGrowth)
)

func (h *Histogram) lazyInit(now time.Time) {
	if h.cum != nil {
		return
	}
	if h.MaxAge <= 0 {
		h.MaxAge = 5 * time.Minute
	}
	if h.AgeBuckets <= 0 {
		h.AgeBuckets = 5
	}
	h.cum = make([]uint64, histBuckets+1)
	h.ring = make([][]uint64, h.AgeBuckets)
	for i := range h.ring {
		h.ring[i] = make([]uint64, histBuckets+1)
	}
	h.scratch = make([]uint64, histBuckets+1)
	h.age.end = now.Add(h.MaxAge / time.Duration(h.AgeBuckets))
}

// rotate retires age slots that have aged out at time now.
func (h *Histogram) rotate(now time.Time) {
	h.age.rotate(now, h.MaxAge, len(h.ring), func(i int) { clear(h.ring[i]) })
}

// bucketIdx maps a value to its bucket (the last index is +Inf).
func bucketIdx(v float64) int {
	if v <= histMin {
		return 0
	}
	i := int(math.Ceil(math.Log(v/histMin) / logGrowth))
	if i >= histBuckets {
		return histBuckets // +Inf
	}
	// Guard against log rounding placing v just past its bound.
	for i > 0 && histBounds[i-1] >= v {
		i--
	}
	return i
}

// Observe records one value at virtual time now.
func (h *Histogram) Observe(now time.Time, v float64) {
	h.lazyInit(now)
	h.rotate(now)
	i := bucketIdx(v)
	h.cum[i]++
	h.count++
	h.sum += v
	h.ring[h.age.cur][i]++
}

// Count returns the all-time observation count.
func (h *Histogram) Count() uint64 { return h.count }

// WindowCount returns the number of observations inside the trailing
// window at time now.
func (h *Histogram) WindowCount(now time.Time) uint64 {
	if h.cum == nil {
		return 0
	}
	h.rotate(now)
	var n uint64
	for _, slot := range h.ring {
		for _, c := range slot {
			n += c
		}
	}
	return n
}

// Quantile estimates the q-quantile of observations in the trailing
// window at time now, with linear interpolation inside the landing
// bucket. Returns 0 for an empty window; values in the overflow bucket
// clamp to the largest finite bound.
func (h *Histogram) Quantile(now time.Time, q float64) float64 {
	if h.cum == nil {
		return 0
	}
	h.rotate(now)
	merged := h.scratch
	clear(merged)
	var total uint64
	for _, slot := range h.ring {
		for i, c := range slot {
			merged[i] += c
			total += c
		}
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, c := range merged {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			if i >= histBuckets {
				return histBounds[histBuckets-1] // overflow: clamp
			}
			lo := 0.0
			if i > 0 {
				lo = histBounds[i-1]
			}
			frac := (target - cum) / float64(c)
			return lo + (histBounds[i]-lo)*frac
		}
		cum = next
	}
	return histBounds[histBuckets-1]
}

// writeProm renders the histogram in Prometheus text exposition format.
// Only non-empty buckets get a _bucket line (cumulative counts are still
// correct: a reader fills gaps from the running total), keeping the
// output proportional to the distribution's support rather than the
// bucket count.
func (h *Histogram) writeProm(b *strings.Builder, name string) {
	var cum uint64
	for i, c := range h.cum {
		cum += c
		if c == 0 && i != len(h.cum)-1 {
			continue
		}
		le := "+Inf"
		if i < histBuckets {
			le = formatFloat(histBounds[i])
		}
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	fmt.Fprintf(b, "%s_sum %s\n", name, formatFloat(h.sum))
	fmt.Fprintf(b, "%s_count %d\n", name, h.count)
}

func formatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v), "0"), ".")
}

// Registry is an ordered set of named instruments rendered together in
// Prometheus text exposition format. Instruments register once at setup;
// Func variants sample a callback at render time so existing typed
// counters (gateway stats, engine telemetry) expose without mirroring
// state into a second store.
type Registry struct {
	items []registryItem
}

type registryItem struct {
	name, help string
	kind       string // "counter", "gauge", "histogram"
	hist       *Histogram
	fn         func() float64
}

// CounterFunc registers a counter whose value is sampled at render time.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.items = append(r.items, registryItem{name: name, help: help, kind: "counter", fn: fn})
}

// GaugeFunc registers a gauge whose value is sampled at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.items = append(r.items, registryItem{name: name, help: help, kind: "gauge", fn: fn})
}

// Histogram registers h (or a fresh default histogram when h is nil) and
// returns it.
func (r *Registry) Histogram(name, help string, h *Histogram) *Histogram {
	if h == nil {
		h = &Histogram{}
	}
	r.items = append(r.items, registryItem{name: name, help: help, kind: "histogram", hist: h})
	return h
}

// Render produces the registry's Prometheus text exposition at virtual
// time now.
func (r *Registry) Render(now time.Time) string {
	var b strings.Builder
	for _, it := range r.items {
		if it.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", it.name, it.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", it.name, it.kind)
		switch {
		case it.hist != nil:
			it.hist.lazyInit(now)
			it.hist.writeProm(&b, it.name)
		case it.fn != nil:
			fmt.Fprintf(&b, "%s %s\n", it.name, formatFloat(it.fn()))
		}
	}
	return b.String()
}
