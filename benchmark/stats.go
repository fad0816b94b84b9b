package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 needs at least 1,000 samples, a p99.9 at least 10,000.
const minBeyond = 10

// tailPermille lists the reportable tail levels, highest first, in
// thousandths so the sample-count rule stays in integer arithmetic.
var tailPermille = []int{999, 990, 950, 900, 500}

// supports reports whether n samples leave at least minBeyond above the
// percentile level (in thousandths).
func supports(n, permille int) bool { return n*(1000-permille) >= minBeyond*1000 }

// tailLevel is the highest reportable percentile for n samples, in
// thousandths; ok is false when even the median is unsupported.
func tailLevel(n int) (permille int, ok bool) {
	for _, pm := range tailPermille {
		if supports(n, pm) {
			return pm, true
		}
	}
	return 0, false
}

// levelName renders a level in thousandths as a percentile label
// ("p99", "p99.9").
func levelName(permille int) string {
	if permille%10 == 0 {
		return fmt.Sprintf("p%d", permille/10)
	}
	return fmt.Sprintf("p%.1f", float64(permille)/10)
}

// quantile is the nearest-rank q-quantile of ascending values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median of unsorted values (the input is not modified).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latency is a set of durations in milliseconds, summarised by the
// percentile rule.
type latency []float64

func (l *latency) add(d time.Duration) { *l = append(*l, float64(d)/float64(time.Millisecond)) }

// summary returns the median, the p99 (only when 1,000+ samples support
// it) and the highest supported tail level with its value.
func (l latency) summary() (p50, p99 float64, p99ok bool, tailPM int, tail float64) {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	p50 = quantile(s, 0.5)
	if supports(len(s), 990) {
		p99, p99ok = quantile(s, 0.99), true
	}
	if pm, ok := tailLevel(len(s)); ok {
		tailPM, tail = pm, quantile(s, float64(pm)/1000)
	}
	return p50, p99, p99ok, tailPM, tail
}

// outcome is how one request ended.
type outcome uint8

const (
	statusPending outcome = iota // not finished (never valid after the run)
	statusOK                     // completed with a 200
	statusShed                   // refused by admission control (503 + Retry-After)
	statusFailed                 // any other error: transport, 5xx, truncation
)

// sloLimits is a workload's per-request service objective.
type sloLimits struct {
	TTFT time.Duration // time to first token, from dispatch
	TPOT time.Duration // mean gap per output token after the first
}

// meets reports whether one request met both limits. Shed and failed
// requests are misses by definition.
func (l sloLimits) meets(r *record) bool {
	if r.status != statusOK || r.ttft > l.TTFT {
		return false
	}
	if r.got > 1 {
		if tpot := (r.e2e - r.ttft) / time.Duration(r.got-1); tpot > l.TPOT {
			return false
		}
	}
	return true
}

// attainment is the share of the selected requests sent that met the
// limits; the denominator counts every request sent, whatever its outcome.
func attainment(recs []record, l sloLimits, sel func(*record) bool) (share float64, sent int) {
	met := 0
	for i := range recs {
		r := &recs[i]
		if !sel(r) {
			continue
		}
		sent++
		if l.meets(r) {
			met++
		}
	}
	if sent == 0 {
		return 0, 0
	}
	return float64(met) / float64(sent), sent
}

// ladderStep is one rate of an open-loop rate ladder. Backlog is the
// count of requests sent but not yet finished, averaged over the second
// and over the last quarter of the step's arrival window.
type ladderStep struct {
	Rate       float64 // offered requests per virtual second
	Attain     float64 // SLO attainment of the step's selected requests
	Arrivals   int     // requests sent in the step
	BacklogMid float64
	BacklogEnd float64
}

// attainTarget is the share of requests that must meet the limits for a
// ladder step to count as sustained.
const attainTarget = 0.90

// growing reports whether the backlog grew between the two sampled
// quarters (half a window apart) by more than a fifth of the requests that
// arrive in half a window, and by at least minBeyond requests. The slack
// absorbs a drained step's warm-up and the queueing noise near capacity.
func (s ladderStep) growing() bool {
	slack := max(float64(s.Arrivals)/2/5, minBeyond)
	return s.BacklogEnd-s.BacklogMid > slack
}

// maxRate is the highest ladder rate whose step met the attainment target
// without a growing backlog; ok is false when no step qualifies.
func maxRate(steps []ladderStep) (rate float64, ok bool) {
	for _, s := range steps {
		if s.Attain >= attainTarget && !s.growing() && s.Rate > rate {
			rate, ok = s.Rate, true
		}
	}
	return rate, ok
}

// digest is an order-sensitive FNV-1a fingerprint of a sequence of values.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digest) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) hex() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// outcomeDigest fingerprints every request's id, status, TTFT and
// end-to-end latency in microseconds, and token count — the virtual-time
// result of a run. Buffered requests have no TTFT; their latency stands in.
func outcomeDigest(recs []record) string {
	d := newDigest()
	for i := range recs {
		r := &recs[i]
		d.int(int64(i))
		d.int(int64(r.status))
		d.int(r.ttft.Microseconds())
		d.int(r.e2e.Microseconds())
		d.int(int64(r.got))
	}
	return d.hex()
}
