package metrics

import (
	"math"
	"time"
)

// EWMA is a time-aware exponentially weighted moving average: each
// observation is blended with the previous value using a weight derived
// from the virtual time elapsed since the last observation, so irregular
// sampling intervals decay correctly. The zero value is usable; the first
// observation seeds the average.
type EWMA struct {
	// Halflife is the age at which an observation's influence has decayed
	// to one half (default 1 minute).
	Halflife time.Duration

	val  float64
	last time.Time
	set  bool
}

// Observe folds v into the average at time now and returns the new value.
// Observations at the same instant as the previous one are averaged with
// full weight on the older value; callers sampling on a fixed tick (the
// autoscaler) never hit that case.
func (e *EWMA) Observe(now time.Time, v float64) float64 {
	hl := e.Halflife
	if hl <= 0 {
		hl = time.Minute
	}
	if !e.set {
		e.val, e.last, e.set = v, now, true
		return v
	}
	dt := now.Sub(e.last)
	if dt < 0 {
		dt = 0
	}
	w := math.Pow(0.5, float64(dt)/float64(hl))
	e.val = w*e.val + (1-w)*v
	e.last = now
	return e.val
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.val }

// Initialized reports whether at least one observation has been folded in.
func (e *EWMA) Initialized() bool { return e.set }
