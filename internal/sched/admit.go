package sched

import (
	"fmt"
	"time"
)

// State is the gateway-level signal snapshot admission consults.
type State struct {
	// Backends are the currently routable replicas. Empty during a cold
	// start, when admission defers to the gateway's hold path.
	Backends []Backend
	// P95 lazily computes the rolling p95 latency of completed requests
	// (zero when no samples exist). Lazy so admitters that ignore latency
	// never pay for the quantile.
	P95 func() time.Duration
}

// Outcome is an admission decision.
type Outcome struct {
	// Admit accepts the request onto the serving path.
	Admit bool
	// Reason explains a shed (rendered into the 503 body).
	Reason string
	// RetryAfter is the Retry-After hint, in seconds, for a shed.
	RetryAfter int
}

// Admitted is the accepting outcome.
var Admitted = Outcome{Admit: true}

// QueueDepth sheds when every routable replica's estimated waiting queue
// is past MaxWaiting — PR 1's queue-aware breaker, extracted. Zero
// routable replicas admit (the hold path owns that case), and
// MaxWaiting <= 0 disables the breaker.
type QueueDepth struct {
	MaxWaiting int
}

// Admit sheds req when every routable replica in st is past MaxWaiting.
func (a QueueDepth) Admit(_ *Request, st State) Outcome {
	if a.MaxWaiting <= 0 || len(st.Backends) == 0 {
		return Admitted
	}
	for _, b := range st.Backends {
		if b.Pressure() <= a.MaxWaiting {
			return Admitted
		}
	}
	return Outcome{Reason: "all replicas past waiting-queue threshold", RetryAfter: 30}
}

// SLO sheds the lowest priority class while the gateway's rolling p95
// breaches a per-model latency objective — the signal the autoscaler
// already tracks, reused for admission. The breaker has hysteresis: it
// engages when p95 exceeds Target and releases only once p95 falls below
// Release×Target, so one slow sample cannot flap it. While engaged,
// classes below interactive are shed; interactive traffic — what the
// objective protects — is never SLO-shed.
type SLO struct {
	// Target is the p95 latency objective (required; <= 0 admits all).
	Target time.Duration
	// Release is the fraction of Target the p95 must drop below before
	// the breach clears (default 0.85).
	Release float64

	engaged bool
	sheds   int
}

// Engaged reports whether the breaker currently sheds.
func (a *SLO) Engaged() bool { return a.engaged }

// Sheds counts requests this breaker has shed.
func (a *SLO) Sheds() int { return a.sheds }

// Admit updates the breaker from st's p95 and sheds req if the breaker
// is engaged and req is below interactive.
func (a *SLO) Admit(req *Request, st State) Outcome {
	if a.Target <= 0 {
		return Admitted
	}
	// Zero routable replicas is the hold path's case, not admission's: a
	// breached p95 must not 503 a request the next cold-started replica
	// would have completed.
	if len(st.Backends) == 0 {
		return Admitted
	}
	p95 := st.P95()
	release := a.Release
	if release <= 0 || release >= 1 {
		release = 0.85
	}
	if a.engaged {
		if p95 < time.Duration(float64(a.Target)*release) {
			a.engaged = false
		}
	} else if p95 > a.Target {
		a.engaged = true
	}
	if !a.engaged || req.Class.Or(ClassInteractive) >= ClassInteractive {
		return Admitted
	}
	a.sheds++
	return Outcome{
		Reason:     fmt.Sprintf("p95 %s over SLO %s; %s traffic shed", p95.Round(time.Millisecond), a.Target, req.Class),
		RetryAfter: 15,
	}
}
