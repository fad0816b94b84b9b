package sched

import (
	"fmt"
	"time"
)

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

// sloRelease is the fraction of the SLO target the p95 must drop below
// before an engaged breaker clears.
const sloRelease = 0.85

// SLO sheds the lowest priority class while the gateway's rolling p95
// breaches a per-model latency objective — the signal the autoscaler
// already tracks, reused for admission. The breaker has hysteresis: it
// engages when p95 exceeds Target and releases only once p95 falls below
// 0.85×Target, so one slow sample cannot flap it. While engaged, classes
// below interactive are shed; interactive traffic — what the objective
// protects — is never SLO-shed.
type SLO struct {
	// Target is the p95 latency objective (required; <= 0 admits all).
	Target time.Duration

	engaged bool
	sheds   int
}

// Engaged reports whether the breaker currently sheds.
func (a *SLO) Engaged() bool { return a.engaged }

// Sheds counts requests this breaker has shed.
func (a *SLO) Sheds() int { return a.sheds }

// Admit updates the breaker from the rolling p95 latency of completed
// requests and sheds req if the breaker is engaged and req is below
// interactive.
func (a *SLO) Admit(req *Request, p95 time.Duration) Outcome {
	if a.Target <= 0 {
		return Admitted
	}
	if a.engaged {
		if p95 < time.Duration(float64(a.Target)*sloRelease) {
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
