// Package autoscale is the elastic replica controller: a control loop
// (running as a sim.Proc) that watches a replica set's gateway load signals
// — requests held at the gateway, per-replica queue depths from each
// replica's typed /telemetry snapshot, the request rate (the exact arrival
// count since the previous tick) and the p95 latency (read from the
// gateway's log-bucketed latency histogram, the same distribution
// /gateway/metrics exposes), both EWMA-smoothed — and resizes the
// deployment between MinReplicas and MaxReplicas, including scale-to-zero
// with cold-start queuing at the gateway.
//
// The shape follows the related work: Chat AI (Doosthosseini et al.) spawns
// and retires Slurm-backed LLM services with demand, and the CSCS Cray EX
// experience paper makes the same case for elastic ML services on
// batch-scheduled machines. An HPC center cannot hold N GPU nodes forever
// for a diurnal chat workload; this controller gives the fixed-size replica
// sets of internal/core their missing elasticity.
package autoscale

import (
	"fmt"
	"time"

	"repro/internal/ingress"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Policy is the user-facing autoscaling contract (DeployConfig.Autoscale).
// Zero-valued knobs take the documented defaults.
type Policy struct {
	// MinReplicas is the floor the set never shrinks below. 0 enables
	// scale-to-zero: after ScaleToZeroAfter of idleness the last replica is
	// drained and released, and the gateway queues cold-start requests.
	MinReplicas int
	// MaxReplicas is the ceiling (required, >= max(MinReplicas, 1)).
	MaxReplicas int
	// TargetQueueDepth is the per-replica demand (gateway in-flight plus
	// scraped waiting/running) the controller sizes the set for (default 8).
	// The set grows when per-replica load is above it, and shrinks toward
	// the load's demand when per-replica load is below a quarter of it.
	TargetQueueDepth int
	// ScaleUpCooldown is the minimum spacing between scale-ups (default 1m).
	// Cold starts from zero replicas bypass it: a request is waiting.
	ScaleUpCooldown time.Duration
	// ScaleDownCooldown is the minimum spacing between scale-downs
	// (default 5m) — scale up fast, scale down slowly.
	ScaleDownCooldown time.Duration
	// ScaleToZeroAfter is how long the set must be completely idle (no
	// load, no held requests, no new arrivals) before dropping to
	// MinReplicas (default 15m). Only reaches zero when MinReplicas is 0.
	ScaleToZeroAfter time.Duration
	// Interval is the control-loop tick (default 30s).
	Interval time.Duration
	// SLOTargetP95 is the per-model latency objective shared with the
	// gateway's SLO admission breaker. The p95 is read from the gateway's
	// windowed latency histogram (LatencyQuantile) and EWMA-smoothed
	// here. While the smoothed p95 breaches it,
	// the controller raises its demand signal and scales up ahead of the
	// queue-depth path — scale first, shed only if scaling cannot keep up.
	// A continuous-batching engine absorbs load into ever-larger batches,
	// so a replica set can be slow without ever showing a deep waiting
	// queue; the latency tail is the earlier signal. 0 disables.
	SLOTargetP95 time.Duration
}

// WithDefaults returns the policy with zero-valued knobs resolved.
func (pol Policy) WithDefaults() Policy {
	out := pol
	if out.TargetQueueDepth <= 0 {
		out.TargetQueueDepth = 8
	}
	if out.ScaleUpCooldown <= 0 {
		out.ScaleUpCooldown = time.Minute
	}
	if out.ScaleDownCooldown <= 0 {
		out.ScaleDownCooldown = 5 * time.Minute
	}
	if out.ScaleToZeroAfter <= 0 {
		out.ScaleToZeroAfter = 15 * time.Minute
	}
	if out.Interval <= 0 {
		out.Interval = 30 * time.Second
	}
	return out
}

// Validate rejects inconsistent policies (after defaults are applied).
func (pol Policy) Validate() error {
	p := pol.WithDefaults()
	if p.MinReplicas < 0 {
		return fmt.Errorf("autoscale: MinReplicas must be >= 0 (got %d)", p.MinReplicas)
	}
	if p.MaxReplicas < 1 {
		return fmt.Errorf("autoscale: MaxReplicas must be >= 1 (got %d)", p.MaxReplicas)
	}
	if p.MaxReplicas < p.MinReplicas {
		return fmt.Errorf("autoscale: MaxReplicas (%d) must be >= MinReplicas (%d)", p.MaxReplicas, p.MinReplicas)
	}
	return nil
}

// Scaler is the deployment surface the controller drives. Implemented by
// core.Deployment for replica sets; tests substitute fakes.
type Scaler interface {
	// CurrentReplicas reports the live instance count.
	CurrentReplicas() int
	// ScaleTo resizes the set to n instances, blocking until new replicas
	// are ready (registered with the gateway) or surplus ones are drained
	// and released. Runs on the controller's process.
	ScaleTo(p *sim.Proc, n int) error
}

// Status is the controller's observable state, rendered into the gateway's
// /observe document as the model's "autoscale" entry.
type Status struct {
	Current    int     `json:"current"`
	Target     int     `json:"target"`
	Demand     int     `json:"demand"`
	Load       int     `json:"load"`
	Holding    int     `json:"holding"`
	RatePerSec float64 `json:"rate_per_sec"`
	P95Millis  float64 `json:"p95_ms"`
	Reason     string  `json:"reason"`
	Scaling    bool    `json:"scaling"`
	ScaleUps   int     `json:"scale_ups"`
	ScaleDowns int     `json:"scale_downs"`
	LastError  string  `json:"last_error,omitempty"`
	// SLOBreached reports that the smoothed p95 is past SLOTargetP95 as of
	// the last tick. SLOBreachedAtMax additionally means the set is pinned
	// at MaxReplicas — scaling cannot help, the gateway's admission breaker
	// owns the recovery, and the controller holds its demand signal steady
	// instead of re-raising it every tick. Both flow through the gateway's
	// AutoscaleStatus into telemetry.FleetSnapshot (/observe) so the breach
	// is visible fleet-wide rather than replayed as a scaling decision.
	SLOBreached      bool `json:"slo_breached,omitempty"`
	SLOBreachedAtMax bool `json:"slo_breached_at_max,omitempty"`
}

// Autoscaler watches a Gateway and resizes a Scaler per a Policy.
type Autoscaler struct {
	Gateway *ingress.Gateway
	Scaler  Scaler
	Policy  Policy
	// Name identifies the controller in multi-model fleets (diagnostics
	// and pool-arbitration status). Defaults to the gateway host.
	Name string
	// Arbiter, when non-nil, caps every tick's target against a shared
	// capacity pool (see Pool). The controller reports its load-justified
	// demand alongside the cooldown-shaped target, so the pool can tell
	// idle surplus from needed capacity and preempt only the former.
	Arbiter Arbiter

	pol          Policy // resolved
	status       Status
	rate         metrics.EWMA
	p95          metrics.EWMA
	prevRequests int       // gateway request counter at the previous tick
	prevTick     time.Time // when prevRequests was sampled
	idleSince    time.Time
	lastUp       time.Time
	lastDown     time.Time
	started      bool
	stopped      bool
}

// Start validates the policy and launches the control loop.
func (a *Autoscaler) Start(eng *sim.Engine) error {
	if a.started {
		return fmt.Errorf("autoscale: controller already started")
	}
	if a.Gateway == nil || a.Scaler == nil {
		return fmt.Errorf("autoscale: Gateway and Scaler are required")
	}
	if err := a.Policy.Validate(); err != nil {
		return err
	}
	if a.Name == "" {
		a.Name = a.Gateway.Host
	}
	a.pol = a.Policy.WithDefaults()
	a.prevRequests, a.prevTick = a.Gateway.Stats().Requests, eng.Now()
	a.started = true
	eng.Go("autoscale-"+a.Name, func(p *sim.Proc) {
		for !a.stopped {
			p.Sleep(a.pol.Interval)
			if a.stopped {
				return
			}
			a.tick(p)
		}
	})
	return nil
}

// Stop ends the control loop at its next wakeup.
func (a *Autoscaler) Stop() { a.stopped = true }

// Status returns a snapshot of the controller's last decision.
func (a *Autoscaler) Status() Status { return a.status }

// tick runs one control-loop pass: sample signals, decide, apply.
func (a *Autoscaler) tick(p *sim.Proc) {
	now := p.Now()
	cur := a.Scaler.CurrentReplicas()
	load := a.Gateway.Load()
	holding := a.Gateway.Holding()
	p95 := a.p95.Observe(now, float64(a.Gateway.LatencyQuantile(now, 0.95))/float64(time.Millisecond))
	// The rate is the exact arrival count since the previous sample over
	// the time elapsed (longer than Interval after a blocking ScaleTo).
	// Idleness is judged on the count itself, not the smoothed rate, which
	// takes many halflives to decay below any threshold and would push
	// scale-to-zero far past ScaleToZeroAfter.
	reqs := a.Gateway.Stats().Requests
	newArrivals := reqs - a.prevRequests
	rate := a.rate.Observe(now, float64(newArrivals)/now.Sub(a.prevTick).Seconds())
	a.prevRequests, a.prevTick = reqs, now

	// The objective counts as breached while the smoothed p95 is past it OR
	// the gateway's admission breaker is actively shedding: shed traffic
	// deflates both the queues and the latency tail, so the raw signals
	// momentarily looking healthy mid-incident is the breaker working, not
	// spare capacity.
	breached := a.sloBreached(p95)
	if st, ok := a.Gateway.SLO(); ok && st.Engaged {
		breached = true
	}

	target, reason := a.desired(now, cur, load, holding, newArrivals, p95, breached)
	demand := a.demand(load, holding, breached)
	if a.Arbiter != nil {
		if granted := a.Arbiter.Grant(cur, target, demand); granted != target {
			reason = fmt.Sprintf("pool arbitration: granted %d of %d (%s)", granted, target, reason)
			target = granted
		}
	}
	a.status.Current, a.status.Target = cur, target
	a.status.Demand = demand
	a.status.Load, a.status.Holding = load, holding
	a.status.RatePerSec, a.status.P95Millis = rate, p95
	a.status.Reason = reason
	a.status.SLOBreached = breached
	a.status.SLOBreachedAtMax = breached && cur >= a.pol.MaxReplicas
	if target == cur {
		return
	}
	a.status.Scaling = true
	err := a.Scaler.ScaleTo(p, target)
	a.status.Scaling = false
	if err != nil {
		a.status.LastError = err.Error()
	} else {
		a.status.LastError = ""
	}
	// Record the direction actually applied, not the one requested: a
	// partially successful scale-up (some replicas came up, one launch
	// failed) must still start the cooldown and post-scale-up
	// stabilization window, or the fresh replicas — whose queues look
	// empty until scraped — would be drained right back down.
	after := a.Scaler.CurrentReplicas()
	if after > cur {
		a.lastUp = p.Now()
		a.status.ScaleUps++
	} else if after < cur {
		a.lastDown = p.Now()
		a.status.ScaleDowns++
	}
	a.status.Current = after
}

// demand is the replica count the current load justifies, ignoring
// cooldowns and stabilization — the pool arbiter's fair-share signal. A
// member coasting on its scale-down cooldown wants its current size but
// demands only what its queues support; the difference is reclaimable. An
// SLO breach raises demand past what the queues show: the pool must not
// reclaim from — and should grant to — a member missing its objective.
// Once the set is pinned at MaxReplicas the breach-bump stops: more
// capacity cannot be used, so re-raising demand every tick only fights the
// gateway's admission breaker for a resolution scaling cannot deliver.
// Instead demand holds steady at the ceiling (breaker-shed traffic
// deflates the queue signal, and the pool must not reclaim mid-incident)
// while the breach itself is surfaced through Status/telemetry.
func (a *Autoscaler) demand(load, holding int, breached bool) int {
	n := ceilDiv(load, a.pol.TargetQueueDepth)
	if n < 1 && (load > 0 || holding > 0) {
		n = 1
	}
	if breached {
		cur := a.Scaler.CurrentReplicas()
		if cur < a.pol.MaxReplicas {
			if n <= cur {
				n = cur + 1
			}
		} else if n < a.pol.MaxReplicas {
			n = a.pol.MaxReplicas
		}
	}
	if n < a.pol.MinReplicas {
		n = a.pol.MinReplicas
	}
	if n > a.pol.MaxReplicas {
		n = a.pol.MaxReplicas
	}
	return n
}

// sloBreached reports whether the smoothed p95 is past the policy's
// latency objective.
func (a *Autoscaler) sloBreached(p95Millis float64) bool {
	return a.pol.SLOTargetP95 > 0 &&
		p95Millis > float64(a.pol.SLOTargetP95)/float64(time.Millisecond)
}

// desired computes the next replica target from the sampled signals.
// breached folds the smoothed p95 and the gateway breaker's engaged state
// together (see tick).
func (a *Autoscaler) desired(now time.Time, cur, load, holding, newArrivals int, p95Millis float64, breached bool) (int, string) {
	pol := a.pol

	idle := load == 0 && holding == 0 && newArrivals == 0
	if idle {
		if a.idleSince.IsZero() {
			a.idleSince = now
		}
	} else {
		a.idleSince = time.Time{}
	}

	// Cold start: demand against zero replicas. Held requests are waiting on
	// this decision, so the scale-up cooldown does not apply.
	if cur == 0 {
		if holding > 0 || !idle {
			demand := load
			if demand < 1 {
				demand = 1
			}
			return a.clamp(ceilDiv(demand, pol.TargetQueueDepth), 1), "cold start: demand with zero replicas"
		}
		return 0, "idle at zero"
	}

	// SLO breach at the ceiling: scaling has nothing left to give, so the
	// gateway's admission breaker owns the recovery. Hold the target steady
	// with a stable reason — re-entering the scale-up/scale-down logic here
	// is what made the controller and the breaker race: shedding deflates
	// load and p95, the controller reads that as reclaimable surplus,
	// shrinks, and re-triggers the very breach the breaker just cleared.
	if breached && cur >= pol.MaxReplicas {
		return cur, fmt.Sprintf("slo breached at max replicas (%d); admission breaker owns recovery", pol.MaxReplicas)
	}

	// SLO breach: the latency tail crosses the objective before the queue
	// depths do (continuous batching hides overload in batch size, not
	// queue length). Grow one replica per cooldown window until the tail
	// recovers or the ceiling is hit — past the ceiling only the gateway's
	// admission breaker is left, which is exactly the intended order:
	// scale first, shed only if scaling cannot keep up.
	if breached && cur < pol.MaxReplicas {
		if !a.lastUp.IsZero() && now.Sub(a.lastUp) < pol.ScaleUpCooldown {
			return cur, "slo breach: scale-up in cooldown"
		}
		// Size for the queues when they justify more (a burst that breaches
		// both signals must not grow slower than the queue path alone
		// would); grow by one even when they do not — shallow queues with a
		// breached tail are continuous batching hiding the overload.
		n := ceilDiv(load, pol.TargetQueueDepth)
		if n <= cur {
			n = cur + 1
		}
		return a.clamp(n, cur), fmt.Sprintf("p95 %.0fms breaches SLO %s; scaling before shedding",
			p95Millis, pol.SLOTargetP95)
	}

	per := float64(load) / float64(cur)
	up, down := float64(pol.TargetQueueDepth), float64(pol.TargetQueueDepth)/4

	if per > up && cur < pol.MaxReplicas {
		if !a.lastUp.IsZero() && now.Sub(a.lastUp) < pol.ScaleUpCooldown {
			return cur, "scale-up in cooldown"
		}
		n := ceilDiv(load, pol.TargetQueueDepth)
		if n <= cur {
			n = cur + 1
		}
		return a.clamp(n, cur), fmt.Sprintf("per-replica load %.1f above threshold %.1f", per, up)
	}

	// Scale-to-zero (or to the floor) after sustained idleness.
	if idle && now.Sub(a.idleSince) >= pol.ScaleToZeroAfter && cur > pol.MinReplicas {
		return pol.MinReplicas, fmt.Sprintf("idle for %s", now.Sub(a.idleSince).Round(time.Second))
	}

	// Gradual scale-down toward the load's demand: one replica at a time,
	// only after the set has been stable since the last scale event (a
	// fresh replica's queues look empty until scraped, so reacting to them
	// immediately would flap). Never to zero on this path — zero is
	// reserved for the idle timeout above.
	floor := pol.MinReplicas
	if floor < 1 {
		floor = 1
	}
	// Never shrink while the latency objective is breached (possible at
	// MaxReplicas with shallow queues: the engines are slow, not idle).
	if per < down && cur > floor && !breached {
		if !a.lastDown.IsZero() && now.Sub(a.lastDown) < pol.ScaleDownCooldown {
			return cur, "scale-down in cooldown"
		}
		if !a.lastUp.IsZero() && now.Sub(a.lastUp) < pol.ScaleDownCooldown {
			return cur, "stabilizing after scale-up"
		}
		n := cur - 1
		if want := ceilDiv(load, pol.TargetQueueDepth); n < want {
			n = want
		}
		if n < floor {
			n = floor
		}
		if n >= cur {
			return cur, "steady"
		}
		return n, fmt.Sprintf("per-replica load %.1f below threshold %.1f", per, down)
	}
	return cur, "steady"
}

// clamp bounds n into [max(lo, MinReplicas... as applicable), MaxReplicas].
func (a *Autoscaler) clamp(n, lo int) int {
	if n < lo {
		n = lo
	}
	if n > a.pol.MaxReplicas {
		n = a.pol.MaxReplicas
	}
	return n
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
