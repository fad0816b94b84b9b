package autoscale

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ingress"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vhttp"
)

// fakeReplica is a controllable backend: health, scraped queue depth, and
// per-request latency.
type fakeReplica struct {
	name    string
	up      bool
	waiting int
	latency time.Duration
	hits    int
}

func (r *fakeReplica) Serve(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
	switch req.Path {
	case "/health":
		if r.up {
			return vhttp.Text(200, "ok")
		}
		return vhttp.Text(500, "unhealthy")
	case telemetry.Path:
		return vhttp.JSON(200, telemetry.Snapshot{Waiting: r.waiting}.Encode())
	}
	if r.latency > 0 {
		p.Sleep(r.latency)
	}
	r.hits++
	return vhttp.Text(200, r.name)
}

// fakeScaler grows and shrinks a pool of fakeReplicas behind the gateway,
// recording every resize. ScaleTo takes simulated time, like a real
// replica launch (cold start) or drain.
type fakeScaler struct {
	net       *vhttp.Net
	gw        *ingress.Gateway
	replicas  []*fakeReplica
	nextID    int
	launchDur time.Duration
	history   []int
	waiting   int           // queue depth reported by every replica
	latency   time.Duration // per-request service time of new replicas
}

func (s *fakeScaler) CurrentReplicas() int { return len(s.replicas) }

func (s *fakeScaler) ScaleTo(p *sim.Proc, n int) error {
	s.history = append(s.history, n)
	for len(s.replicas) < n {
		if s.launchDur > 0 {
			p.Sleep(s.launchDur)
		}
		id := s.nextID
		s.nextID++
		r := &fakeReplica{name: fmt.Sprintf("r%d", id), up: true, waiting: s.waiting, latency: s.latency}
		host := fmt.Sprintf("node%d", id)
		s.net.Listen(host, 8000, r, vhttp.ListenOptions{Up: func() bool { return r.up }})
		s.replicas = append(s.replicas, r)
		s.gw.AddBackend(r.name, host, 8000)
	}
	for len(s.replicas) > n {
		r := s.replicas[len(s.replicas)-1]
		s.replicas = s.replicas[:len(s.replicas)-1]
		if sig := s.gw.RemoveBackend(r.name); sig != nil {
			p.WaitTimeout(sig, time.Minute)
		}
		r.up = false
	}
	return nil
}

func fixture(t *testing.T, pol Policy, initial int) (*sim.Engine, *vhttp.Net, *ingress.Gateway, *fakeScaler, *Autoscaler) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := vhttp.NewNet(netsim.New(eng))
	gw := &ingress.Gateway{Net: net, Host: "gw", Port: 8000, HealthInterval: 10 * time.Second, HoldColdStart: true}
	if err := gw.Start(eng); err != nil {
		t.Fatal(err)
	}
	sc := &fakeScaler{net: net, gw: gw}
	eng.Go("seed", func(p *sim.Proc) { sc.ScaleTo(p, initial) })
	eng.RunFor(time.Second)
	sc.history = nil
	as := &Autoscaler{Gateway: gw, Scaler: sc, Policy: pol}
	if err := as.Start(eng); err != nil {
		t.Fatal(err)
	}
	return eng, net, gw, sc, as
}

func TestPolicyValidate(t *testing.T) {
	if err := (Policy{MaxReplicas: 4}).Validate(); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
	for _, bad := range []Policy{
		{MinReplicas: -1, MaxReplicas: 4},
		{MaxReplicas: 0},
		{MinReplicas: 5, MaxReplicas: 2},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("policy %+v should be rejected", bad)
		}
	}
}

func TestPolicyDefaults(t *testing.T) {
	pol := Policy{MaxReplicas: 4}.WithDefaults()
	if pol.TargetQueueDepth != 8 || pol.Interval != 30*time.Second {
		t.Fatalf("defaults = %+v", pol)
	}
}

// TestRateIsTheArrivalCountSinceTheLastTick: the reported request rate
// is the exact arrival count since the previous tick over the time
// elapsed, so a steady 10 req/s load reads 10 req/s at the first tick
// rather than a count diluted over a window the load has not yet filled.
func TestRateIsTheArrivalCountSinceTheLastTick(t *testing.T) {
	pol := Policy{MinReplicas: 1, MaxReplicas: 2} // default 30 s interval
	eng, net, _, _, as := fixture(t, pol, 1)
	eng.Go("steady-load", func(p *sim.Proc) {
		// Half a period off the tick grid, so no arrival lands on a tick.
		p.Sleep(50 * time.Millisecond)
		for i := 0; i < 310; i++ {
			eng.Go("request", func(rp *sim.Proc) {
				c := &vhttp.Client{Net: net, From: "user"}
				c.Get(rp, "http://gw:8000/v1/chat/completions")
			})
			p.Sleep(100 * time.Millisecond)
		}
	})
	eng.RunFor(pol.WithDefaults().Interval + time.Second)
	if got := as.Status().RatePerSec; got < 9.9 || got > 10.1 {
		t.Fatalf("rate after the first tick = %.3f req/s, want 10 ± 1%%", got)
	}
}

func TestScaleUpOnQueueDepth(t *testing.T) {
	pol := Policy{MinReplicas: 1, MaxReplicas: 4, TargetQueueDepth: 8, Interval: 10 * time.Second}
	eng, _, _, sc, as := fixture(t, pol, 1)
	// The single replica reports a deep queue; the next probe scrapes it
	// and the next tick should size the set for the load: ceil(32/8) = 4.
	sc.replicas[0].waiting = 32
	eng.RunFor(time.Minute)
	if got := sc.CurrentReplicas(); got != 4 {
		t.Fatalf("replicas = %d, want 4 (load 32 / target 8)", got)
	}
	st := as.Status()
	if st.ScaleUps != 1 || st.Current != 4 {
		t.Fatalf("status = %+v", st)
	}
}

func TestScaleUpOnSLOBreachBeforeQueues(t *testing.T) {
	// Slow replicas, shallow queues: the latency objective is breached
	// while per-replica load never crosses the queue-depth threshold, so
	// only the SLO path can grow the set. One replica per cooldown window
	// until the ceiling.
	pol := Policy{MinReplicas: 2, MaxReplicas: 4, TargetQueueDepth: 8,
		Interval: 10 * time.Second, ScaleUpCooldown: 30 * time.Second,
		SLOTargetP95: time.Second}
	eng, net, _, sc, as := fixture(t, pol, 2)
	sc.latency = 3 * time.Second
	for _, r := range sc.replicas {
		r.latency = 3 * time.Second
	}

	// Open-loop trickle: one request every 2s, each taking 3s — about 1.5
	// in flight across two replicas, far below the queue threshold.
	stop := false
	eng.Go("load", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net, From: "user"}
		for i := 0; !stop; i++ {
			p.Sleep(2 * time.Second)
			eng.Go(fmt.Sprintf("req-%d", i), func(rp *sim.Proc) {
				c.Get(rp, "http://gw:8000/v1/chat/completions")
			})
		}
	})
	eng.RunFor(5 * time.Minute)
	if got := sc.CurrentReplicas(); got != 4 {
		t.Fatalf("replicas = %d, want the SLO path to reach the ceiling 4 (status %+v)", got, as.Status())
	}
	st := as.Status()
	if st.Load >= 8 {
		t.Fatalf("load = %d; the queue-depth path should never have triggered", st.Load)
	}
	if st.Demand < 4 {
		t.Fatalf("demand = %d, want the breach to keep demand at the ceiling", st.Demand)
	}
	// At the ceiling with the objective still breached, the set must not
	// shrink even though per-replica load is under the down threshold.
	eng.RunFor(5 * time.Minute)
	stop = true
	if got := sc.CurrentReplicas(); got != 4 {
		t.Fatalf("replicas after sustained breach = %d, want 4 (no shrink mid-breach)", got)
	}
}

func TestBreachAtMaxHoldsSteadyAndSurfacesViaStatus(t *testing.T) {
	// Pinned at MaxReplicas with the objective breached, the controller
	// must not race the gateway's admission breaker: no resizes, a stable
	// reason, demand held at the ceiling (the pool must not reclaim
	// mid-incident), and the breach surfaced as typed status fields that
	// flow into telemetry.FleetSnapshot.
	pol := Policy{MinReplicas: 1, MaxReplicas: 2, TargetQueueDepth: 8,
		Interval: 10 * time.Second, ScaleDownCooldown: 30 * time.Second,
		SLOTargetP95: time.Second}
	eng, net, _, sc, as := fixture(t, pol, 2)
	sc.latency = 3 * time.Second
	for _, r := range sc.replicas {
		r.latency = 3 * time.Second
	}
	stop := false
	eng.Go("load", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net, From: "user"}
		for i := 0; !stop; i++ {
			p.Sleep(2 * time.Second)
			eng.Go(fmt.Sprintf("req-%d", i), func(rp *sim.Proc) {
				c.Get(rp, "http://gw:8000/v1/chat/completions")
			})
		}
	})
	eng.RunFor(10 * time.Minute)
	stop = true
	st := as.Status()
	if !st.SLOBreached || !st.SLOBreachedAtMax {
		t.Fatalf("breach not surfaced: %+v", st)
	}
	if st.Demand != 2 {
		t.Fatalf("demand = %d, want held at ceiling 2 mid-incident", st.Demand)
	}
	if !strings.Contains(st.Reason, "admission breaker owns recovery") {
		t.Fatalf("reason = %q, want the stable breach-at-ceiling reason", st.Reason)
	}
	if got := sc.CurrentReplicas(); got != 2 {
		t.Fatalf("replicas = %d, want 2 (no flapping mid-breach)", got)
	}
	// Shallow per-replica load (trickle) plus shed-suppressed p95 used to
	// read as scale-down evidence; the set must not have resized at all.
	if len(sc.history) != 0 {
		t.Fatalf("resize history = %v, want none while pinned at max mid-breach", sc.history)
	}
}

func TestScaleUpCooldownLimitsRate(t *testing.T) {
	pol := Policy{MinReplicas: 1, MaxReplicas: 8, TargetQueueDepth: 4,
		Interval: 10 * time.Second, ScaleUpCooldown: time.Hour}
	eng, _, _, sc, _ := fixture(t, pol, 1)
	sc.waiting = 40 // every replica, including new ones, reports depth 40
	sc.replicas[0].waiting = 40
	eng.RunFor(5 * time.Minute)
	// One scale-up happened; the second is held back by the cooldown even
	// though the queues are still deep.
	if len(sc.history) != 1 {
		t.Fatalf("resize history = %v, want exactly one scale-up inside the cooldown", sc.history)
	}
}

func TestScaleDownTowardFloor(t *testing.T) {
	pol := Policy{MinReplicas: 1, MaxReplicas: 4, TargetQueueDepth: 8,
		Interval: 10 * time.Second, ScaleDownCooldown: time.Minute,
		ScaleToZeroAfter: 24 * time.Hour}
	eng, _, _, sc, _ := fixture(t, pol, 4)
	// No traffic at all: load is 0, so the set steps down to the floor —
	// but never to zero on this path (that needs the idle timeout).
	eng.RunFor(10 * time.Minute)
	if got := sc.CurrentReplicas(); got != 1 {
		t.Fatalf("replicas = %d, want floor 1", got)
	}
}

func TestScaleToZeroAfterIdleAndColdStartRecovery(t *testing.T) {
	pol := Policy{MinReplicas: 0, MaxReplicas: 4, TargetQueueDepth: 8,
		Interval: 10 * time.Second, ScaleDownCooldown: 30 * time.Second,
		ScaleToZeroAfter: 5 * time.Minute}
	eng, net, gw, sc, as := fixture(t, pol, 2)

	// Idle long enough: the set drains to zero.
	eng.RunFor(30 * time.Minute)
	if got := sc.CurrentReplicas(); got != 0 {
		t.Fatalf("replicas after idle = %d, want 0 (scale-to-zero)", got)
	}
	if st := as.Status(); st.Target != 0 || !strings.Contains(st.Reason, "idle") {
		t.Fatalf("status = %+v", st)
	}

	// A request arrives against zero replicas: held at the gateway, then
	// released when the controller cold-starts a replica. launchDur makes
	// the cold start take real (simulated) time.
	sc.launchDur = 2 * time.Minute
	var status int
	var body string
	eng.Go("user", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net, From: "user"}
		if resp, err := c.Get(p, "http://gw:8000/v1/chat/completions"); err == nil {
			status, body = resp.Status, string(resp.Body)
		}
	})
	eng.RunFor(4 * time.Minute)
	if status != 200 || body == "" {
		t.Fatalf("cold-start request = %d %q, want 200 from the new replica", status, body)
	}
	if got := sc.CurrentReplicas(); got < 1 {
		t.Fatalf("replicas after cold start = %d, want >= 1", got)
	}
	if gw.Stats().Held == 0 {
		t.Fatal("request was never held at the gateway")
	}
	if st := as.Status(); st.ScaleUps < 1 {
		t.Fatalf("status = %+v, want a recorded cold-start scale-up", st)
	}

	// And once that burst is over, the set drains back to zero again.
	eng.RunFor(30 * time.Minute)
	if got := sc.CurrentReplicas(); got != 0 {
		t.Fatalf("replicas after second idle spell = %d, want 0", got)
	}
}

func TestAutoscalerStartValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	as := &Autoscaler{}
	if err := as.Start(eng); err == nil {
		t.Fatal("missing gateway/scaler should fail")
	}
	net := vhttp.NewNet(netsim.New(eng))
	gw := &ingress.Gateway{Net: net, Host: "gw", Port: 8000}
	if err := gw.Start(eng); err != nil {
		t.Fatal(err)
	}
	as = &Autoscaler{Gateway: gw, Scaler: &fakeScaler{net: net, gw: gw}, Policy: Policy{MaxReplicas: 0}}
	if err := as.Start(eng); err == nil {
		t.Fatal("invalid policy should fail Start")
	}
	as.Policy = Policy{MaxReplicas: 2}
	if err := as.Start(eng); err != nil {
		t.Fatal(err)
	}
	if err := as.Start(eng); err == nil {
		t.Fatal("double Start should fail")
	}
	as.Stop()
}
