package ingress

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vhttp"
)

// replica is a controllable fake backend: health, queue depth, per-request
// latency, and a forced-failure mode for mid-request crash scenarios.
type replica struct {
	name    string
	up      bool
	waiting int
	latency time.Duration
	// failNext makes the next forwarded request return 500 (the engine
	// failing an in-flight request as it dies).
	failNext bool
	hits     int
}

func (r *replica) Serve(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
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
	if r.failNext {
		r.failNext = false
		return vhttp.Text(500, `{"error":{"message":"vllm: engine dead"}}`)
	}
	r.hits++
	return vhttp.Text(200, r.name)
}

func newGateway(t *testing.T, policy Policy, reps ...*replica) (*sim.Engine, *vhttp.Net, *Gateway) {
	t.Helper()
	eng, net := newNet(t)
	gw := &Gateway{Net: net, Host: "gw", Port: 8000, Policy: policy, HealthInterval: 10 * time.Second}
	for i, r := range reps {
		host := fmt.Sprintf("node%d", i)
		if err := net.Listen(host, 8000, r, vhttp.ListenOptions{Up: func() bool { return r.up }}); err != nil {
			t.Fatal(err)
		}
		gw.AddBackend(r.name, host, 8000)
	}
	if err := gw.Start(eng); err != nil {
		t.Fatal(err)
	}
	return eng, net, gw
}

func TestGatewayRoundRobinSpreadsRequests(t *testing.T) {
	a := &replica{name: "a", up: true}
	b := &replica{name: "b", up: true}
	c := &replica{name: "c", up: true}
	eng, net, gw := newGateway(t, PolicyRoundRobin, a, b, c)
	for i := 0; i < 9; i++ {
		status, _ := get(eng, net, "user", "http://gw:8000/v1/models")
		if status != 200 {
			t.Fatalf("request %d: status %d", i, status)
		}
	}
	if a.hits != 3 || b.hits != 3 || c.hits != 3 {
		t.Fatalf("distribution = %d/%d/%d, want 3/3/3", a.hits, b.hits, c.hits)
	}
	if st := gw.Stats(); st.Requests != 9 || st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGatewayLeastLoadedPrefersShortestQueue(t *testing.T) {
	a := &replica{name: "a", up: true, waiting: 50}
	b := &replica{name: "b", up: true, waiting: 2}
	eng, net, _ := newGateway(t, PolicyLeastLoaded, a, b)
	eng.RunFor(time.Second) // first probe round scrapes queue depths
	for i := 0; i < 6; i++ {
		if _, body := get(eng, net, "user", "http://gw:8000/v1/models"); body != "b" {
			t.Fatalf("request %d routed to %q, want the short-queue replica", i, body)
		}
	}
	if a.hits != 0 || b.hits != 6 {
		t.Fatalf("distribution = %d/%d, want 0/6", a.hits, b.hits)
	}
}

func TestGatewayRetriesOnCrashedReplica(t *testing.T) {
	// The acceptance scenario: the first-choice replica dies mid-request
	// (its in-flight requests surface 500); the gateway retries once on a
	// different replica and the client sees 200.
	a := &replica{name: "a", up: true, failNext: true}
	b := &replica{name: "b", up: true}
	eng, net, gw := newGateway(t, PolicyRoundRobin, a, b)
	status, body := get(eng, net, "user", "http://gw:8000/v1/chat/completions")
	if status != 200 || body != "b" {
		t.Fatalf("status=%d body=%q, want 200 from the healthy replica", status, body)
	}
	if st := gw.Stats(); st.Retries != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want exactly one retry", st)
	}
}

func TestGatewayRetriesWhenReplicaUnreachable(t *testing.T) {
	// A fully dead endpoint (engine gone, listener Up=false) is a transport
	// error: the gateway retries AND takes the replica out of rotation.
	a := &replica{name: "a", up: true}
	b := &replica{name: "b", up: true}
	eng, net, gw := newGateway(t, PolicyRoundRobin, a, b)
	eng.RunFor(time.Second) // probe round 1 sees both replicas healthy
	a.up = false            // dies between probes: the gateway finds out the hard way
	for i := 0; i < 4; i++ {
		status, body := get(eng, net, "user", "http://gw:8000/v1/models")
		if status != 200 || body != "b" {
			t.Fatalf("request %d: status=%d body=%q", i, status, body)
		}
	}
	// Only the first request pays the retry; after the mark, picks skip a.
	if st := gw.Stats(); st.Retries != 1 {
		t.Fatalf("retries = %d, want 1 (replica marked down after first failure)", st.Retries)
	}
	if gw.HealthyBackends() != 1 {
		t.Fatalf("healthy = %d, want 1", gw.HealthyBackends())
	}
}

func TestGatewayHealthCheckRevivesReplica(t *testing.T) {
	a := &replica{name: "a", up: true}
	b := &replica{name: "b", up: true}
	eng, net, gw := newGateway(t, PolicyRoundRobin, a, b)
	a.up = false
	get(eng, net, "user", "http://gw:8000/v1/models") // marks a down via retry
	if gw.HealthyBackends() != 1 {
		t.Fatalf("healthy = %d, want 1", gw.HealthyBackends())
	}
	// The replica comes back (cron restart, redeploy); the probe revives it.
	a.up = true
	eng.RunFor(30 * time.Second)
	if gw.HealthyBackends() != 2 {
		t.Fatalf("healthy after revival probe = %d, want 2", gw.HealthyBackends())
	}
	a.hits, b.hits = 0, 0
	for i := 0; i < 4; i++ {
		get(eng, net, "user", "http://gw:8000/v1/models")
	}
	if a.hits == 0 {
		t.Fatal("revived replica receives no traffic")
	}
}

func TestGatewayAdmissionControl503(t *testing.T) {
	a := &replica{name: "a", up: true, waiting: 40}
	b := &replica{name: "b", up: true, waiting: 60}
	eng, net, gw := newGateway(t, PolicyRoundRobin, a, b)
	gw.MaxWaiting = 32
	eng.RunFor(time.Second) // scrape the saturated queue depths
	status, body := get(eng, net, "user", "http://gw:8000/v1/chat/completions")
	if status != 503 || !strings.Contains(body, "waiting-queue") {
		t.Fatalf("status=%d body=%q, want 503 shed", status, body)
	}
	if st := gw.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	// One replica draining below threshold re-admits traffic.
	a.waiting = 4
	eng.RunFor(30 * time.Second)
	if status, _ := get(eng, net, "user", "http://gw:8000/v1/chat/completions"); status != 200 {
		t.Fatalf("post-drain status = %d, want 200", status)
	}
}

func TestGatewayHealthAndStatusEndpoints(t *testing.T) {
	a := &replica{name: "a", up: true}
	b := &replica{name: "b", up: true}
	eng, net, gw := newGateway(t, PolicyLeastLoaded, a, b)
	if status, body := get(eng, net, "user", "http://gw:8000/health"); status != 200 || body != "ok" {
		t.Fatalf("gateway health = %d %q", status, body)
	}
	_, body := get(eng, net, "user", "http://gw:8000/gateway/status")
	for _, want := range []string{`"policy":"least-loaded"`, `"name":"a"`, `"name":"b"`, `"healthy":true`} {
		if !strings.Contains(body, want) {
			t.Fatalf("status missing %q:\n%s", want, body)
		}
	}
	// All replicas down: the virtual endpoint reports unhealthy and
	// forwards fail with 502.
	a.up, b.up = false, false
	eng.RunFor(30 * time.Second)
	if status, _ := get(eng, net, "user", "http://gw:8000/health"); status != 503 {
		t.Fatalf("health with no replicas = %d, want 503", status)
	}
	if status, body := get(eng, net, "user", "http://gw:8000/v1/models"); status != 502 || !strings.Contains(body, "no healthy replicas") {
		t.Fatalf("forward with no replicas = %d %q", status, body)
	}
	gw.Stop()
	if status, _ := get(eng, net, "user", "http://gw:8000/health"); status != -1 {
		t.Fatal("stopped gateway still listening")
	}
}

func TestGatewayPreservesQueryString(t *testing.T) {
	eng, net := newNet(t)
	net.Listen("node0", 8000, vhttp.ServiceFunc(func(p *sim.Proc, r *vhttp.Request) *vhttp.Response {
		return vhttp.Text(200, "q="+r.Query.Get("q"))
	}), vhttp.ListenOptions{})
	gw := &Gateway{Net: net, Host: "gw", Port: 8000}
	gw.AddBackend("a", "node0", 8000)
	if err := gw.Start(eng); err != nil {
		t.Fatal(err)
	}
	if _, body := get(eng, net, "user", "http://gw:8000/v1/models?q=llama"); body != "q=llama" {
		t.Fatalf("query dropped in forwarding: %q", body)
	}
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy(""); err != nil || p != PolicyRoundRobin {
		t.Fatalf("default policy = %v %v", p, err)
	}
	if p, err := ParsePolicy("least-loaded"); err != nil || p != PolicyLeastLoaded {
		t.Fatalf("least-loaded = %v %v", p, err)
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Fatal("unknown policy should error")
	}
}

func TestGatewayRemoveBackendDrainsGracefully(t *testing.T) {
	// Scale-down must be invisible to clients: the drained backend stops
	// receiving new requests immediately, its in-flight request completes,
	// and only then does it detach.
	a := &replica{name: "a", up: true, latency: 5 * time.Second}
	b := &replica{name: "b", up: true}
	eng, net, gw := newGateway(t, PolicyRoundRobin, a, b)

	var slow *vhttp.Response
	eng.Go("slow-client", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net, From: "user"}
		slow, _ = c.Get(p, "http://gw:8000/v1/chat/completions") // round-robin: lands on a
	})
	eng.RunFor(time.Second) // request is now in flight on a

	drained := gw.RemoveBackend("a")
	if drained == nil {
		t.Fatal("RemoveBackend returned nil for a known backend")
	}
	if drained.Fired() {
		t.Fatal("backend with an in-flight request detached immediately")
	}
	if len(gw.Backends()) != 2 || !gw.Backends()[0].Draining() {
		t.Fatal("draining backend should stay attached until idle")
	}
	// New traffic all lands on b while a drains.
	for i := 0; i < 3; i++ {
		if _, body := get(eng, net, "user", "http://gw:8000/v1/models"); body != "b" {
			t.Fatalf("request routed to draining backend: %q", body)
		}
	}
	eng.RunFor(10 * time.Second) // a's slow request completes
	if slow == nil || slow.Status != 200 {
		t.Fatalf("in-flight request on draining backend = %+v, want 200", slow)
	}
	if !drained.Fired() {
		t.Fatal("drain signal never fired after in-flight completed")
	}
	if len(gw.Backends()) != 1 || gw.Backends()[0].Name != "b" {
		t.Fatalf("backends after drain = %+v", gw.Backends())
	}
}

func TestGatewayRemoveIdleBackendDetachesImmediately(t *testing.T) {
	a := &replica{name: "a", up: true}
	_, _, gw := newGateway(t, PolicyRoundRobin, a)
	sig := gw.RemoveBackend("a")
	if sig == nil || !sig.Fired() {
		t.Fatal("idle backend should detach immediately")
	}
	if gw.RemoveBackend("nope") != nil {
		t.Fatal("unknown backend should return nil")
	}
	if len(gw.Backends()) != 0 {
		t.Fatal("backend still attached")
	}
}

func TestGatewayColdStartHoldReleasesOnAddBackend(t *testing.T) {
	// Scale-to-zero: a request arriving with no backends parks at the
	// gateway and completes once the autoscaler registers a fresh replica.
	eng, net, gw := newGateway(t, PolicyRoundRobin)
	gw.HoldColdStart = true

	var status int
	var body string
	done := false
	eng.Go("held-client", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net, From: "user"}
		resp, err := c.Get(p, "http://gw:8000/v1/chat/completions")
		if err != nil {
			t.Errorf("held request error: %v", err)
		} else {
			status, body = resp.Status, string(resp.Body)
		}
		done = true
	})
	eng.RunFor(time.Minute)
	if done {
		t.Fatal("request should still be held (no backends)")
	}
	if gw.Holding() != 1 || gw.Stats().Held != 1 {
		t.Fatalf("holding = %d held = %d, want 1/1", gw.Holding(), gw.Stats().Held)
	}

	// The cold-started replica comes up 3 minutes in.
	r := &replica{name: "cold", up: true}
	net.Listen("coldnode", 8000, r, vhttp.ListenOptions{Up: func() bool { return r.up }})
	gw.AddBackend("cold", "coldnode", 8000)
	eng.RunFor(time.Minute)
	if !done || status != 200 || body != "cold" {
		t.Fatalf("held request after scale-up: done=%v %d %q, want 200 from the new replica", done, status, body)
	}
	if gw.Holding() != 0 {
		t.Fatalf("holding = %d after release", gw.Holding())
	}
}

func TestGatewayColdStartHoldTimesOut(t *testing.T) {
	eng, net, gw := newGateway(t, PolicyRoundRobin)
	gw.HoldColdStart = true
	gw.ColdStartWait = 5 * time.Minute

	var status int
	eng.Go("held-client", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net, From: "user"}
		if resp, err := c.Get(p, "http://gw:8000/v1/models"); err == nil {
			status = resp.Status
		}
	})
	eng.RunFor(10 * time.Minute)
	if status != 503 {
		t.Fatalf("timed-out held request = %d, want 503", status)
	}
	if st := gw.Stats(); st.Held != 1 || st.Errors != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGatewayHealthWhileScaledToZero(t *testing.T) {
	eng, net, gw := newGateway(t, PolicyRoundRobin)
	if status, _ := get(eng, net, "user", "http://gw:8000/health"); status != 503 {
		t.Fatalf("plain empty gateway health = %d, want 503", status)
	}
	gw.HoldColdStart = true
	if status, _ := get(eng, net, "user", "http://gw:8000/health"); status != 200 {
		t.Fatalf("cold-start-holding gateway health = %d, want 200 (requests queue)", status)
	}
}

func TestGatewayStatusShowsDrainAndHolding(t *testing.T) {
	a := &replica{name: "a", up: true, latency: 10 * time.Second}
	eng, net, gw := newGateway(t, PolicyRoundRobin, a)
	eng.Go("slow-client", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net, From: "user"}
		c.Get(p, "http://gw:8000/v1/chat/completions")
	})
	eng.RunFor(time.Second)
	gw.RemoveBackend("a")
	_, body := get(eng, net, "user", "http://gw:8000/gateway/status")
	for _, want := range []string{`"draining":true`, `"holding":0`} {
		if !strings.Contains(body, want) {
			t.Fatalf("status missing %q:\n%s", want, body)
		}
	}
	gw.AutoscaleStatus = func() any { return map[string]int{"target": 3} }
	_, body = get(eng, net, "user", "http://gw:8000/gateway/status")
	if !strings.Contains(body, `"autoscale":{"target":3}`) {
		t.Fatalf("status missing autoscale block:\n%s", body)
	}
}

func TestGatewayLoadAndRateSignals(t *testing.T) {
	a := &replica{name: "a", up: true, waiting: 6}
	eng, net, gw := newGateway(t, PolicyRoundRobin, a)
	eng.RunFor(time.Second) // scrape queue depths
	for i := 0; i < 5; i++ {
		get(eng, net, "user", "http://gw:8000/v1/models")
	}
	if load := gw.Load(); load != 6 {
		t.Fatalf("Load = %d, want 6 (scraped waiting, no inflight)", load)
	}
	if lat := gw.LatencyQuantile(eng.Now(), 0.95); lat < 0 {
		t.Fatalf("latency quantile = %v", lat)
	}
}

func TestGatewayAllDrainingBackends502(t *testing.T) {
	// Every backend draining is a set with no routable replica: without
	// cold-start holding the request must fail fast with 502, not land on
	// a replica that is being retired.
	a := &replica{name: "a", up: true, latency: 30 * time.Second}
	b := &replica{name: "b", up: true, latency: 30 * time.Second}
	eng, net, gw := newGateway(t, PolicyRoundRobin, a, b)

	// Park one slow request on each backend so both drains stay pending.
	for i := 0; i < 2; i++ {
		eng.Go(fmt.Sprintf("slow-%d", i), func(p *sim.Proc) {
			c := &vhttp.Client{Net: net, From: "user"}
			c.Get(p, "http://gw:8000/v1/chat/completions")
		})
	}
	eng.RunFor(time.Second)
	gw.RemoveBackend("a")
	gw.RemoveBackend("b")
	if len(gw.Backends()) != 2 {
		t.Fatal("draining backends should stay attached while in flight")
	}

	status, body := get(eng, net, "user", "http://gw:8000/v1/chat/completions")
	if status != 502 || !strings.Contains(body, "no healthy replicas") {
		t.Fatalf("request against all-draining set = %d %q, want 502", status, body)
	}
	if st := gw.Stats(); st.Errors != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want one error and no retry against a draining set", st)
	}
}

func TestGatewayRetryExhaustionTwoDistinctFailures(t *testing.T) {
	// Both the first choice and the distinct-replica retry fail: the client
	// sees one 502 naming the retry, and both replicas are out of rotation.
	a := &replica{name: "a", up: true}
	b := &replica{name: "b", up: true}
	eng, net, gw := newGateway(t, PolicyRoundRobin, a, b)
	eng.RunFor(time.Second) // first probe sees both healthy
	a.up, b.up = false, false

	status, body := get(eng, net, "user", "http://gw:8000/v1/chat/completions")
	if status != 502 || !strings.Contains(body, "retry on") {
		t.Fatalf("double transport failure = %d %q, want 502 naming the retry", status, body)
	}
	st := gw.Stats()
	if st.Retries != 1 || st.Errors != 1 {
		t.Fatalf("stats = %+v, want exactly one retry and one error", st)
	}
	if gw.HealthyBackends() != 0 {
		t.Fatalf("healthy = %d, want both failed replicas marked down", gw.HealthyBackends())
	}

	// 5xx on both attempts (engines dying mid-request, endpoints alive):
	// the second response passes through and both failures are counted.
	a.up, b.up = true, true
	eng.RunFor(30 * time.Second) // probes revive both
	a.failNext, b.failNext = true, true
	status, _ = get(eng, net, "user", "http://gw:8000/v1/chat/completions")
	if status != 500 {
		t.Fatalf("double 5xx = %d, want the retried replica's 500 passed through", status)
	}
	if st := gw.Stats(); st.Retries != 2 || st.Errors != 2 {
		t.Fatalf("stats after 5xx exhaustion = %+v", st)
	}
}

func TestGatewayColdStartWaitDeadline503(t *testing.T) {
	// The ColdStartWait budget is fixed at arrival and covers re-holds: a
	// request that got a replica which then died must not wait a second
	// full window before its 503.
	a := &replica{name: "a", up: true, latency: 2 * time.Second}
	eng, net, gw := newGateway(t, PolicyRoundRobin, a)
	gw.HoldColdStart = true
	gw.ColdStartWait = 5 * time.Minute
	a.up = false // transport error on the only replica → re-hold

	var status int
	var elapsed time.Duration
	eng.Go("client", func(p *sim.Proc) {
		start := p.Now()
		c := &vhttp.Client{Net: net, From: "user"}
		if resp, err := c.Get(p, "http://gw:8000/v1/chat/completions"); err == nil {
			status = resp.Status
			elapsed = p.Now().Sub(start)
		}
	})
	eng.RunFor(20 * time.Minute)
	if status != 503 {
		t.Fatalf("re-held request past the deadline = %d, want 503", status)
	}
	if elapsed > 6*time.Minute {
		t.Fatalf("503 arrived after %s, want within the single %s budget", elapsed, gw.ColdStartWait)
	}
	if st := gw.Stats(); st.Held != 1 || st.Errors != 1 {
		t.Fatalf("stats = %+v, want one hold and one error", st)
	}
}

func TestGatewayAuthoritativeModelList(t *testing.T) {
	// The /v1/models fix: with the served model known, the gateway answers
	// the list itself — identical during cold starts, drains, and
	// irrespective of which replica a pick would have hit.
	a := &replica{name: "a", up: true}
	eng, net, gw := newGateway(t, PolicyRoundRobin, a)
	gw.Model = "meta-llama/Llama-3.1-8B-Instruct"

	status, body := get(eng, net, "user", "http://gw:8000/v1/models")
	if status != 200 || !strings.Contains(body, `"id":"meta-llama/Llama-3.1-8B-Instruct"`) {
		t.Fatalf("models = %d %q, want the served name", status, body)
	}
	if a.hits != 0 {
		t.Fatal("authoritative list should not consume a replica pick")
	}
	// Still authoritative with zero routable replicas.
	a.up = false
	eng.RunFor(30 * time.Second)
	if status, body2 := get(eng, net, "user", "http://gw:8000/v1/models"); status != 200 || body2 != body {
		t.Fatalf("models with no replicas = %d %q, want the same authoritative list", status, body2)
	}
	// Without a configured model the old proxy behaviour is preserved.
	gw.Model = ""
	if status, _ := get(eng, net, "user", "http://gw:8000/v1/models"); status != 502 {
		t.Fatalf("proxying gateway with dead replica = %d, want 502", status)
	}
}

func TestGatewaySessionAffinityPinsAndSpills(t *testing.T) {
	// Session routing: every request of one conversation lands on the same
	// replica until that replica saturates, then spills to least-loaded.
	a := &replica{name: "a", up: true}
	b := &replica{name: "b", up: true}
	c := &replica{name: "c", up: true}
	eng, net, gw := newGateway(t, PolicySession, a, b, c)
	gw.SessionSpillDepth = 4

	send := func(session string) string {
		var body string
		eng.Go("client", func(p *sim.Proc) {
			cl := &vhttp.Client{Net: net, From: "user"}
			resp, err := cl.Do(p, &vhttp.Request{
				Method: "POST", URL: "http://gw:8000/v1/chat/completions",
				Body: []byte(fmt.Sprintf(`{"model":"m","session_id":%q}`, session)),
			})
			if err == nil {
				body = string(resp.Body)
			}
		})
		eng.RunFor(time.Second)
		return body
	}

	first := send("conversation-1")
	if first == "" {
		t.Fatal("no response")
	}
	for i := 0; i < 5; i++ {
		if got := send("conversation-1"); got != first {
			t.Fatalf("request %d landed on %q, want the affine replica %q", i, got, first)
		}
	}
	// Saturate the affine replica: the session spills to another one.
	for _, r := range []*replica{a, b, c} {
		if r.name == first {
			r.waiting = 10
		}
	}
	eng.RunFor(15 * time.Second) // probe scrapes the queue depth
	if got := send("conversation-1"); got == first || got == "" {
		t.Fatalf("saturated affine replica still served the session (got %q)", got)
	}
	if gw.SessionSpills() == 0 {
		t.Fatal("spill not counted")
	}
}

func TestGatewaySLOShedsBatchKeepsInteractive(t *testing.T) {
	// SLO admission: once the rolling p95 breaches the objective, batch
	// requests shed with 503 + Retry-After while interactive ones serve.
	slow := &replica{name: "slow", up: true, latency: 10 * time.Second}
	eng, net, gw := newGateway(t, PolicyRoundRobin, slow)
	gw.SLOTargetP95 = 2 * time.Second

	post := func(priority string) (int, *vhttp.Response) {
		var status int
		var resp *vhttp.Response
		eng.Go("client", func(p *sim.Proc) {
			cl := &vhttp.Client{Net: net, From: "user"}
			hdr := map[string]string{}
			if priority != "" {
				hdr["X-Priority"] = priority
			}
			if r, err := cl.Do(p, &vhttp.Request{
				Method: "POST", URL: "http://gw:8000/v1/chat/completions",
				Header: hdr, Body: []byte(`{"model":"m"}`),
			}); err == nil {
				status, resp = r.Status, r
			}
		})
		eng.RunFor(30 * time.Second)
		return status, resp
	}

	// Before any latency samples the breaker is open: batch serves.
	if status, _ := post("batch"); status != 200 {
		t.Fatalf("pre-breach batch = %d, want 200", status)
	}
	// The 10s completions now dominate the p95, breaching the 2s target.
	if status, resp := post("batch"); status != 503 || resp.Header["Retry-After"] == "" {
		t.Fatalf("post-breach batch = %d (Retry-After %q), want a 503 shed", status, resp.Header["Retry-After"])
	}
	if status, _ := post("interactive"); status != 200 {
		t.Fatalf("interactive under breach = %d, want 200 (never SLO-shed)", status)
	}
	if status, _ := post(""); status != 200 {
		t.Fatalf("unlabeled under breach = %d, want 200 (defaults to interactive)", status)
	}
	slo, ok := gw.SLO()
	if !ok || !slo.Engaged || slo.Sheds != 1 {
		t.Fatalf("slo status = %+v ok=%v", slo, ok)
	}
	if st := gw.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want the shed counted", st.Rejected)
	}
}

func TestGatewayHoldQueueWakesInteractiveFirst(t *testing.T) {
	// Priority hold queue: requests parked through a cold start release in
	// class order — interactive preempts batch regardless of arrival order.
	eng, net, gw := newGateway(t, PolicyRoundRobin)
	gw.HoldColdStart = true

	var order []string
	arrived := &replica{name: "fresh", up: true}
	recorder := vhttp.ServiceFunc(func(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
		if req.Path == "/v1/chat/completions" {
			order = append(order, req.Header["X-Priority"])
		}
		return arrived.Serve(p, req)
	})

	// The first batch request labels itself via the body's priority field
	// (which must work on a default-policy gateway too), the second via
	// the X-Priority header; the recorder reads the forwarded header, so
	// body-labeled requests show up as "".
	send := func(i int, header map[string]string, body string) {
		eng.Go(fmt.Sprintf("held-%d", i), func(p *sim.Proc) {
			cl := &vhttp.Client{Net: net, From: "user"}
			cl.Do(p, &vhttp.Request{
				Method: "POST", URL: "http://gw:8000/v1/chat/completions",
				Header: header, Body: []byte(body),
			})
		})
		eng.RunFor(time.Second) // fix arrival order
	}
	send(0, nil, `{"model":"m","priority":"batch"}`)
	send(1, map[string]string{"X-Priority": "batch"}, `{"model":"m"}`)
	send(2, map[string]string{"X-Priority": "interactive"}, `{"model":"m"}`)
	if gw.Holding() != 3 {
		t.Fatalf("holding = %d, want 3", gw.Holding())
	}
	net.Listen("fresh-node", 8000, recorder, vhttp.ListenOptions{Up: func() bool { return true }})
	gw.AddBackend("fresh", "fresh-node", 8000)
	eng.RunFor(time.Minute)
	// Interactive first, then the two batch requests in arrival order:
	// body-labeled ("", no header) before header-labeled ("batch").
	if len(order) != 3 || order[0] != "interactive" || order[1] != "" || order[2] != "batch" {
		t.Fatalf("release order = %v, want [interactive, \"\", batch]", order)
	}
	if gw.Holding() != 0 {
		t.Fatalf("holding = %d after release", gw.Holding())
	}
}

func TestGatewayReholdsWhenOnlyReplicaDiesMidRequest(t *testing.T) {
	// Cold-start edge: the freshly scaled-up replica dies while serving the
	// released request. With holding on, the request parks again and
	// completes on the next replica instead of surfacing a 502.
	a := &replica{name: "a", up: true, latency: 2 * time.Second}
	eng, net, gw := newGateway(t, PolicyRoundRobin, a)
	gw.HoldColdStart = true
	a.up = false // dies between probes: the forward hits a transport error

	var status int
	var body string
	eng.Go("client", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net, From: "user"}
		if resp, err := c.Get(p, "http://gw:8000/v1/chat/completions"); err == nil {
			status, body = resp.Status, string(resp.Body)
		}
	})
	eng.RunFor(time.Minute)
	if status != 0 {
		t.Fatalf("request should be re-held after the only replica failed, got %d %q", status, body)
	}
	// The replacement replica arrives; the parked request completes.
	b := &replica{name: "b", up: true}
	net.Listen("nodeb", 8000, b, vhttp.ListenOptions{Up: func() bool { return b.up }})
	gw.AddBackend("b", "nodeb", 8000)
	eng.RunFor(time.Minute)
	if status != 200 || body != "b" {
		t.Fatalf("re-held request = %d %q, want 200 from the replacement replica", status, body)
	}
}
