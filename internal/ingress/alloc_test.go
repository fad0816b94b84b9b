package ingress

import (
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/vhttp"
)

// Allocation budgets for the request-path hot spots, enforced in CI. The
// numbers are ceilings for the current implementation (pick is alloc-free
// after the candidate scratch reuse; dispatch-decision scans the body in
// place and pays only for the model name's string and the descriptor,
// which the test's closure lets escape) — a regression past them means a
// per-request allocation crept back into the data plane.
const (
	pickAllocBudget     = 0
	dispatchAllocBudget = 2
)

func requireAllocBudget(t *testing.T, name string, budget float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts are distorted by the race detector")
	}
	got := testing.AllocsPerRun(200, fn)
	if got > budget {
		t.Fatalf("%s: %.1f allocs/op, budget %.0f", name, got, budget)
	}
	t.Logf("%s: %.1f allocs/op (budget %.0f)", name, got, budget)
}

// enableTracing installs a recorder on every gateway so the budgets are
// measured with the tracing layer active. The huge sampling stride keeps
// the steady-state requests unsampled — the production default for
// untagged traffic — which is exactly the path that must stay alloc-free.
func enableTracing(router *Router, names []string) {
	for _, name := range names {
		router.Gateway(name).Tracer = &trace.Recorder{SampleEvery: 1 << 30}
	}
}

// TestRouterPickAllocBudget: the routing decision (model lookup + replica
// pick) must not allocate — the candidate snapshot reuses the gateway's
// scratch buffer.
func TestRouterPickAllocBudget(t *testing.T) {
	for _, policy := range []Policy{PolicyRoundRobin, PolicyLeastLoaded, PolicySession, PolicyPrefix} {
		router, names := benchFleet(4, 8, policy)
		enableTracing(router, names)
		// PrefixKey exercises the cache-aware policy's sketch consult; the
		// scan and the degraded Session path must both stay alloc-free.
		sreq := sched.Request{SessionKey: "budget-session", Class: sched.ClassInteractive, PrefixKey: 0xfeedface}
		i := 0
		requireAllocBudget(t, "pick/"+string(policy), pickAllocBudget, func() {
			gw := router.Gateway(names[i%4])
			i++
			if gw.pickFor(&sreq, nil) == nil {
				t.Fatal("pick returned nil with healthy backends")
			}
		})
	}
}

// TestRouterDispatchDecisionAllocBudget: the full router-side cost of one
// inference request before the forward — scheduling-attribute extraction
// from the JSON body, the trace-or-not decision, and the pick.
func TestRouterDispatchDecisionAllocBudget(t *testing.T) {
	router, names := benchFleet(4, 4, PolicyLeastLoaded)
	enableTracing(router, names)
	reqs := make([]*vhttp.Request, len(names))
	for i, name := range names {
		reqs[i] = &vhttp.Request{
			Method: "POST",
			Path:   "/v1/chat/completions",
			Body:   []byte(`{"model":"` + name + `","messages":[{"role":"user","content":"hi"}]}`),
		}
	}
	i := 0
	requireAllocBudget(t, "dispatch-decision", dispatchAllocBudget, func() {
		req := reqs[i%len(reqs)]
		i++
		desc, err := sched.Describe(req.Header, req.Body)
		if err != nil {
			t.Fatal("describe failed")
		}
		gw := router.Gateway(desc.Model)
		if gw == nil {
			t.Fatal("dispatch failed")
		}
		if tr := gw.startTrace(req, &desc, time.Time{}); tr != nil && desc.TraceID == "" {
			t.Fatal("unsampled request was traced")
		}
		cands, backends := gw.views(nil)
		if gw.pickFrom(cands, backends, &desc) == nil {
			t.Fatal("dispatch failed")
		}
	})
}

// TestStampSchedHintsAllocBudget: stamping the scheduler hints formats each
// class's TTFT target once; stamping a warm request whose header map has
// room allocates nothing. A client-supplied target and a TTFTTarget changed
// on a running gateway are stamped as they are.
func TestStampSchedHintsAllocBudget(t *testing.T) {
	gw := &Gateway{TTFTTarget: 150 * time.Millisecond}
	stamp := func(sreq sched.Request) *vhttp.Request {
		req := &vhttp.Request{Header: map[string]string{}}
		gw.normalize(&sreq)
		gw.stampSchedHints(req, &sreq)
		return req
	}
	for _, c := range []struct {
		sreq sched.Request
		want string
	}{
		{sched.Request{Class: sched.ClassInteractive}, "150000"},
		{sched.Request{Class: sched.ClassBatch}, "600000"},
		{sched.Request{Class: sched.ClassInteractive, TTFTTarget: 40 * time.Millisecond}, "40000"},
		{sched.Request{}, "150000"},
	} {
		if got := stamp(c.sreq).Header[sched.TTFTTargetHeader]; got != c.want {
			t.Fatalf("%+v stamped %q, want %q", c.sreq, got, c.want)
		}
	}
	gw.TTFTTarget = 200 * time.Millisecond
	if got := stamp(sched.Request{Class: sched.ClassBatch}).Header[sched.TTFTTargetHeader]; got != "800000" {
		t.Fatalf("batch after a target change stamped %q, want 800000", got)
	}

	sreqs := []sched.Request{{Class: sched.ClassInteractive}, {Class: sched.ClassBatch}}
	reqs := make([]*vhttp.Request, len(sreqs))
	for i := range sreqs {
		gw.normalize(&sreqs[i])
		reqs[i] = &vhttp.Request{Header: map[string]string{}}
		gw.stampSchedHints(reqs[i], &sreqs[i])
	}
	i := 0
	requireAllocBudget(t, "stamp-sched-hints", 0, func() {
		gw.stampSchedHints(reqs[i%2], &sreqs[i%2])
		i++
	})
}
