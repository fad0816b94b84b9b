package ingress

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/vhttp"
)

// newRouter assembles a router fronting one unbound gateway per model, each
// with the given replicas behind it.
func newRouter(t *testing.T, eng *sim.Engine, net *vhttp.Net, models map[string][]*replica) *Router {
	t.Helper()
	r := &Router{Net: net, Host: "router", Port: 8000}
	if err := r.Start(eng); err != nil {
		t.Fatal(err)
	}
	port := 9000
	for _, model := range sortedKeys(models) {
		gw := &Gateway{Net: net, Host: "router", Port: 0, Model: model, Unbound: true, HealthInterval: 10 * time.Second}
		for i, rep := range models[model] {
			host := fmt.Sprintf("%s-node%d", strings.ReplaceAll(model, "/", "-"), i)
			rep := rep
			if err := net.Listen(host, port, rep, vhttp.ListenOptions{Up: func() bool { return rep.up }}); err != nil {
				t.Fatal(err)
			}
			gw.AddBackend(rep.name, host, port)
		}
		if err := gw.Start(eng); err != nil {
			t.Fatal(err)
		}
		if err := r.AddModel(model, gw); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func sortedKeys(m map[string][]*replica) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func postChat(eng *sim.Engine, net *vhttp.Net, url, model string) (status int, body string) {
	eng.Go("chat-client", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net, From: "user"}
		b, _ := json.Marshal(map[string]any{"model": model, "messages": []any{}})
		resp, err := c.Do(p, &vhttp.Request{Method: "POST", URL: url + "/v1/chat/completions", Body: b})
		if err != nil {
			status, body = -1, err.Error()
			return
		}
		status, body = resp.Status, string(resp.Body)
	})
	eng.RunFor(time.Second)
	return status, body
}

func TestRouterDispatchesByModelName(t *testing.T) {
	a := &replica{name: "a0", up: true}
	b := &replica{name: "b0", up: true}
	eng, net := newNet(t)
	r := newRouter(t, eng, net, map[string][]*replica{"chat": {a}, "code": {b}})

	for i := 0; i < 3; i++ {
		if status, body := postChat(eng, net, r.Endpoint(), "chat"); status != 200 || body != "a0" {
			t.Fatalf("chat request %d: %d %q, want 200 from chat's replica", i, status, body)
		}
	}
	if status, body := postChat(eng, net, r.Endpoint(), "code"); status != 200 || body != "b0" {
		t.Fatalf("code request: %d %q, want 200 from code's replica", status, body)
	}
	if a.hits != 3 || b.hits != 1 {
		t.Fatalf("distribution = %d/%d, want 3/1 (model-keyed, not balanced)", a.hits, b.hits)
	}
	if st := r.Stats(); st.Requests != 4 || st.Unknown != 0 {
		t.Fatalf("router stats = %+v", st)
	}
}

func TestRouterUnknownModel404WithAvailableList(t *testing.T) {
	eng, net := newNet(t)
	r := newRouter(t, eng, net, map[string][]*replica{
		"chat": {{name: "a0", up: true}},
		"code": {{name: "b0", up: true}},
	})
	status, body := postChat(eng, net, r.Endpoint(), "gpt-5")
	if status != 404 {
		t.Fatalf("unknown model status = %d, want 404", status)
	}
	for _, want := range []string{`gpt-5`, "does not exist", "chat", "code", "invalid_request_error"} {
		if !strings.Contains(body, want) {
			t.Fatalf("404 body missing %q:\n%s", want, body)
		}
	}
	// A request naming no model is equally self-diagnosing.
	if status, body = postChat(eng, net, r.Endpoint(), ""); status != 404 || !strings.Contains(body, "names no model") {
		t.Fatalf("empty model = %d %q, want 404", status, body)
	}
	// Malformed JSON on a valid inference path is a body problem (400),
	// not an endpoint problem.
	eng.Go("bad-json", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net, From: "user"}
		resp, err := c.Do(p, &vhttp.Request{
			Method: "POST", URL: r.Endpoint() + "/v1/chat/completions", Body: []byte("{not json"),
		})
		if err != nil || resp.Status != 400 || !strings.Contains(string(resp.Body), "not valid JSON") {
			t.Errorf("malformed body = %v %+v, want 400 naming the body", err, resp)
		}
	})
	// A GET against an inference path is a method problem (405).
	if status, body := get(eng, net, "user", r.Endpoint()+"/v1/chat/completions"); status != 405 || !strings.Contains(body, "requires POST") {
		t.Fatalf("GET inference path = %d %q, want 405", status, body)
	}
	if st := r.Stats(); st.Unknown != 4 || st.Requests != 0 {
		t.Fatalf("router stats = %+v, want 4 unknown and 0 routed", st)
	}
}

func TestRouterAggregatesModelList(t *testing.T) {
	// The /v1/models regression: the list is authoritative at the router —
	// every fleet model exactly once — rather than whatever single name the
	// replica behind a round-robin pick happens to serve.
	eng, net := newNet(t)
	r := newRouter(t, eng, net, map[string][]*replica{
		"chat": {{name: "a0", up: true}, {name: "a1", up: true}},
		"code": {{name: "b0", up: true}},
	})
	// A duplicate served name on a second gateway must not duplicate the id.
	dup := &Gateway{Net: net, Host: "router", Model: "chat", Unbound: true}
	if err := dup.Start(eng); err != nil {
		t.Fatal(err)
	}
	if err := r.AddModel("chat", dup); err == nil {
		t.Fatal("duplicate route name should be rejected")
	}

	status, body := get(eng, net, "user", r.Endpoint()+"/v1/models")
	if status != 200 {
		t.Fatalf("models status = %d", status)
	}
	if got, want := strings.Count(body, `"id":"chat"`), 1; got != want {
		t.Fatalf("chat appears %d times, want %d:\n%s", got, want, body)
	}
	if !strings.Contains(body, `"id":"code"`) || !strings.Contains(body, `"object":"list"`) {
		t.Fatalf("models body = %s", body)
	}
	// No replica body ever leaks through: the fake replicas answer their
	// name, which must not appear.
	if strings.Contains(body, "a0") || strings.Contains(body, "b0") {
		t.Fatalf("model list reflects a single replica, not the fleet:\n%s", body)
	}
}

func TestRouterPerModelPoliciesApply(t *testing.T) {
	// The per-model gateway keeps its own policies behind the router:
	// least-loaded routing and retry-on-crash behave exactly as when bound.
	slow := &replica{name: "slow", up: true, waiting: 50}
	fast := &replica{name: "fast", up: true, waiting: 1}
	flaky := &replica{name: "flaky", up: true, failNext: true}
	backup := &replica{name: "backup", up: true}
	eng, net := newNet(t)
	r := newRouter(t, eng, net, map[string][]*replica{
		"chat": {slow, fast},
		"code": {flaky, backup},
	})
	r.Gateway("chat").Policy = PolicyLeastLoaded
	eng.RunFor(time.Second) // scrape queue depths

	for i := 0; i < 4; i++ {
		if _, body := postChat(eng, net, r.Endpoint(), "chat"); body != "fast" {
			t.Fatalf("least-loaded pick %d = %q", i, body)
		}
	}
	if status, body := postChat(eng, net, r.Endpoint(), "code"); status != 200 || body != "backup" {
		t.Fatalf("retry after crash: %d %q, want 200 from the second replica", status, body)
	}
	if st := r.Gateway("code").Stats(); st.Retries != 1 {
		t.Fatalf("code gateway retries = %d, want 1", st.Retries)
	}
}

func TestRouterHealthAndStatus(t *testing.T) {
	a := &replica{name: "a0", up: true}
	eng, net := newNet(t)
	r := newRouter(t, eng, net, map[string][]*replica{"chat": {a}})
	r.PoolStatus = func() any { return map[string]int{"capacity_nodes": 4} }

	if status, body := get(eng, net, "user", r.Endpoint()+"/health"); status != 200 || body != "ok" {
		t.Fatalf("health = %d %q", status, body)
	}
	_, body := get(eng, net, "user", r.Endpoint()+"/router/status")
	for _, want := range []string{`"model":"chat"`, `"healthy_backends":1`, `"serviceable":true`, `"capacity_nodes":4`} {
		if !strings.Contains(body, want) {
			t.Fatalf("status missing %q:\n%s", want, body)
		}
	}

	// Unknown endpoints 404 with guidance rather than picking a model.
	if status, body := get(eng, net, "user", r.Endpoint()+"/metrics"); status != 404 || !strings.Contains(body, "unknown endpoint") {
		t.Fatalf("unknown endpoint = %d %q", status, body)
	}

	// All replicas down: no model serviceable.
	a.up = false
	eng.RunFor(30 * time.Second)
	if status, _ := get(eng, net, "user", r.Endpoint()+"/health"); status != 503 {
		t.Fatalf("health with dead fleet = %d, want 503", status)
	}
	// Cold-start holding flips the verdict: requests would queue.
	r.Gateway("chat").HoldColdStart = true
	if status, _ := get(eng, net, "user", r.Endpoint()+"/health"); status != 200 {
		t.Fatalf("health with holding gateway = %d, want 200", status)
	}

	r.Stop()
	if status, _ := get(eng, net, "user", r.Endpoint()+"/health"); status != -1 {
		t.Fatal("stopped router still listening")
	}
}

func TestRouterAddModelWhileServing(t *testing.T) {
	a := &replica{name: "a0", up: true}
	eng, net := newNet(t)
	r := newRouter(t, eng, net, map[string][]*replica{"chat": {a}})

	b := &replica{name: "b0", up: true}
	net.Listen("late-node", 9100, b, vhttp.ListenOptions{Up: func() bool { return b.up }})
	gw := &Gateway{Net: net, Host: "router", Model: "code", Unbound: true}
	gw.AddBackend("b0", "late-node", 9100)
	if err := gw.Start(eng); err != nil {
		t.Fatal(err)
	}
	if status, _ := postChat(eng, net, r.Endpoint(), "code"); status != 404 {
		t.Fatalf("pre-registration status = %d, want 404", status)
	}
	if err := r.AddModel("code", gw); err != nil {
		t.Fatal(err)
	}
	if status, body := postChat(eng, net, r.Endpoint(), "code"); status != 200 || body != "b0" {
		t.Fatalf("post-registration = %d %q", status, body)
	}
}
