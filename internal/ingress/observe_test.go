package ingress

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vhttp"
)

// newObserveFleet assembles a router fronting one unbound gateway per
// model, each with an arbitrary mix of fake backend shapes behind it.
func newObserveFleet(t *testing.T, models map[string][]namedBackend) (*sim.Engine, *vhttp.Net, *Router) {
	t.Helper()
	eng, net := newNet(t)
	r := &Router{Net: net, Host: "rtr", Port: 8000}
	if err := r.Start(eng); err != nil {
		t.Fatal(err)
	}
	port := 9000
	for _, model := range sortedBackendKeys(models) {
		gw := &Gateway{Net: net, Host: "rtr", Port: 0, Model: model, Unbound: true, HealthInterval: 10 * time.Second}
		for i, b := range models[model] {
			host := fmt.Sprintf("%s-onode%d", model, i)
			if err := net.Listen(host, port, b.svc, vhttp.ListenOptions{}); err != nil {
				t.Fatal(err)
			}
			gw.AddBackend(b.name, host, port)
		}
		if err := gw.Start(eng); err != nil {
			t.Fatal(err)
		}
		if err := r.AddModel(model, gw); err != nil {
			t.Fatal(err)
		}
	}
	return eng, net, r
}

func sortedBackendKeys(m map[string][]namedBackend) []string {
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

// drainModel streams one inference request for a model through the router
// and drains the body, returning the terminal stream error.
func drainModel(eng *sim.Engine, net *vhttp.Net, url, model string) (status int, chunks int, streamErr error) {
	eng.Go("observe-client", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net, From: "user"}
		body := []byte(fmt.Sprintf(`{"model":%q,"stream":true}`, model))
		resp, err := c.Do(p, &vhttp.Request{Method: "POST", URL: url + "/v1/chat/completions", Body: body})
		if err != nil {
			status = -1
			return
		}
		status = resp.Status
		if resp.Stream == nil {
			return
		}
		for {
			if _, ok := resp.Stream.Next(p); !ok {
				break
			}
			chunks++
		}
		streamErr = resp.Stream.Err()
	})
	eng.RunFor(time.Minute)
	return status, chunks, streamErr
}

// fetchFleet GETs /observe from the router and decodes the snapshot.
func fetchFleet(t *testing.T, eng *sim.Engine, net *vhttp.Net, url string) telemetry.FleetSnapshot {
	t.Helper()
	var f telemetry.FleetSnapshot
	eng.Go("observe-fetch", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net, From: "user"}
		resp, err := c.Get(p, url+telemetry.ObservePath)
		if err != nil || resp.Status != 200 {
			t.Errorf("GET /observe: status=%v err=%v", resp, err)
			return
		}
		f, err = telemetry.DecodeFleet(resp.Body)
		if err != nil {
			t.Error(err)
		}
	})
	eng.RunFor(time.Second)
	return f
}

// TestObserveCountsTruncationAndRetries: a replica killed mid-stream and a
// replica that dies before its first byte must both be visible — as the
// stream-truncation and retry counters of their models — in the merged
// FleetSnapshot served on the router's /observe endpoint.
func TestObserveCountsTruncationAndRetries(t *testing.T) {
	// chat: round-robin picks "bad" first; it dies after 3 chunks with the
	// first byte already out, so the stream truncates with no failover.
	bad := &streamReplica{name: "bad", tokens: 100, gap: 50 * time.Millisecond, failAfter: 3}
	goodChat := &streamReplica{name: "good-chat", tokens: 4, gap: 10 * time.Millisecond}
	// code: "dead" 500s before the first byte, so the gateway retries onto
	// the healthy streamer and the client sees a clean stream.
	dead := &replica{name: "dead", up: true, failNext: true}
	goodCode := &streamReplica{name: "good-code", tokens: 4, gap: 10 * time.Millisecond}
	eng, net, r := newObserveFleet(t, map[string][]namedBackend{
		"chat": {{"bad", bad}, {"good-chat", goodChat}},
		"code": {{"dead", dead}, {"good-code", goodCode}},
	})

	if status, chunks, streamErr := drainModel(eng, net, r.Endpoint(), "chat"); status != 200 || streamErr == nil {
		t.Fatalf("chat: status=%d chunks=%d err=%v, want a truncated 200 stream", status, chunks, streamErr)
	}
	if status, chunks, streamErr := drainModel(eng, net, r.Endpoint(), "code"); status != 200 || chunks != 4 || streamErr != nil {
		t.Fatalf("code: status=%d chunks=%d err=%v, want a clean retried stream", status, chunks, streamErr)
	}

	f := fetchFleet(t, eng, net, r.Endpoint())
	if f.CapturedAt.IsZero() {
		t.Fatal("fleet snapshot missing capture time")
	}
	if f.Router == nil || f.Router.Requests != 2 || f.Router.Unknown != 0 {
		t.Fatalf("router counters = %+v", f.Router)
	}
	chat := f.Model("chat")
	if chat == nil {
		t.Fatal("no chat observation in fleet snapshot")
	}
	if chat.Counters.Streams != 1 || chat.Counters.StreamsTruncated != 1 || chat.Counters.Retries != 0 {
		t.Fatalf("chat counters = %+v, want one truncated stream and no retries", chat.Counters)
	}
	code := f.Model("code")
	if code == nil {
		t.Fatal("no code observation in fleet snapshot")
	}
	if code.Counters.Retries != 1 || code.Counters.Streams != 1 || code.Counters.StreamsTruncated != 0 {
		t.Fatalf("code counters = %+v, want one retry and a clean stream", code.Counters)
	}
	// The mid-stream death is charged to the replica that died, and the
	// per-replica rows carry the health the gateway routes on.
	for _, rep := range chat.Replicas {
		if rep.Name == "bad" && rep.Failures != 1 {
			t.Fatalf("bad replica failures = %d, want 1", rep.Failures)
		}
		if !rep.Healthy {
			t.Fatalf("replica %s unhealthy in snapshot", rep.Name)
		}
	}
	if len(chat.Replicas) != 2 || len(code.Replicas) != 2 {
		t.Fatalf("replica rows: chat=%d code=%d, want 2 each", len(chat.Replicas), len(code.Replicas))
	}
	// Latency quantiles come from the gateway histogram: both models
	// settled requests, so p95 must be populated and positive.
	if chat.LatencyMillis["p95"] <= 0 {
		t.Fatalf("chat latency = %v, want positive p95", chat.LatencyMillis)
	}
}

// TestObserveSnapshotStaleness: the per-replica rows in /observe and
// /gateway/status expose how stale each engine snapshot is. The fake
// replicas serve snapshots without capture timestamps, which must read as
// -1 (never scraped), not as fresh.
func TestObserveSnapshotStaleness(t *testing.T) {
	good := &streamReplica{name: "g", tokens: 2, gap: 10 * time.Millisecond}
	eng, net, r := newObserveFleet(t, map[string][]namedBackend{"chat": {{"g", good}}})
	// Let the health loop scrape at least once.
	eng.RunFor(30 * time.Second)
	f := fetchFleet(t, eng, net, r.Endpoint())
	chat := f.Model("chat")
	if chat == nil || len(chat.Replicas) != 1 {
		t.Fatalf("fleet = %+v", f)
	}
	if got := chat.Replicas[0].SnapshotAgeMillis; got != -1 {
		t.Fatalf("snapshot age = %g, want -1 for a snapshot with no capture time", got)
	}
}

// serveTwice reads two paths from one service in a single proc, so both
// documents are rendered at the same virtual instant.
func serveTwice(eng *sim.Engine, svc vhttp.Service, a, b string) (ra, rb *vhttp.Response) {
	eng.Go("status-reader", func(p *sim.Proc) {
		ra = svc.Serve(p, &vhttp.Request{Method: "GET", Path: a})
		rb = svc.Serve(p, &vhttp.Request{Method: "GET", Path: b})
	})
	eng.RunFor(time.Second)
	return ra, rb
}

// TestStatusPathsServeTheObserveDocument: /gateway/status and
// /router/status are the operator-facing names of their endpoint's
// /observe document, so reads of both at one virtual instant are
// byte-identical — counters, shed map, SLO state, per-replica snapshots,
// autoscale and pool documents included.
func TestStatusPathsServeTheObserveDocument(t *testing.T) {
	t.Run("gateway", func(t *testing.T) {
		a := &replica{name: "a", up: true, waiting: 3, latency: 2 * time.Second}
		b := &replica{name: "b", up: true, latency: 2 * time.Second}
		eng, net, gw := newGateway(t, PolicyLeastLoaded, a, b)
		gw.SLOTargetP95 = time.Second
		gw.AutoscaleStatus = func() any { return map[string]int{"target": 2} }
		for i := 0; i < 4; i++ {
			if i == 2 {
				// Two 2 s answers breach the 1 s objective: the rest,
				// batch class, are SLO-shed.
				gw.DefaultClass = sched.ClassBatch
				eng.RunFor(10 * time.Second)
			}
			get(eng, net, "user", "http://gw:8000/v1/chat/completions")
		}
		status, observe := serveTwice(eng, gw, "/gateway/status", telemetry.ObservePath)
		if status.Status != 200 || observe.Status != 200 {
			t.Fatalf("status %d, observe %d, want 200 from both", status.Status, observe.Status)
		}
		if !bytes.Equal(status.Body, observe.Body) {
			t.Fatalf("/gateway/status differs from /observe:\n%s\n%s", status.Body, observe.Body)
		}
		f, err := telemetry.DecodeFleet(status.Body)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Models) != 1 {
			t.Fatalf("status document = %s", status.Body)
		}
		m := f.Models[0]
		if m.Counters.Requests != 4 || m.Counters.ShedByClass["batch"] != 2 || m.SLO == nil ||
			m.LatencyMillis["p95"] <= 0 || len(m.Replicas) != 2 || m.Replicas[0].Snapshot.Waiting != 3 {
			t.Fatalf("status document = %s", status.Body)
		}
	})
	t.Run("router", func(t *testing.T) {
		eng, net := newNet(t)
		r := newRouter(t, eng, net, map[string][]*replica{
			"chat": {{name: "c0", up: true}, {name: "c1", up: true}},
			"code": {{name: "k0", up: true}},
		})
		r.PoolStatus = func() any { return map[string]int{"capacity_nodes": 4} }
		eng.Go("client", func(p *sim.Proc) {
			c := &vhttp.Client{Net: net, From: "user"}
			for _, body := range []string{`{"model":"chat"}`, `{"model":"code"}`, `{"model":"nope"}`} {
				c.Do(p, &vhttp.Request{Method: "POST", URL: r.Endpoint() + "/v1/chat/completions", Body: []byte(body)})
			}
		})
		eng.RunFor(time.Second)
		status, observe := serveTwice(eng, r, "/router/status", telemetry.ObservePath)
		if status.Status != 200 || observe.Status != 200 {
			t.Fatalf("status %d, observe %d, want 200 from both", status.Status, observe.Status)
		}
		if !bytes.Equal(status.Body, observe.Body) {
			t.Fatalf("/router/status differs from /observe:\n%s\n%s", status.Body, observe.Body)
		}
		f, err := telemetry.DecodeFleet(status.Body)
		if err != nil {
			t.Fatal(err)
		}
		if f.Router == nil || f.Router.Requests != 2 || f.Router.Unknown != 1 || len(f.Models) != 2 || len(f.Pool) == 0 {
			t.Fatalf("status document = %s", status.Body)
		}
	})
}
