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

// streamReplica is a fake backend that answers inference requests with a
// chunked SSE body: `tokens` chunks at `gap` intervals, optionally failing
// the stream after `failAfter` chunks (a replica dying mid-generation).
type streamReplica struct {
	name      string
	tokens    int
	gap       time.Duration
	failAfter int // 0 = clean close
	hits      int
}

func (r *streamReplica) Serve(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
	switch req.Path {
	case "/health":
		return vhttp.Text(200, "ok")
	case telemetry.Path:
		return vhttp.JSON(200, telemetry.Snapshot{}.Encode())
	}
	r.hits++
	s := &vhttp.BodyStream{}
	// First token exists before the headers return (the APIServer waits for
	// it); the rest arrive on the producer's timeline.
	s.Push(vhttp.Chunk{Data: []byte("data: t0\n\n")})
	p.Engine().Go(r.name+"-decode", func(pp *sim.Proc) {
		for i := 1; i < r.tokens; i++ {
			pp.Sleep(r.gap)
			if r.failAfter > 0 && i >= r.failAfter {
				s.Fail(fmt.Errorf("replica %s died mid-stream", r.name))
				return
			}
			s.Push(vhttp.Chunk{Data: []byte(fmt.Sprintf("data: t%d\n\n", i))})
		}
		s.Close()
	})
	resp := &vhttp.Response{Status: 200, Stream: s}
	resp.SetHeader("Content-Type", "text/event-stream")
	return resp
}

// namedBackend pairs a backend name with any service implementation, so
// stream fixtures can mix fake shapes behind one gateway.
type namedBackend struct {
	name string
	svc  vhttp.Service
}

func newStreamGateway(t *testing.T, policy Policy, backends ...namedBackend) (*sim.Engine, *vhttp.Net, *Gateway) {
	t.Helper()
	eng, net := newNet(t)
	gw := &Gateway{Net: net, Host: "gw", Port: 8000, Policy: policy, HealthInterval: 10 * time.Second}
	for i, b := range backends {
		host := fmt.Sprintf("snode%d", i)
		if err := net.Listen(host, 8000, b.svc, vhttp.ListenOptions{}); err != nil {
			t.Fatal(err)
		}
		gw.AddBackend(b.name, host, 8000)
	}
	if err := gw.Start(eng); err != nil {
		t.Fatal(err)
	}
	return eng, net, gw
}

// drainThrough issues one request through the gateway and drains the
// streamed body, returning the chunk payloads and the terminal error.
func drainThrough(eng *sim.Engine, net *vhttp.Net, url string) (status int, chunks []string, streamErr error) {
	eng.Go("stream-client", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net}
		resp, err := c.Do(p, &vhttp.Request{Method: "POST", URL: url, Body: []byte(`{"stream":true}`)})
		if err != nil {
			status = -1
			return
		}
		status = resp.Status
		if resp.Stream == nil {
			return
		}
		for {
			ch, ok := resp.Stream.Next(p)
			if !ok {
				break
			}
			chunks = append(chunks, strings.TrimSpace(string(ch.Data)))
		}
		streamErr = resp.Stream.Err()
	})
	// RunFor, not Run: the gateway's probe loop keeps the event queue
	// non-empty forever.
	eng.RunFor(time.Minute)
	return status, chunks, streamErr
}

// TestGatewayStreamPassThrough: chunks flow through the gateway unbuffered
// and in order; the in-flight slot is held until the body drains; stats
// count the stream as clean.
func TestGatewayStreamPassThrough(t *testing.T) {
	r := &streamReplica{name: "a", tokens: 5, gap: 100 * time.Millisecond}
	eng, net, gw := newStreamGateway(t, PolicyRoundRobin, namedBackend{"a", r})
	b := gw.Backends()[0]
	var chunks []string
	var inflightMid int
	var streamErr error
	var status int
	eng.Go("client", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net}
		resp, err := c.Do(p, &vhttp.Request{Method: "POST", URL: "http://gw:8000/v1/chat/completions"})
		if err != nil {
			t.Errorf("Do: %v", err)
			return
		}
		status = resp.Status
		if resp.Stream == nil {
			t.Error("response not streamed through the gateway")
			return
		}
		first := true
		for {
			ch, ok := resp.Stream.Next(p)
			if !ok {
				break
			}
			if first {
				// Mid-stream: the replica is still generating, so the
				// gateway must still count this request against it.
				inflightMid = b.inflight
				first = false
			}
			chunks = append(chunks, strings.TrimSpace(string(ch.Data)))
		}
		streamErr = resp.Stream.Err()
	})
	eng.RunFor(time.Minute)
	if status != 200 || streamErr != nil {
		t.Fatalf("status=%d err=%v", status, streamErr)
	}
	if len(chunks) != 5 || chunks[0] != "data: t0" || chunks[4] != "data: t4" {
		t.Fatalf("chunks = %v", chunks)
	}
	if inflightMid != 1 {
		t.Fatalf("inflight mid-stream = %d, want 1", inflightMid)
	}
	if b.inflight != 0 {
		t.Fatalf("inflight after drain = %d, want 0", b.inflight)
	}
	st := gw.Stats()
	if st.Streams != 1 || st.StreamsTruncated != 0 || st.Retries != 0 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestGatewayNoFailoverAfterFirstByte: once the first byte is out, a
// replica death truncates the stream — the gateway neither retries on the
// healthy replica nor masks the failure with a silent 200.
func TestGatewayNoFailoverAfterFirstByte(t *testing.T) {
	bad := &streamReplica{name: "bad", tokens: 100, gap: 50 * time.Millisecond, failAfter: 3}
	good := &streamReplica{name: "good", tokens: 100, gap: 50 * time.Millisecond}
	eng, net, gw := newStreamGateway(t, PolicyRoundRobin, namedBackend{"bad", bad}, namedBackend{"good", good})
	status, chunks, streamErr := drainThrough(eng, net, "http://gw:8000/v1/chat/completions")
	if status != 200 {
		t.Fatalf("status = %d (headers preceded the failure)", status)
	}
	if streamErr == nil {
		t.Fatal("truncation must surface on the stream's Err")
	}
	if len(chunks) != 3 {
		t.Fatalf("chunks = %v, want the 3 pre-crash tokens", chunks)
	}
	st := gw.Stats()
	if st.Retries != 0 {
		t.Fatalf("retries = %d: the gateway failed over after the first byte", st.Retries)
	}
	if st.Streams != 1 || st.StreamsTruncated != 1 {
		t.Fatalf("stats = %+v, want one truncated stream", st)
	}
	if good.hits != 0 {
		t.Fatalf("healthy replica saw %d requests, want 0 (no post-first-byte failover)", good.hits)
	}
	// The failure is still charged to the replica that died.
	for _, b := range gw.Backends() {
		if b.Name == "bad" && b.failures != 1 {
			t.Fatalf("bad replica failures = %d, want 1", b.failures)
		}
	}
}

// TestGatewayRetriesStreamFailureBeforeFirstByte: a replica that dies
// before producing its first token surfaces a buffered 500 — that path
// still fails over to the healthy replica exactly once.
func TestGatewayRetriesStreamFailureBeforeFirstByte(t *testing.T) {
	// The pre-first-byte failure shape: a buffered 500, as the APIServer
	// returns when the engine dies before the first token.
	dead := &replica{name: "dead", up: true, failNext: true}
	good := &streamReplica{name: "good", tokens: 4, gap: 10 * time.Millisecond}
	eng, net, gw := newStreamGateway(t, PolicyRoundRobin, namedBackend{"dead", dead}, namedBackend{"good", good})
	status, chunks, streamErr := drainThrough(eng, net, "http://gw:8000/v1/chat/completions")
	if status != 200 || streamErr != nil {
		t.Fatalf("status=%d err=%v, want a clean stream from the retry", status, streamErr)
	}
	if len(chunks) != 4 {
		t.Fatalf("chunks = %v, want 4 from the healthy replica", chunks)
	}
	st := gw.Stats()
	if st.Retries != 1 || st.Streams != 1 || st.StreamsTruncated != 0 {
		t.Fatalf("stats = %+v, want one retry and one clean stream", st)
	}
}
