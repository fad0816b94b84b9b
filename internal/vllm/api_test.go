package vllm

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/vhttp"
)

func apiFixture(t *testing.T) (*sim.Engine, *vhttp.Net, *APIServer) {
	t.Helper()
	se := sim.NewEngine(1)
	net := vhttp.NewNet(netsim.New(se))
	e, err := New(se, Config{Model: llm.Scout, GPU: hw.H100SXM, TensorParallel: 4, MaxModelLen: 65536})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	api := &APIServer{Engine: e, ServedName: llm.Scout.Name}
	if err := net.Listen("hops15", 8000, api, vhttp.ListenOptions{}); err != nil {
		t.Fatal(err)
	}
	return se, net, api
}

func post(se *sim.Engine, net *vhttp.Net, path string, body any) (*vhttp.Response, error) {
	var resp *vhttp.Response
	var err error
	data, _ := json.Marshal(body)
	se.Go("client", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net}
		resp, err = c.Do(p, &vhttp.Request{
			Method: "POST", URL: "http://hops15:8000" + path,
			Header: map[string]string{"Content-Type": "application/json"},
			Body:   data,
		})
	})
	se.Run()
	return resp, err
}

func TestChatCompletion(t *testing.T) {
	se, net, _ := apiFixture(t)
	resp, err := post(se, net, "/v1/chat/completions", ChatRequest{
		Model: llm.Scout.Name,
		Messages: []ChatMessage{
			{Role: "system", Content: "You are a helpful assistant."},
			{Role: "user", Content: "How long to get from Earth to Mars?"},
		},
		MaxTokens: 100,
	})
	if err != nil || resp.Status != 200 {
		t.Fatalf("%v %d %s", err, resp.Status, resp.Body)
	}
	var cr ChatResponse
	if err := json.Unmarshal(resp.Body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Usage.CompletionTokens != 100 || cr.Choices[0].FinishReason != "stop" {
		t.Fatalf("response = %+v", cr)
	}
	if cr.Usage.PromptTokens < 10 {
		t.Fatalf("prompt tokens = %d", cr.Usage.PromptTokens)
	}
	if !strings.HasPrefix(cr.ID, "chatcmpl-") || cr.Model != llm.Scout.Name {
		t.Fatalf("envelope = %+v", cr)
	}
	if resp.Header["X-Request-Ttft-Micros"] == "" {
		t.Fatal("TTFT header missing")
	}
}

func TestCompletionsEndpoint(t *testing.T) {
	se, net, _ := apiFixture(t)
	resp, err := post(se, net, "/v1/completions", map[string]any{
		"prompt": "Once upon a time", "max_tokens": 32,
	})
	if err != nil || resp.Status != 200 {
		t.Fatalf("%v %d", err, resp.Status)
	}
	var out map[string]any
	json.Unmarshal(resp.Body, &out)
	if out["object"] != "text_completion" {
		t.Fatalf("out = %v", out)
	}
}

func TestWrongModelRejected(t *testing.T) {
	se, net, _ := apiFixture(t)
	resp, _ := post(se, net, "/v1/chat/completions", ChatRequest{
		Model:    "gpt-4",
		Messages: []ChatMessage{{Role: "user", Content: "hi"}},
	})
	if resp.Status != 404 {
		t.Fatalf("status = %d, want 404", resp.Status)
	}
	var er ErrorResponse
	json.Unmarshal(resp.Body, &er)
	if !strings.Contains(er.Error.Message, "gpt-4") {
		t.Fatalf("error = %+v", er)
	}
}

func TestAPIKeyEnforcement(t *testing.T) {
	se, net, api := apiFixture(t)
	api.APIKey = "secret-api-key"
	// Without the bearer token → 401.
	resp, _ := post(se, net, "/v1/chat/completions", ChatRequest{
		Messages: []ChatMessage{{Role: "user", Content: "hi"}},
	})
	if resp.Status != 401 {
		t.Fatalf("status = %d, want 401", resp.Status)
	}
	// With it → 200.
	var ok *vhttp.Response
	se.Go("client", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net}
		body, _ := json.Marshal(ChatRequest{Messages: []ChatMessage{{Role: "user", Content: "hi"}}, MaxTokens: 4})
		ok, _ = c.Do(p, &vhttp.Request{
			Method: "POST", URL: "http://hops15:8000/v1/chat/completions",
			Header: map[string]string{"Authorization": "Bearer secret-api-key"},
			Body:   body,
		})
	})
	se.Run()
	if ok.Status != 200 {
		t.Fatalf("authorized status = %d", ok.Status)
	}
}

func TestModelsAndHealthAndMetrics(t *testing.T) {
	se, net, api := apiFixture(t)
	var models, health, metrics *vhttp.Response
	se.Go("client", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net}
		models, _ = c.Get(p, "http://hops15:8000/v1/models")
		health, _ = c.Get(p, "http://hops15:8000/health")
		metrics, _ = c.Get(p, "http://hops15:8000/metrics")
	})
	se.Run()
	if models.Status != 200 || !strings.Contains(string(models.Body), llm.Scout.Name) {
		t.Fatalf("models = %d %s", models.Status, models.Body)
	}
	if health.Status != 200 {
		t.Fatalf("health = %d", health.Status)
	}
	if !strings.Contains(string(metrics.Body), "vllm:num_requests_running") {
		t.Fatalf("metrics = %s", metrics.Body)
	}
	// After a crash the health endpoint reports unhealthy.
	api.Engine.Crash(errTest)
	se.Go("client2", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net}
		health, _ = c.Get(p, "http://hops15:8000/health")
	})
	se.Run()
	if health.Status != 500 || !strings.Contains(string(health.Body), "boom") {
		t.Fatalf("post-crash health = %d %s", health.Status, health.Body)
	}
}

var errTest = errBoom{}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

func TestBadRequestBodies(t *testing.T) {
	se, net, _ := apiFixture(t)
	var resp *vhttp.Response
	se.Go("client", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net}
		resp, _ = c.Do(p, &vhttp.Request{
			Method: "POST", URL: "http://hops15:8000/v1/chat/completions",
			Body: []byte("{not json"),
		})
	})
	se.Run()
	if resp.Status != 400 {
		t.Fatalf("status = %d", resp.Status)
	}
	// Unknown endpoint → 404.
	se.Go("client2", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net}
		resp, _ = c.Get(p, "http://hops15:8000/v2/everything")
	})
	se.Run()
	if resp.Status != 404 {
		t.Fatalf("unknown endpoint status = %d", resp.Status)
	}
}

func TestConcurrentAPIClients(t *testing.T) {
	se, net, api := apiFixture(t)
	const n = 32
	done := 0
	var firstAt, lastAt time.Time
	for i := 0; i < n; i++ {
		se.Go("client", func(p *sim.Proc) {
			c := &vhttp.Client{Net: net}
			body, _ := json.Marshal(ChatRequest{
				Messages: []ChatMessage{{Role: "user", Content: SynthesizeText(200)}}, MaxTokens: 50,
			})
			resp, err := c.Do(p, &vhttp.Request{Method: "POST", URL: "http://hops15:8000/v1/chat/completions", Body: body})
			if err != nil || resp.Status != 200 {
				t.Errorf("request failed: %v %d", err, resp.Status)
				return
			}
			done++
			if firstAt.IsZero() {
				firstAt = p.Now()
			}
			lastAt = p.Now()
		})
	}
	se.Run()
	if done != n {
		t.Fatalf("done = %d", done)
	}
	// Continuous batching: the whole batch finishes close together rather
	// than serially (32 × ~0.5s each would be ~16s).
	if spread := lastAt.Sub(firstAt); spread > 2*time.Second {
		t.Fatalf("completion spread = %v; batching not effective", spread)
	}
	if api.Engine.Stats().PeakRunning < 16 {
		t.Fatalf("peak running = %d", api.Engine.Stats().PeakRunning)
	}
}

func TestEstimateAndSynthesize(t *testing.T) {
	if EstimateTokens("") != 1 {
		t.Fatal("empty text should estimate 1 token")
	}
	text := SynthesizeText(100)
	got := EstimateTokens(text)
	if got < 95 || got > 105 {
		t.Fatalf("round trip estimate = %d, want ~100", got)
	}
}

// TestEngineReadsClassNamesAsTheGateway: the engine reads a priority class
// name by the scheduling layer's rule, so a name it does not know — an
// X-Priority header "Batch", a body priority "vip" — is batch at the engine
// as at the gateway: counted as batch, and a victim the deadline rescue
// evicts for at-risk interactive work, not interactive work itself.
func TestEngineReadsClassNamesAsTheGateway(t *testing.T) {
	cfg := hopsScoutConfig()
	cfg.MaxNumSeqs = 2
	se, e := newEngine(t, cfg)
	net := vhttp.NewNet(netsim.New(se))
	if err := net.Listen("hops15", 8000, &APIServer{Engine: e, ServedName: llm.Scout.Name}, vhttp.ListenOptions{}); err != nil {
		t.Fatal(err)
	}
	send := func(header map[string]string, body string) {
		se.Go("client", func(p *sim.Proc) {
			resp, err := (&vhttp.Client{Net: net}).Do(p, &vhttp.Request{
				Method: "POST", URL: "http://hops15:8000/v1/chat/completions", Header: header, Body: []byte(body),
			})
			if err != nil {
				t.Error(err)
			} else if resp.Status != 200 {
				t.Errorf("%s: status %d", body, resp.Status)
			}
		})
	}
	const report = `{"messages":[{"role":"user","content":"write the quarterly report"}],"max_tokens":400`
	send(map[string]string{sched.PriorityHeader: "Batch"}, report+`}`)
	send(nil, report+`,"priority":"vip"}`)
	var classes map[string]int
	se.Go("probe", func(p *sim.Proc) {
		p.Sleep(500 * time.Millisecond)
		classes = e.Telemetry().RunningByClass
		// Two at-risk interactive requests against a full running batch:
		// each rescue evicts one batch victim.
		urgent := map[string]string{sched.PriorityHeader: "interactive", sched.TTFTTargetHeader: "1000"}
		send(urgent, `{"messages":[{"role":"user","content":"hi"}],"max_tokens":4}`)
		send(urgent, `{"messages":[{"role":"user","content":"hello"}],"max_tokens":4}`)
	})
	se.Run()
	if classes["batch"] != 2 || len(classes) != 1 {
		t.Errorf("RunningByClass = %v, want batch:2 alone", classes)
	}
	if st := e.Stats(); st.Preemptions != 2 || st.PeakSeqPreempts != 1 {
		t.Errorf("%d preemptions, a sequence preempted at most %d times; want both batch requests evicted once",
			st.Preemptions, st.PeakSeqPreempts)
	}
}
