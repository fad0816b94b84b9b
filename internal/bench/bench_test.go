package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/sharegpt"
	"repro/internal/sim"
	"repro/internal/vhttp"
	"repro/internal/vllm"
)

func hopsEngine(t *testing.T, se *sim.Engine) *vllm.Engine {
	t.Helper()
	e, err := vllm.New(se, vllm.Config{
		Model: llm.Scout, GPU: hw.H100SXM, TensorParallel: 4, MaxModelLen: 65536,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	return e
}

func TestRunBatchOneMatchesPaperAnchor(t *testing.T) {
	se := sim.NewEngine(1)
	e := hopsEngine(t, se)
	ds := sharegpt.Synthesize(7, 4000)
	var res *Result
	se.Go("bench", func(p *sim.Proc) {
		res = Run(p, &EngineTarget{Engine: e}, Config{
			Name: "hops-c1", Dataset: ds, NumPrompts: 200, MaxConcurrency: 1, Seed: 42,
		})
	})
	se.Run()
	if res.Failed != 0 || res.Completed != 200 {
		t.Fatalf("completed=%d failed=%d", res.Completed, res.Failed)
	}
	// Fig 9 anchor: single-query generation rate ≈ 103 tok/s (±10%).
	if res.OutputThroughput < 92 || res.OutputThroughput > 114 {
		t.Fatalf("batch-1 throughput = %.1f tok/s, want ~103", res.OutputThroughput)
	}
	if res.TTFT.N() == 0 || res.TTFT.Mean() <= 0 {
		t.Fatal("no TTFT samples")
	}
	if res.TPOT.Mean() < 8 || res.TPOT.Mean() > 11 {
		t.Fatalf("TPOT = %.2f ms, want ~9.7", res.TPOT.Mean())
	}
}

func TestRunBatch1024Saturates(t *testing.T) {
	se := sim.NewEngine(1)
	e := hopsEngine(t, se)
	ds := sharegpt.Synthesize(7, 4000)
	var res *Result
	se.Go("bench", func(p *sim.Proc) {
		res = Run(p, &EngineTarget{Engine: e}, Config{
			Name: "hops-c1024", Dataset: ds, NumPrompts: 1000, MaxConcurrency: 1024, Seed: 42,
		})
	})
	se.Run()
	if res.Failed != 0 {
		t.Fatalf("failed = %d", res.Failed)
	}
	// Fig 9 anchor: max throughput ≈ 4313 tok/s (±12%: ramp effects).
	if res.OutputThroughput < 3800 || res.OutputThroughput > 4800 {
		t.Fatalf("batch-1024 throughput = %.0f tok/s, want ~4313", res.OutputThroughput)
	}
	// §3.4.1: 1000 queries at max concurrency ≈ 1 minute.
	if res.Duration < 30*time.Second || res.Duration > 2*time.Minute {
		t.Fatalf("duration = %v, want ≈1 min", res.Duration)
	}
}

func TestBatchOneDurationIsHalfHour(t *testing.T) {
	// §3.4.1: batch 1, 1000 queries ≈ 30 minutes on Hops.
	se := sim.NewEngine(1)
	e := hopsEngine(t, se)
	ds := sharegpt.Synthesize(7, 4000)
	var res *Result
	se.Go("bench", func(p *sim.Proc) {
		res = Run(p, &EngineTarget{Engine: e}, Config{
			Name: "hops-c1-full", Dataset: ds, NumPrompts: 1000, MaxConcurrency: 1, Seed: 9,
		})
	})
	se.Run()
	if res.Duration < 24*time.Minute || res.Duration > 40*time.Minute {
		t.Fatalf("batch-1 1000-query duration = %v, want ~30 min", res.Duration)
	}
}

func TestHTTPTargetEquivalence(t *testing.T) {
	se := sim.NewEngine(1)
	e := hopsEngine(t, se)
	net := vhttp.NewNet(netsim.New(se))
	api := &vllm.APIServer{Engine: e}
	if err := net.Listen("hops15", 8000, api, vhttp.ListenOptions{}); err != nil {
		t.Fatal(err)
	}
	ds := sharegpt.Synthesize(7, 2000)
	var res *Result
	se.Go("bench", func(p *sim.Proc) {
		res = Run(p, &HTTPTarget{
			Client:  &vhttp.Client{Net: net, From: "bench-node"},
			BaseURL: "http://hops15:8000",
		}, Config{Name: "http-c8", Dataset: ds, NumPrompts: 100, MaxConcurrency: 8, Seed: 1})
	})
	se.Run()
	if res.Failed != 0 || res.Completed != 100 {
		t.Fatalf("completed=%d failed=%d (%s)", res.Completed, res.Failed, res.CrashMsg)
	}
	if res.OutputThroughput < 400 {
		t.Fatalf("HTTP batch-8 throughput = %.0f tok/s, unreasonably low", res.OutputThroughput)
	}
	if res.TTFT.N() == 0 {
		t.Fatal("TTFT header not propagated through HTTP target")
	}
}

func TestShortPromptRunHasZeroPrefixHits(t *testing.T) {
	// Regression: prompts near the 4-token clamp synthesize less content
	// than the descriptive uniquifier tag, which used to silently no-op —
	// every short prompt was byte-identical and the engine's prefix cache
	// served them, inflating measured throughput. BlockSize 4 so even a
	// ~5-token prompt fills a whole cacheable block (at the default 16 the
	// bug is masked: no block ever fills, and zero hits is trivially true).
	se := sim.NewEngine(1)
	e, err := vllm.New(se, vllm.Config{
		Model: llm.Scout, GPU: hw.H100SXM, TensorParallel: 4, MaxModelLen: 65536,
		BlockSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	net := vhttp.NewNet(netsim.New(se))
	if err := net.Listen("hops15", 8000, &vllm.APIServer{Engine: e}, vhttp.ListenOptions{}); err != nil {
		t.Fatal(err)
	}
	ds := &sharegpt.Dataset{Name: "short", Entries: []sharegpt.Entry{{PromptTokens: 4, OutputTokens: 8}}}
	var res *Result
	se.Go("bench", func(p *sim.Proc) {
		res = Run(p, &HTTPTarget{
			Client:  &vhttp.Client{Net: net, From: "bench-node"},
			BaseURL: "http://hops15:8000",
		}, Config{Name: "short-c4", Dataset: ds, NumPrompts: 50, MaxConcurrency: 4, Seed: 11})
	})
	se.Run()
	if res.Failed != 0 || res.Completed != 50 {
		t.Fatalf("completed=%d failed=%d (%s)", res.Completed, res.Failed, res.CrashMsg)
	}
	st := e.Stats()
	if st.PrefixHits != 0 {
		t.Fatalf("prefix cache hits = %d during a uniquified benchmark run, want 0 (misses=%d)",
			st.PrefixHits, st.PrefixMisses)
	}
	if st.PrefixMisses == 0 {
		t.Fatal("no prefix-cache lookups at all — block size too large for the prompt, test is vacuous")
	}
}

func TestHTTPTargetMalformedTTFTHeaderIsUnknown(t *testing.T) {
	// A garbage X-Request-Ttft-Micros header must record TTFT as unknown
	// (0), not whatever a partial Sscanf left behind.
	se := sim.NewEngine(1)
	net := vhttp.NewNet(netsim.New(se))
	h := vhttp.ServiceFunc(func(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
		body, _ := json.Marshal(vllm.ChatResponse{
			Usage: vllm.Usage{CompletionTokens: 3},
		})
		return &vhttp.Response{
			Status: 200,
			Header: map[string]string{"X-Request-Ttft-Micros": "12garbage"},
			Body:   body,
		}
	})
	if err := net.Listen("fake", 8000, h, vhttp.ListenOptions{}); err != nil {
		t.Fatal(err)
	}
	tgt := &HTTPTarget{Client: &vhttp.Client{Net: net, From: "bench-node"}, BaseURL: "http://fake:8000"}
	var out Outcome
	se.Go("one", func(p *sim.Proc) {
		var err error
		out, err = tgt.Do(p, 16, 8)
		if err != nil {
			t.Errorf("Do: %v", err)
		}
	})
	se.Run()
	if out.TTFT != 0 {
		t.Fatalf("TTFT from malformed header = %v, want 0 (unknown)", out.TTFT)
	}
	if out.Generated != 3 {
		t.Fatalf("generated = %d, want 3", out.Generated)
	}
}

func TestSweepShapeMonotoneSaturating(t *testing.T) {
	se := sim.NewEngine(1)
	e := hopsEngine(t, se)
	ds := sharegpt.Synthesize(7, 4000)
	var results []*Result
	se.Go("bench", func(p *sim.Proc) {
		results = Sweep(p, &EngineTarget{Engine: e}, Config{
			Name: "hops", Dataset: ds, NumPrompts: 400, Seed: 3,
		}, []int{1, 4, 16, 64})
	})
	se.Run()
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].OutputThroughput <= results[i-1].OutputThroughput {
			t.Fatalf("throughput not increasing: c=%d %.0f ≤ c=%d %.0f",
				results[i].Concurrency, results[i].OutputThroughput,
				results[i-1].Concurrency, results[i-1].OutputThroughput)
		}
	}
	// Diminishing returns: the 16→64 gain ratio is smaller than 1→4.
	gainLow := results[1].OutputThroughput / results[0].OutputThroughput
	gainHigh := results[3].OutputThroughput / results[2].OutputThroughput
	if gainHigh >= gainLow {
		t.Fatalf("no saturation: low gain %.2f, high gain %.2f", gainLow, gainHigh)
	}
}

func TestSweepStopsOnCrash(t *testing.T) {
	se := sim.NewEngine(1)
	e := hopsEngine(t, se)
	e.SetFaults(vllm.Faults{CrashAfterCompleted: 150})
	ds := sharegpt.Synthesize(7, 1000)
	var results []*Result
	se.Go("bench", func(p *sim.Proc) {
		results = Sweep(p, &EngineTarget{Engine: e}, Config{
			Name: "crashy", Dataset: ds, NumPrompts: 100, Seed: 3,
		}, []int{1, 2, 4, 8})
	})
	se.Run()
	last := results[len(results)-1]
	if !last.Crashed {
		t.Fatal("sweep should end with a crashed run")
	}
	if len(results) >= 4 {
		t.Fatalf("sweep should stop early, got %d points", len(results))
	}
	s := ToSeries("crashy", results)
	found := false
	for _, pt := range s.Points {
		if pt.Note == "crash" {
			found = true
		}
	}
	if !found {
		t.Fatal("crash annotation missing from series")
	}
	if !strings.Contains(last.String(), "RUN ABORTED") {
		t.Fatal("summary missing abort line")
	}
}

// flakyTarget fails every nth request, like a gateway shedding load or a
// replica dying under a request that then exhausts its retry.
type flakyTarget struct {
	inner Target
	n     int
	count int
}

func (f *flakyTarget) Do(p *sim.Proc, prompt, maxNew int) (Outcome, error) {
	f.count++
	if f.count%f.n == 0 {
		return Outcome{}, fmt.Errorf("http 503: p95 2s over SLO 1s; batch traffic shed")
	}
	return f.inner.Do(p, prompt, maxNew)
}

func TestRunContinueOnErrorCountsFailures(t *testing.T) {
	se := sim.NewEngine(1)
	e := hopsEngine(t, se)
	ds := sharegpt.Synthesize(7, 1000)
	var res *Result
	se.Go("bench", func(p *sim.Proc) {
		res = Run(p, &flakyTarget{inner: &EngineTarget{Engine: e}, n: 10}, Config{
			Name: "flaky", Dataset: ds, NumPrompts: 100, MaxConcurrency: 8, Seed: 3,
			ContinueOnError: true,
		})
	})
	se.Run()
	if res.Crashed {
		t.Fatalf("run aborted despite ContinueOnError: %s", res.CrashMsg)
	}
	if res.Failed != 10 || res.Completed != 90 {
		t.Fatalf("completed=%d failed=%d, want 90/10", res.Completed, res.Failed)
	}
	if res.OutputThroughput <= 0 {
		t.Fatal("no throughput measured")
	}
}

func TestWorkersCappedByPrompts(t *testing.T) {
	se := sim.NewEngine(1)
	e := hopsEngine(t, se)
	ds := sharegpt.Synthesize(7, 100)
	var res *Result
	se.Go("bench", func(p *sim.Proc) {
		res = Run(p, &EngineTarget{Engine: e}, Config{
			Name: "tiny", Dataset: ds, NumPrompts: 5, MaxConcurrency: 1024, Seed: 1,
		})
	})
	se.Run()
	if res.Completed != 5 {
		t.Fatalf("completed = %d, want 5", res.Completed)
	}
}
