package vllm

import (
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/llm"
	"repro/internal/sim"
)

func hopsScoutConfig() Config {
	return Config{
		Model: llm.Scout, GPU: hw.H100SXM,
		TensorParallel: 4, MaxModelLen: 65536,
	}
}

func newEngine(t *testing.T, cfg Config) (*sim.Engine, *Engine) {
	t.Helper()
	se := sim.NewEngine(1)
	e, err := New(se, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	return se, e
}

func TestPlanCapacityGates(t *testing.T) {
	// Scout with its native 10M context must fail without --max-model-len.
	cfg := hopsScoutConfig()
	cfg.MaxModelLen = 0 // native 10M
	if _, err := New(sim.NewEngine(1), cfg); err == nil {
		t.Fatal("10M-context Scout should fail KV planning on 4×80GiB")
	} else if !strings.Contains(err.Error(), "max seq len") {
		t.Fatalf("err = %v, want max-model-len guidance", err)
	}
	// With --max-model-len=65536 it plans fine (the paper's fix).
	if _, err := New(sim.NewEngine(1), hopsScoutConfig()); err != nil {
		t.Fatalf("65536 context should fit: %v", err)
	}
	// Scout on a single GPU OOMs on weights.
	cfg = hopsScoutConfig()
	cfg.TensorParallel = 1
	if _, err := New(sim.NewEngine(1), cfg); err == nil {
		t.Fatal("Scout on one 80GiB GPU should OOM")
	} else if !strings.Contains(err.Error(), "CUDA out of memory") {
		t.Fatalf("err = %v", err)
	}
	// Quantized Scout fits TP2 (Fig 10 configuration).
	q := Config{Model: llm.ScoutW4A16, GPU: hw.H100NVL, TensorParallel: 2, MaxModelLen: 65536}
	if _, err := New(sim.NewEngine(1), q); err != nil {
		t.Fatalf("quantized Scout TP2 should fit: %v", err)
	}
}

func TestSingleRequestLifecycle(t *testing.T) {
	se, e := newEngine(t, hopsScoutConfig())
	var req *Request
	se.Go("client", func(p *sim.Proc) {
		req = e.Submit(220, 190)
		p.Wait(req.Done())
	})
	se.Run()
	if req.Err != nil {
		t.Fatal(req.Err)
	}
	if req.Generated != 190 {
		t.Fatalf("generated = %d, want 190", req.Generated)
	}
	if req.TTFT() <= 0 || req.TTFT() > 100*time.Millisecond {
		t.Fatalf("TTFT = %v, want small positive", req.TTFT())
	}
	// Single-stream decode: ~103 tok/s per the Fig 9 anchor.
	rate := float64(req.Generated) / req.Latency().Seconds()
	if rate < 93 || rate > 113 {
		t.Fatalf("single-stream rate = %.1f tok/s, want ~103 ±10%%", rate)
	}
	if e.KV().UsedBlocks() != 0 {
		t.Fatalf("KV blocks leaked: %d", e.KV().UsedBlocks())
	}
}

func TestConcurrentThroughputScales(t *testing.T) {
	se, e := newEngine(t, hopsScoutConfig())
	const n = 64
	done := 0
	start := se.Now()
	var finish time.Time
	for i := 0; i < n; i++ {
		se.Go("client", func(p *sim.Proc) {
			r := e.Submit(220, 190)
			p.Wait(r.Done())
			if r.Err != nil {
				t.Errorf("request failed: %v", r.Err)
			}
			done++
			finish = se.Now()
		})
	}
	se.Run()
	if done != n {
		t.Fatalf("completed %d/%d", done, n)
	}
	tput := float64(n*190) / finish.Sub(start).Seconds()
	// With 64 concurrent sequences throughput should far exceed the
	// single-stream rate but stay below the ~4300 saturation point.
	if tput < 1500 || tput > 4500 {
		t.Fatalf("batch-64 throughput = %.0f tok/s, want ~2000-4300", tput)
	}
	if e.Stats().PeakRunning < 32 {
		t.Fatalf("peak running = %d, want continuous batching to hold most sequences", e.Stats().PeakRunning)
	}
}

func TestRequestValidation(t *testing.T) {
	se, e := newEngine(t, hopsScoutConfig())
	var tooLong *Request
	se.Go("client", func(p *sim.Proc) {
		tooLong = e.Submit(65000, 1000)
		p.Wait(tooLong.Done())
	})
	se.Run()
	if tooLong.Err == nil || !strings.Contains(tooLong.Err.Error(), "max_model_len") {
		t.Fatalf("err = %v, want max_model_len rejection", tooLong.Err)
	}
}

func TestPreemptionUnderKVPressure(t *testing.T) {
	// Tiny KV: force preemptions by running many long sequences on a
	// configuration with little cache headroom.
	cfg := Config{
		Model: llm.Scout, GPU: hw.H100SXM,
		TensorParallel: 4, MaxModelLen: 8192,
		GPUMemUtil: 0.77, // just above the weight footprint → few blocks
	}
	se := sim.NewEngine(1)
	e, err := New(se, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.KV().TotalBlocks() > 4000 {
		t.Skipf("KV unexpectedly large (%d blocks); preemption scenario needs scarcity", e.KV().TotalBlocks())
	}
	e.Run()
	const n = 40
	failed, completed := 0, 0
	for i := 0; i < n; i++ {
		se.Go("client", func(p *sim.Proc) {
			r := e.Submit(2000, 2000)
			p.Wait(r.Done())
			if r.Err != nil {
				failed++
			} else {
				completed++
			}
		})
	}
	se.Run()
	if completed == 0 {
		t.Fatal("no requests completed under KV pressure")
	}
	if e.Stats().Preemptions == 0 {
		t.Fatal("expected preemptions under KV pressure")
	}
	if e.KV().UsedBlocks() != 0 {
		t.Fatalf("blocks leaked after drain: %d", e.KV().UsedBlocks())
	}
	t.Logf("completed=%d failed=%d preemptions=%d", completed, failed, e.Stats().Preemptions)
}

func TestCrashFailsInflightRequests(t *testing.T) {
	se, e := newEngine(t, hopsScoutConfig())
	e.SetFaults(Faults{CrashAfterCompleted: 5})
	errs, oks := 0, 0
	for i := 0; i < 20; i++ {
		se.Go("client", func(p *sim.Proc) {
			r := e.Submit(220, 190)
			p.Wait(r.Done())
			if r.Err != nil {
				errs++
			} else {
				oks++
			}
		})
	}
	se.Run()
	if crashed, err := e.Crashed(); !crashed || !strings.Contains(err.Error(), "RayWorkerDied") {
		t.Fatalf("crashed=%v err=%v", crashed, err)
	}
	if oks < 5 || errs == 0 {
		t.Fatalf("oks=%d errs=%d; want ≥5 successes then failures", oks, errs)
	}
	// Submissions after the crash fail immediately.
	var late *Request
	se.Go("late", func(p *sim.Proc) {
		late = e.Submit(10, 10)
		p.Wait(late.Done())
	})
	se.Run()
	if late.Err == nil {
		t.Fatal("post-crash submit should fail")
	}
}

func TestScheduledDowntimeCrash(t *testing.T) {
	se, e := newEngine(t, hopsScoutConfig())
	e.SetFaults(Faults{CrashAfter: 30 * time.Second})
	var r *Request
	se.Go("client", func(p *sim.Proc) {
		// A request that would take ~60s at batch 1 (6300 tokens).
		r = e.Submit(200, 6300)
		p.Wait(r.Done())
	})
	se.Run()
	if r.Err == nil || !strings.Contains(r.Err.Error(), "downtime") {
		t.Fatalf("err = %v, want downtime termination", r.Err)
	}
	if got := se.Since(sim.Epoch); got < 30*time.Second || got > 35*time.Second {
		t.Fatalf("crash at %v, want ~30s", got)
	}
}

func TestMemoryLeakEventuallyCrashes(t *testing.T) {
	se, e := newEngine(t, hopsScoutConfig())
	e.SetFaults(Faults{LeakBlocksPerStep: 200})
	crashed := false
	e.OnCrash(func(err error) { crashed = strings.Contains(err.Error(), "leak") })
	// Steady trickle of work keeps the engine stepping.
	for i := 0; i < 200; i++ {
		d := time.Duration(i) * 500 * time.Millisecond
		se.Schedule(d, func() { e.Submit(200, 50) })
	}
	se.Run()
	if !crashed {
		t.Fatalf("leak did not crash engine (leaked=%d, total=%d)",
			e.Stats().LeakedBlocks, e.KV().TotalBlocks())
	}
}

func TestEngineIdlesWithoutBusyLoop(t *testing.T) {
	se, e := newEngine(t, hopsScoutConfig())
	se.Go("client", func(p *sim.Proc) {
		r := e.Submit(100, 10)
		p.Wait(r.Done())
	})
	se.Run()
	steps := e.Stats().Steps
	// After drain the engine must be parked: advancing time adds no steps.
	se.RunFor(time.Hour)
	if e.Stats().Steps != steps {
		t.Fatalf("engine stepped while idle: %d → %d", steps, e.Stats().Steps)
	}
}

// TestTelemetryP95TracksCompletionsAndForgets: the snapshot's p95 comes
// from the engine's windowed latency histogram, so it lands within one
// bucket (15%) of the exact p95 of the completed requests, and reads 0
// once five virtual minutes pass with no completion.
func TestTelemetryP95TracksCompletionsAndForgets(t *testing.T) {
	se, e := newEngine(t, hopsScoutConfig())
	var lat []float64
	var busy, quiet, idle float64
	se.Go("client", func(p *sim.Proc) {
		// One request at a time, so each latency is its own decode time.
		for i := 1; i <= 40; i++ {
			req := e.Submit(200, 5*i)
			p.Wait(req.Done())
			lat = append(lat, float64(req.Latency())/float64(time.Millisecond))
		}
		busy = e.Telemetry().P95Millis
		p.Sleep(4 * time.Minute)
		quiet = e.Telemetry().P95Millis
		p.Sleep(time.Minute)
		idle = e.Telemetry().P95Millis
	})
	se.Run()
	sort.Float64s(lat)
	exact := lat[int(math.Ceil(0.95*float64(len(lat))))-1]
	if rel := math.Abs(busy-exact) / exact; rel > 0.15 {
		t.Fatalf("P95Millis = %.1f, exact p95 %.1f (off by %.0f%%, want within one 15%% bucket)", busy, exact, rel*100)
	}
	if quiet <= 0 {
		t.Fatalf("P95Millis 4 minutes after the last completion = %v, want the window to still hold it", quiet)
	}
	if idle != 0 {
		t.Fatalf("P95Millis 5 idle minutes after the last completion = %v, want 0", idle)
	}
}

func TestParseServeArgs(t *testing.T) {
	// Podman-style (Fig 4).
	sa, err := ParseServeArgs([]string{
		"serve", "meta-llama/Llama-4-Scout-17B-16E-Instruct",
		"--tensor_parallel_size=4", "--disable-log-requests", "--max-model-len=65536",
		"--override-generation-config={\"attn_temperature_tuning\": true}",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sa.ModelArg != "meta-llama/Llama-4-Scout-17B-16E-Instruct" || sa.TensorParallel != 4 ||
		sa.MaxModelLen != 65536 || !sa.DisableLogReqs {
		t.Fatalf("parsed = %+v", sa)
	}
	// Helm-style (Fig 6).
	sa, err = ParseServeArgs([]string{
		"vllm", "serve", "/data/", "--host", "0.0.0.0", "--port", "8000",
		"--served-model-name", "meta-llama/Llama-4-Scout-17B-16E-Instruct",
		"--tensor-parallel-size=4", "--max-model-len=65536",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sa.ModelArg != "/data/" || sa.Port != 8000 || sa.ServedModelName == "" || sa.TensorParallel != 4 {
		t.Fatalf("parsed = %+v", sa)
	}
	if _, err := ParseServeArgs([]string{"run", "x"}); err == nil {
		t.Fatal("non-serve subcommand should error")
	}
}

func TestLookupParamsFallbacks(t *testing.T) {
	// Calibrated entry.
	p := LookupParams(llm.Scout, hw.H100SXM, 4, 1, 4)
	if p.Tw == 0 || p.Td == 0 {
		t.Fatal("calibrated entry empty")
	}
	// Scaled from calibration: TP2 Scout on H100 is slower per step.
	p2 := LookupParams(llm.Scout, hw.H100SXM, 2, 1, 4)
	if p2.Tw <= p.Tw {
		t.Fatalf("TP2 Tw (%v) should exceed TP4 Tw (%v)", p2.Tw, p.Tw)
	}
	// Cross-node TP pays the all-reduce penalty.
	flat := LookupParams(llm.Llama31405B, hw.H100SXM, 16, 1, 4)
	pp := LookupParams(llm.Llama31405B, hw.H100SXM, 4, 4, 4)
	if flat.Td <= pp.Td*2 {
		t.Fatalf("cross-node TP16 Td (%v) should be ≫ TP4×PP4 Td (%v)", flat.Td, pp.Td)
	}
	// Uncalibrated model falls back to first principles.
	fp := LookupParams(llm.Llama318B, hw.A100, 1, 1, 1)
	if fp.Tw <= 0 || fp.Td <= 0 || fp.Tpf <= 0 {
		t.Fatalf("first-principles params invalid: %+v", fp)
	}
}
