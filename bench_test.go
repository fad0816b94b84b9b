// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation as testing.B benchmarks (thinned sweeps), plus
// micro-benchmarks of the performance-critical substrates. Run with:
//
//	go test -bench=. -benchmem
//
// Full-resolution figure data comes from `go run ./cmd/figures -all`.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/sharegpt"
	"repro/internal/sim"
	"repro/internal/vllm"
)

// benchExperiment runs one experiment per iteration and reports the headline
// measurement as a custom metric.
func benchExperiment(b *testing.B, id string, metric string) {
	b.ReportAllocs()
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunOne(id, experiments.Options{Quick: true, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range res.Anchors {
			if a.Name == metric {
				last = a.Measured
			}
		}
	}
	if last != 0 {
		b.ReportMetric(last, "tok/s")
	}
}

// BenchmarkFig9 regenerates Figure 9 (Hops vs El Dorado, Scout TP4).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9", "Hops max throughput") }

// BenchmarkFig10 regenerates Figure 10 (quantized Scout, Hops vs Goodall).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10", "Goodall w4a16 max throughput") }

// BenchmarkFig12 regenerates Figure 12 (405B multi-node over Ray).
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12", "405B max throughput") }

// BenchmarkStartup regenerates the startup table (§3.3 "30 minutes or more").
func BenchmarkStartup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunOne("startup", experiments.Options{Quick: true, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryPull regenerates the §2.3 registry-bottleneck table.
func BenchmarkRegistryPull(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunOne("regpull", experiments.Options{Quick: true, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkS3Routing regenerates the §2.4 routing-fix measurement.
func BenchmarkS3Routing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunOne("s3route", experiments.Options{Quick: true, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngressFailover regenerates the CaL-vs-Kubernetes recovery table.
func BenchmarkIngressFailover(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunOne("ingress", experiments.Options{Quick: true, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuantAblation regenerates the bf16-vs-w4a16 ablation.
func BenchmarkQuantAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunOne("quant", experiments.Options{Quick: true, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelAblation regenerates the TP×PP layout ablation.
func BenchmarkParallelAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunOne("parallel", experiments.Options{Quick: true, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaxLenGate regenerates the --max-model-len capacity table.
func BenchmarkMaxLenGate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunOne("maxlen", experiments.Options{Quick: true, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks -----------------------------------------

// BenchmarkEngineServing measures the simulated vLLM engine itself: one
// full 1000-request benchmark at concurrency 256 per iteration.
func BenchmarkEngineServing(b *testing.B) {
	b.ReportAllocs()
	ds := sharegpt.Synthesize(1, 4000)
	var tput float64
	for i := 0; i < b.N; i++ {
		se := sim.NewEngine(int64(i))
		e, err := vllm.New(se, vllm.Config{
			Model: llm.Scout, GPU: hw.H100SXM, TensorParallel: 4, MaxModelLen: 65536,
		})
		if err != nil {
			b.Fatal(err)
		}
		e.Run()
		var res *bench.Result
		se.Go("bench", func(p *sim.Proc) {
			res = bench.Run(p, &bench.EngineTarget{Engine: e}, bench.Config{
				Name: "bench", Dataset: ds, NumPrompts: 1000, MaxConcurrency: 256, Seed: int64(i),
			})
		})
		se.Run()
		tput = res.OutputThroughput
	}
	b.ReportMetric(tput, "sim-tok/s")
}

// BenchmarkNetsimContention measures max-min reallocation with 64 flows
// arriving and draining on a shared bottleneck.
func BenchmarkNetsimContention(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(int64(i))
		fb := netsim.New(eng)
		shared := fb.AddLink("shared", 1e9, 0)
		for j := 0; j < 64; j++ {
			nic := fb.AddLink(fmt.Sprintf("nic-%d", j), 1e10, 0)
			sz := float64(1e8 + j*1e6)
			delay := time.Duration(j) * time.Millisecond
			eng.Schedule(delay, func() {
				fb.Start(sz, []*netsim.Link{shared, nic}, netsim.StartOptions{})
			})
		}
		eng.Run()
	}
}

// BenchmarkSimEngine measures raw event throughput of the DES core.
func BenchmarkSimEngine(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			eng.Schedule(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	eng.Schedule(0, tick)
	eng.Run()
}

// BenchmarkPerfModel measures step-time evaluation (hot path of the engine).
func BenchmarkPerfModel(b *testing.B) {
	params := vllm.LookupParams(llm.Llama31405B, hw.H100SXM, 4, 4, 4)
	var acc time.Duration
	for i := 0; i < b.N; i++ {
		acc += params.StepTime(i%1024, i%256)
	}
	_ = acc
}
