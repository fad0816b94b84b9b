// Multinode: §3.5 as a runnable program — Llama 3.1 405B served across four
// Hops nodes (16 H100s, TP4 within nodes × PP4 between them) on a Ray
// cluster bootstrapped from per-node vLLM containers, including the
// worker-loss failure mode the paper observed.
//
//	go run ./examples/multinode
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/sharegpt"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/vhttp"
	"repro/internal/vllm"
)

func main() {
	s := site.New(site.Options{Small: true, Seed: 3})
	d := core.NewDeployer(s)
	model := llm.Llama31405B

	var failure error
	done := false
	s.Eng.Go("multinode", func(p *sim.Proc) {
		defer func() { done = true }()
		if failure = core.SeedModel(p, s.HopsLustre, model); failure != nil {
			return
		}
		fmt.Printf("deploying %s (%.0f GiB weights) across 4 nodes...\n",
			model.Short, float64(model.WeightBytes())/(1<<30))
		start := p.Now()
		dp, err := d.Deploy(p, core.VLLMPackage(), core.PlatformHops, core.DeployConfig{
			Model: model, TensorParallel: 4, PipelineParallel: 4,
			MaxModelLen: 32768, Offline: true,
		})
		if err != nil {
			failure = err
			return
		}
		defer dp.Stop()
		fmt.Printf("ready in %s simulated (Ray cluster + weight load + warmup)\n",
			p.Now().Sub(start).Round(time.Second))

		// Single-query latency at batch 1 (paper: ~12.5 tok/s).
		client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
		body, _ := json.Marshal(vllm.ChatRequest{
			Messages: []vllm.ChatMessage{{Role: "user", Content: "Summarize pipeline parallelism."}}, MaxTokens: 128,
		})
		t0 := p.Now()
		resp, err := client.Do(p, &vhttp.Request{Method: "POST", URL: dp.BaseURL + "/v1/chat/completions", Body: body})
		if err != nil {
			failure = fmt.Errorf("chat: %w", err)
			return
		}
		if resp.Status != 200 {
			failure = fmt.Errorf("chat: status %d", resp.Status)
			return
		}
		dur := p.Now().Sub(t0)
		fmt.Printf("batch-1: 128 tokens in %s → %.1f tok/s\n", dur.Round(time.Millisecond), 128/dur.Seconds())

		// A short throughput point at high concurrency.
		res := bench.Run(p, &bench.HTTPTarget{Client: client, BaseURL: dp.BaseURL},
			bench.Config{Name: "405b", Dataset: sharegpt.Synthesize(2, 2000), NumPrompts: 500, MaxConcurrency: 256, Seed: 1})
		fmt.Printf("batch-256: %.0f output tok/s over %d requests\n", res.OutputThroughput, res.Completed)

		// Multi-node unreliability: lose a worker mid-flight. Ray's failure
		// detection propagates into the engine, failing in-flight requests —
		// the Fig 12 run-1 behaviour.
		fmt.Println("\ninjecting worker loss (NCCL watchdog timeout)...")
		eng := dp.Engine()
		dp.LoseRayWorker()
		p.Sleep(time.Second)
		if crashed, cerr := eng.Crashed(); crashed {
			fmt.Printf("engine crashed as expected: %v\n", cerr)
		} else {
			failure = fmt.Errorf("worker loss did not propagate")
			return
		}
		fmt.Println("as in the paper, multi-node serving is powerful but fragile: restart required.")
	})
	for i := 0; i < 20000 && !done; i++ {
		s.Eng.RunFor(time.Minute)
	}
	if failure != nil {
		log.Fatal(failure)
	}
}
