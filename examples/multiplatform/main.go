// Multiplatform: the paper's central observation made executable — the
// identical vLLM container package deployed on three platforms with three
// different mechanisms (Podman on Slurm/Hops, Apptainer on Flux/El Dorado,
// Helm on Kubernetes/Goodall), then benchmarked briefly on each.
//
//	go run ./examples/multiplatform
package main

import (
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
)

func main() {
	s := site.New(site.Options{Small: true, Seed: 11})
	d := core.NewDeployer(s)

	var failure error
	done := false
	s.Eng.Go("multiplatform", func(p *sim.Proc) {
		defer func() { done = true }()
		ds := sharegpt.Synthesize(1, 2000)

		type target struct {
			pf    core.Platform
			model *llm.ModelSpec
			tp    int
		}
		targets := []target{
			{core.PlatformHops, llm.Scout, 4},
			{core.PlatformEldorado, llm.Scout, 4},
			{core.PlatformGoodall, llm.ScoutW4A16, 2},
		}
		fmt.Println("platform    runtime    image                                       batch-16 tok/s   TTFT p99 (ms)")
		for _, tgt := range targets {
			// Stage weights where the platform's services read them.
			if failure = d.SeedModelOn(p, tgt.pf, tgt.model); failure != nil {
				return
			}
			plan, err := d.Plan(core.VLLMPackage(), tgt.pf, core.DeployConfig{
				Model: tgt.model, TensorParallel: tgt.tp, MaxModelLen: 65536, Offline: true,
			})
			if err != nil {
				failure = err
				return
			}
			dp, err := d.Deploy(p, core.VLLMPackage(), tgt.pf, core.DeployConfig{
				Model: tgt.model, TensorParallel: tgt.tp, MaxModelLen: 65536, Offline: true,
			})
			if err != nil {
				failure = fmt.Errorf("%s: %w", tgt.pf.Name, err)
				return
			}
			res := bench.Run(p, &bench.HTTPTarget{
				Client:  &vhttp.Client{Net: s.Net, From: site.LoginHops},
				BaseURL: dp.BaseURL,
			}, bench.Config{
				Name: tgt.pf.Name, Dataset: ds, NumPrompts: 200, MaxConcurrency: 16, Seed: 5,
			})
			fmt.Printf("%-11s %-10s %-42s %8.0f %15.0f\n",
				tgt.pf.Name, plan.Runtime, plan.Image, res.OutputThroughput, res.TTFT.P99())
			dp.Stop()
		}
		fmt.Println("\nsame container image per accelerator family; only the deployment syntax differed.")
	})
	for i := 0; i < 20000 && !done; i++ {
		s.Eng.RunFor(time.Minute)
	}
	if failure != nil {
		log.Fatal(failure)
	}
}
