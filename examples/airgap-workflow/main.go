// Airgap-workflow: the complete §3 case study end to end — download a model
// repository from the upstream hub with the git container (Fig 2), sync it
// into site object storage with the AWS client container excluding .git
// (Fig 3), stage it onto the Hops parallel filesystem, deploy a persistent
// Compute-as-Login service, query it from a laptop through the NGINX
// gateway (Fig 7), and run a short benchmark sweep (Fig 8).
//
//	go run ./examples/airgap-workflow
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
	s := site.New(site.Options{Small: true, Seed: 21})
	d := core.NewDeployer(s)
	model := llm.Llama318B

	var failure error
	done := false
	s.Eng.Go("workflow", func(p *sim.Proc) {
		defer func() { done = true }()

		fmt.Println("[1/5] downloading model repository from the hub (git container on build01)...")
		t0 := p.Now()
		if failure = d.FetchModel(p, model, "hf_token"); failure != nil {
			return
		}
		fmt.Printf("      cloned %.1f GiB and synced to s3://%s/%s in %s\n",
			float64(model.RepoBytes())/(1<<30), site.ModelBucket, model.Name, p.Now().Sub(t0).Round(time.Second))

		fmt.Println("[2/5] fixing the Hops↔S3 route (the §2.4 order-of-magnitude change)...")
		s.FixHopsS3Routing()

		fmt.Println("[3/5] staging from object storage onto hops-lustre (aws-cli container)...")
		t0 = p.Now()
		if failure = d.StageModel(p, core.PlatformHops, model); failure != nil {
			return
		}
		fmt.Printf("      staged in %s\n", p.Now().Sub(t0).Round(time.Second))

		fmt.Println("[4/5] deploying as a persistent Compute-as-Login service...")
		t0 = p.Now()
		dp, err := d.Deploy(p, core.VLLMPackage(), core.PlatformHops, core.DeployConfig{
			Model: model, TensorParallel: 1, MaxModelLen: 8192, Offline: true, Persistent: true,
		})
		if err != nil {
			failure = err
			return
		}
		defer dp.Stop()
		fmt.Printf("      ready in %s — internal %s, external %s\n",
			p.Now().Sub(t0).Round(time.Second), dp.BaseURL, dp.ExternalURL)

		// Query from off-site through the gateway.
		laptop := &vhttp.Client{Net: s.Net, From: "laptop"}
		body, _ := json.Marshal(vllm.ChatRequest{
			Messages:  []vllm.ChatMessage{{Role: "user", Content: "How long to get from Earth to Mars?"}},
			MaxTokens: 64,
		})
		resp, err := laptop.Do(p, &vhttp.Request{
			Method: "POST", URL: dp.ExternalURL + "/v1/chat/completions",
			Header: map[string]string{"Content-Type": "application/json", "Authorization": "Bearer secret-api-key"},
			Body:   body,
		})
		if err != nil {
			failure = fmt.Errorf("gateway query: %w", err)
			return
		}
		if resp.Status != 200 {
			failure = fmt.Errorf("gateway query: status %d", resp.Status)
			return
		}
		fmt.Println("      laptop → CaL gateway → compute node round trip OK")

		fmt.Println("[5/5] benchmark sweep (abbreviated)...")
		results := bench.Sweep(p, &bench.HTTPTarget{
			Client: &vhttp.Client{Net: s.Net, From: site.LoginHops}, BaseURL: dp.BaseURL,
		}, bench.Config{
			Name: "cal-8b", Dataset: sharegpt.Synthesize(4, 2000), NumPrompts: 300, Seed: 9,
		}, []int{1, 8, 64})
		for _, r := range results {
			fmt.Printf("      c=%-4d → %7.1f output tok/s (p99 TTFT %.0f ms)\n",
				r.Concurrency, r.OutputThroughput, r.TTFT.P99())
		}
		fmt.Println("workflow complete.")
	})
	for i := 0; i < 20000 && !done; i++ {
		s.Eng.RunFor(time.Minute)
	}
	if failure != nil {
		log.Fatal(failure)
	}
}
