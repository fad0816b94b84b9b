// Workload: the million-user workload engine end to end — a declarative
// Spec (cohorts × diurnal arrivals × multi-turn sessions) drives a live
// replicated deployment open-loop, and the generated stream round-trips
// through a JSONL trace bit-identically.
//
// One table describes the traffic: an interactive chat cohort holding
// 3-turn conversations (each turn re-sends the growing history under one
// session key, so affinity + prefix caching get honest token content), and
// a batch-class report cohort firing single shots. Session starts follow a
// low/peak/low diurnal rate schedule, and arrivals are open-loop — the
// generator never slows down because the fleet does.
//
// The demo then proves determinism the way the bench harness does: the
// stream is recorded to a trace, read back, and compared request-by-request
// (same cohorts, clients, arrival micros, token lengths); regenerating from
// the trace's embedded spec must also reproduce it exactly.
//
// The acceptance bar: every interactive request completes (zero failures,
// zero sheds), the batch cohort completes work, engine prefix caches see
// hits from the multi-turn histories, and both trace comparisons are exact.
//
//	go run ./examples/workload
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/vhttp"
	"repro/internal/workload"
)

func main() {
	s := site.New(site.Options{Small: true, Seed: 3})
	d := core.NewDeployer(s)
	model := llm.Llama318B

	spec := workload.Spec{
		Name: "diurnal-demo",
		Seed: 42,
		Cohorts: []workload.Cohort{
			{
				Name: "chat", Model: model.Name, Class: "interactive",
				Weight: 3, Clients: 120, Turns: 3, ThinkTime: 15 * time.Second,
				Prompt: workload.LengthDist{Mu: 4.0, Sigma: 0.5},
				Output: workload.LengthDist{Mu: 3.6, Sigma: 0.5},
			},
			{
				Name: "reports", Model: model.Name, Class: "batch",
				Weight: 1, Clients: 40,
				Prompt: workload.LengthDist{Mu: 4.5, Sigma: 0.5},
				Output: workload.LengthDist{Mu: 4.2, Sigma: 0.5},
			},
		},
		Arrivals: workload.Arrivals{Periods: []workload.RatePeriod{
			{Dur: 60 * time.Second, StartsPerSec: 0.6},
			{Dur: 2 * time.Minute, StartsPerSec: 2.0},
			{Dur: 60 * time.Second, StartsPerSec: 0.6},
		}},
	}

	var failure error
	done := false
	s.Eng.Go("workload-demo", func(p *sim.Proc) {
		defer func() { done = true }()
		if failure = core.SeedModel(p, s.HopsLustre, model); failure != nil {
			return
		}

		fmt.Println("deploying 2 session-routed replicas of", model.Short, "...")
		dp, err := d.Deploy(p, core.VLLMPackage(), core.PlatformHops, core.DeployConfig{
			Model: model, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
			Replicas: 2, RoutePolicy: "session",
		})
		if err != nil {
			failure = err
			return
		}
		defer dp.Stop()
		fmt.Printf("  endpoint: %s\n\n", dp.BaseURL)

		// --- Generate the stream and prove trace round-trip fidelity ----
		reqs, err := workload.Generate(spec)
		if err != nil {
			failure = err
			return
		}
		st := workload.Summarize(reqs)
		fmt.Printf("generated %d requests: %d sessions from %d distinct clients over %s\n",
			st.Requests, st.Sessions, st.Clients, st.Span.Round(time.Second))
		for _, c := range spec.Cohorts {
			fmt.Printf("  cohort %-8s %4d requests\n", c.Name, st.PerCohort[c.Name])
		}

		var buf bytes.Buffer
		if err := workload.WriteTrace(&buf, spec, reqs); err != nil {
			failure = err
			return
		}
		traceSpec, replayed, err := workload.ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			failure = err
			return
		}
		if err := workload.Identical(reqs, replayed); err != nil {
			failure = fmt.Errorf("trace read-back diverged: %w", err)
			return
		}
		regen, err := workload.Generate(traceSpec)
		if err != nil {
			failure = err
			return
		}
		if err := workload.Identical(reqs, regen); err != nil {
			failure = fmt.Errorf("regeneration from traced spec diverged: %w", err)
			return
		}
		fmt.Printf("trace round-trip: %d records replay and regenerate bit-identically\n\n", len(replayed))

		// --- Drive the stream open-loop through the gateway -------------
		fmt.Println("replaying the stream against the deployment (open loop)...")
		client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
		res := bench.RunWorkload(p, &bench.HTTPTarget{Client: client, BaseURL: dp.BaseURL}, spec.Name, reqs)
		fmt.Print(res)

		hits := 0
		for _, b := range dp.Gateway().Backends() {
			snap := b.Telemetry()
			fmt.Printf("  replica %-12s prefix hit rate %5.1f%% (%d hits)\n",
				b.Name, snap.PrefixHitRate()*100, snap.PrefixHits)
			hits += int(snap.PrefixHits)
		}

		chat := res.Cohort("chat")
		switch {
		case res.Requests != len(reqs):
			failure = fmt.Errorf("drove %d of %d requests", res.Requests, len(reqs))
		case chat == nil || chat.Failed > 0 || chat.Shed > 0:
			failure = fmt.Errorf("interactive cohort lost requests: %+v", chat)
		case res.Cohort("reports") == nil || res.Cohort("reports").Completed == 0:
			failure = fmt.Errorf("batch cohort completed nothing")
		case hits == 0:
			failure = fmt.Errorf("multi-turn sessions produced no prefix-cache hits")
		default:
			fmt.Printf("\nworkload engine held up: %d/%d completed, interactive intact, "+
				"%d prefix hits from replayed conversations.\n", res.Completed, res.Requests, hits)
		}
	})
	for i := 0; i < 20000 && !done; i++ {
		s.Eng.RunFor(time.Minute)
	}
	if failure != nil {
		log.Fatal(failure)
	}
	if !done {
		log.Fatal("simulation did not converge")
	}
}
