// SLO: the request-scheduling layer end to end — SLO-aware admission,
// priority classes, and session-affinity routing on a shared GPU pool.
//
// Two models share a 4-node pool behind one routing endpoint: an
// interactive chat model with a tight p95 latency objective and
// session-affine routing, and a bulk model whose traffic is all
// batch-class. The demo runs three acts:
//
//  1. Multi-turn affinity: one conversation sends sequential turns; every
//     turn must land on the same replica (warm KV cache), picked by
//     consistent hashing on the session key.
//  2. Saturation spill: the same conversation turns into a flood. Once the
//     affine replica's queue passes the spill threshold, the session
//     spills to the least-loaded replica instead of queueing behind it.
//  3. SLO shed under burst: interactive and batch traffic burst on the
//     chat model together, past what its replicas can serve inside the
//     objective. The gateway's rolling p95 breaches the SLO, the breaker
//     engages, and batch-class requests shed with 503 + Retry-After while
//     every interactive request completes.
//
// The acceptance bar: zero failed interactive requests across all three
// acts, batch traffic visibly shed under the burst, the single session
// pinned to one replica until the spill, and spills observed once it
// saturates.
//
//	go run ./examples/slo
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/vhttp"
	"repro/internal/vllm"
)

const (
	chat      = "chat"
	bulk      = "bulk"
	poolNodes = 4
	sloP95    = 6 * time.Second
)

func main() {
	s := site.New(site.Options{Small: true, Seed: 7})
	d := core.NewDeployer(s)

	var failure error
	done := false
	s.Eng.Go("slo-demo", func(p *sim.Proc) {
		defer func() { done = true }()
		for _, m := range []*llm.ModelSpec{llm.Llama318B, llm.Qwen25Coder7B} {
			if failure = core.SeedModel(p, s.HopsLustre, m); failure != nil {
				return
			}
		}

		fmt.Printf("deploying a 2-model fleet on a shared %d-node pool ...\n", poolNodes)
		fleet, err := d.DeployFleet(p, core.VLLMPackage(), core.PlatformHops, core.FleetConfig{PoolNodes: poolNodes}, []core.FleetModel{
			{Weight: 2, Config: core.DeployConfig{
				Model: llm.Llama318B, ServedName: chat, TensorParallel: 1,
				MaxModelLen: 8192, Offline: true, Replicas: 2,
				RoutePolicy: "session", SLOTargetP95: sloP95,
			}},
			{Weight: 1, Config: core.DeployConfig{
				Model: llm.Qwen25Coder7B, ServedName: bulk, TensorParallel: 1,
				MaxModelLen: 8192, Offline: true, Replicas: 2,
				RoutePolicy: "least-loaded", PriorityClass: "batch",
			}},
		})
		if err != nil {
			failure = err
			return
		}
		defer fleet.Stop()
		gw := fleet.Deployment(chat).Gateway()
		fmt.Printf("endpoint: %s routes %v\n", fleet.BaseURL, fleet.Models())
		fmt.Printf("  %s: session-affine routing, p95 objective %s\n", chat, sloP95)
		fmt.Printf("  %s: least-loaded, batch priority class\n\n", bulk)

		client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
		ask := func(model, session, priority string, maxTokens int) *vhttp.Request {
			body, _ := json.Marshal(vllm.ChatRequest{
				Model:     model,
				Messages:  []vllm.ChatMessage{{Role: "user", Content: "Continue our conversation about the cluster."}},
				MaxTokens: maxTokens,
				SessionID: session,
				Priority:  priority,
			})
			return &vhttp.Request{
				Method: "POST", URL: fleet.BaseURL + "/v1/chat/completions",
				Header: map[string]string{"Content-Type": "application/json"},
				Body:   body,
			}
		}
		backendRequests := func() map[string]int {
			out := map[string]int{}
			for _, b := range gw.Backends() {
				out[b.Name] = b.Requests()
			}
			return out
		}

		// --- Act 1: multi-turn session affinity -------------------------
		// A real conversation: every turn re-sends the whole history plus a
		// fresh question and folds the answer back in, so the prompt grows
		// and — because affinity pins the session to one replica — each
		// turn's shared prefix is already resident in that engine's prefix
		// cache and skips prefill.
		fmt.Println("--- act 1: one conversation, sequential turns ---")
		before := backendRequests()
		const turns = 12
		history := []vllm.ChatMessage{}
		for i := 0; i < turns; i++ {
			history = append(history, vllm.ChatMessage{
				Role: "user",
				Content: fmt.Sprintf("Turn %d: tell me more about the cluster — its scheduler, "+
					"its filesystems, its container runtimes, and how the GPU partitions are laid out.", i),
			})
			body, _ := json.Marshal(vllm.ChatRequest{
				Model: chat, Messages: history, MaxTokens: 64, SessionID: "alice",
			})
			resp, err := client.Do(p, &vhttp.Request{
				Method: "POST", URL: fleet.BaseURL + "/v1/chat/completions",
				Header: map[string]string{"Content-Type": "application/json"},
				Body:   body,
			})
			if err != nil || resp.Status != 200 {
				failure = fmt.Errorf("turn %d failed: %v %v", i, err, resp)
				return
			}
			var cr vllm.ChatResponse
			if json.Unmarshal(resp.Body, &cr) == nil && len(cr.Choices) > 0 {
				history = append(history, cr.Choices[0].Message)
			}
			p.Sleep(10 * time.Second) // think time between turns
		}
		affine, spread := "", 0
		for name, n := range backendRequests() {
			if delta := n - before[name]; delta > 0 {
				affine = name
				spread++
				fmt.Printf("  replica %-12s served %2d/%d turns\n", name, delta, turns)
			}
		}
		if spread != 1 {
			failure = fmt.Errorf("session spread across %d replicas, want 1 (KV-cache locality)", spread)
			return
		}
		fmt.Printf("  session pinned to %s for all %d turns, %d spills\n\n", affine, turns, gw.SessionSpills())

		// --- Act 2: the session floods its affine replica ---------------
		fmt.Println("--- act 2: the same session saturates its replica ---")
		inflight := s.Eng.NewGroup()
		rng := s.Eng.Rand()
		floodSent, floodFailed := 0, 0
		before = backendRequests()
		end := p.Now().Add(4 * time.Minute)
		for p.Now().Before(end) {
			p.Sleep(time.Duration(rng.ExpFloat64() / 2.5 * float64(time.Second)))
			floodSent++
			inflight.Add(1)
			s.Eng.Go(fmt.Sprintf("flood-%d", floodSent), func(rp *sim.Proc) {
				defer inflight.Finish()
				if resp, err := client.Do(rp, ask(chat, "alice", "", 96)); err != nil || resp.Status != 200 {
					floodFailed++
				}
			})
		}
		inflight.WaitAll(p)
		spills := gw.SessionSpills()
		for name, n := range backendRequests() {
			if delta := n - before[name]; delta > 0 {
				fmt.Printf("  replica %-12s served %3d flood requests\n", name, delta)
			}
		}
		fmt.Printf("  %d requests, %d failed, %d saturation spills off %s\n\n", floodSent, floodFailed, spills, affine)
		if floodFailed > 0 {
			failure = fmt.Errorf("act 2: %d interactive flood requests failed", floodFailed)
			return
		}
		if spills == 0 {
			failure = fmt.Errorf("act 2: the saturated affine replica never spilled")
			return
		}

		// --- Act 3: SLO shed under a mixed-class burst ------------------
		fmt.Println("--- act 3: interactive + batch burst past the SLO ---")
		sent := map[string]int{}
		failed := map[string]int{}
		shed := 0
		load := func(model, session, priority string, rps float64, dur time.Duration) {
			inflight.Add(1)
			s.Eng.Go("load-"+model+priority, func(lp *sim.Proc) {
				defer inflight.Finish()
				end := lp.Now().Add(dur)
				n := 0
				for lp.Now().Before(end) {
					lp.Sleep(time.Duration(rng.ExpFloat64() / rps * float64(time.Second)))
					if !lp.Now().Before(end) {
						break
					}
					n++
					key := model + "/" + priority
					sess := session
					if sess != "" {
						sess = fmt.Sprintf("%s-%d", session, n%8)
					}
					sent[key]++
					inflight.Add(1)
					s.Eng.Go(fmt.Sprintf("burst-%s-%d", key, n), func(rp *sim.Proc) {
						defer inflight.Finish()
						resp, err := client.Do(rp, ask(model, sess, priority, 256))
						switch {
						case err == nil && resp.Status == 503 && priority == "batch":
							shed++
						case err != nil || resp.Status != 200:
							failed[key]++
						}
					})
				}
			})
		}
		load(chat, "burst", "interactive", 4.5, 10*time.Minute)
		load(chat, "", "batch", 4.0, 10*time.Minute)
		load(bulk, "", "", 0.4, 10*time.Minute) // bulk's own batch-class work
		inflight.WaitAll(p)
		// Let the engines drain so the post-burst p95 is honest.
		p.Sleep(2 * time.Minute)

		slo, _ := gw.SLO()
		fmt.Printf("  %-18s sent %3d, failed %d\n", chat+"/interactive", sent[chat+"/interactive"], failed[chat+"/interactive"])
		fmt.Printf("  %-18s sent %3d, shed %d (503 + Retry-After)\n", chat+"/batch", sent[chat+"/batch"], shed)
		fmt.Printf("  %-18s sent %3d, failed %d\n", bulk, sent[bulk+"/"], failed[bulk+"/"])
		fmt.Printf("  slo: objective %s, breaker sheds %d, p95 now %.1fs\n\n",
			sloP95, slo.Sheds, slo.P95Millis/1000)

		// End-of-run engine telemetry: what the gateway's typed probes saw
		// last on each replica — the prefix-cache payoff of session
		// affinity and the KV residency behind it.
		fmt.Println("--- per-replica engine telemetry (typed /telemetry probes) ---")
		hitSeen := false
		for _, model := range fleet.Models() {
			for _, b := range fleet.Deployment(model).Gateway().Backends() {
				snap := b.Telemetry()
				fmt.Printf("  %-8s %-12s prefix hit rate %5.1f%%  kv usage %5.1f%% (%d/%d blocks, %d reclaimable cache)\n",
					model, b.Name, snap.PrefixHitRate()*100, snap.KVUsage()*100,
					snap.KVBlocksUsed, snap.KVBlocksTotal, snap.KVBlocksCached)
				if snap.PrefixHits > 0 {
					hitSeen = true
				}
			}
		}
		fmt.Println()

		totalInteractiveFailed := failed[chat+"/interactive"] + failed[bulk+"/"] + failed[chat+"/batch"]
		switch {
		case totalInteractiveFailed > 0:
			failure = fmt.Errorf("act 3: %d non-shed requests failed", totalInteractiveFailed)
		case shed == 0:
			failure = fmt.Errorf("act 3: the SLO breaker never shed batch traffic")
		case slo.Sheds == 0:
			failure = fmt.Errorf("act 3: gateway SLO status shows no sheds")
		case !hitSeen:
			failure = fmt.Errorf("no replica reported prefix-cache hits; session affinity bought no engine-level reuse")
		default:
			st := gw.Stats()
			fmt.Printf("scheduling layer held the line: %d requests through the %s gateway, "+
				"%d batch sheds, 0 failed interactive requests;\n"+
				"one conversation stayed on one replica until saturation, then spilled %d times.\n",
				st.Requests, chat, st.Rejected, spills)
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
