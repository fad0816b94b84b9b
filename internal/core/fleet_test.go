package core

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/llm"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/vhttp"
	"repro/internal/vllm"
)

func TestDeployFleetRoutesModelsEndToEnd(t *testing.T) {
	// Two real engine-backed replica sets behind one router endpoint:
	// chat requests reach the Llama replicas, code requests the Qwen
	// replicas, /v1/models aggregates both served names, and an unknown
	// name is a 404 listing the fleet.
	// Failures inside the sim proc use t.Errorf + return, never t.Fatalf: a
	// Goexit from a parked proc would strand the engine's strict handoff
	// and turn an assertion failure into a test timeout.
	s, d := newSite(t)
	run(t, s, func(p *sim.Proc) {
		for _, m := range []*llm.ModelSpec{llm.Llama318B, llm.Qwen25Coder7B} {
			if err := SeedModel(p, s.HopsLustre, m); err != nil {
				t.Errorf("SeedModel: %v", err)
				return
			}
		}
		fleet, err := d.DeployFleet(p, VLLMPackage(), PlatformHops, FleetConfig{PoolNodes: 4}, []FleetModel{
			{Config: DeployConfig{
				Model: llm.Llama318B, ServedName: "chat", TensorParallel: 1,
				MaxModelLen: 8192, Offline: true, Replicas: 2, RoutePolicy: "least-loaded",
			}},
			{Config: DeployConfig{
				Model: llm.Qwen25Coder7B, ServedName: "code", TensorParallel: 1,
				MaxModelLen: 8192, Offline: true, Replicas: 1,
			}},
		})
		if err != nil {
			t.Errorf("DeployFleet: %v", err)
			return
		}
		defer fleet.Stop()

		if got := fleet.Models(); len(got) != 2 || got[0] != "chat" || got[1] != "code" {
			t.Errorf("fleet models = %v", got)
			return
		}
		if fleet.Deployment("chat").CurrentReplicas() != 2 || fleet.Deployment("code").CurrentReplicas() != 1 {
			t.Errorf("replica counts = %d/%d, want 2/1",
				fleet.Deployment("chat").CurrentReplicas(), fleet.Deployment("code").CurrentReplicas())
			return
		}
		// Fixed-size members still count against the shared pool: their
		// nodes must be visible to arbitration, not just elastic members'.
		if pst := fleet.pool.Status(); pst.UsedNodes != 3 || len(pst.Members) != 2 {
			t.Errorf("pool sees %d nodes across %d members, want 3 across 2: %+v",
				pst.UsedNodes, len(pst.Members), pst)
		}

		client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
		chatFor := func(model string) (int, *vllm.ChatResponse) {
			body, _ := json.Marshal(vllm.ChatRequest{
				Model:    model,
				Messages: []vllm.ChatMessage{{Role: "user", Content: "hello"}}, MaxTokens: 16,
			})
			resp, err := client.Do(p, &vhttp.Request{
				Method: "POST", URL: fleet.BaseURL + "/v1/chat/completions", Body: body,
			})
			if err != nil {
				t.Errorf("chat(%s): %v", model, err)
				return -1, &vllm.ChatResponse{}
			}
			var cr vllm.ChatResponse
			json.Unmarshal(resp.Body, &cr)
			return resp.Status, &cr
		}

		// Each model's requests land on its own engines and echo the alias.
		for i := 0; i < 3; i++ {
			if status, cr := chatFor("chat"); status != 200 || cr.Model != "chat" {
				t.Errorf("chat request %d: %d model=%q", i, status, cr.Model)
				return
			}
			if status, cr := chatFor("code"); status != 200 || cr.Model != "code" {
				t.Errorf("code request %d: %d model=%q", i, status, cr.Model)
				return
			}
		}
		if st := fleet.Deployment("chat").Gateway().Stats(); st.Requests != 3 {
			t.Errorf("chat gateway requests = %d, want 3", st.Requests)
		}
		if st := fleet.Router().Stats(); st.Requests != 6 {
			t.Errorf("router routed = %d, want 6", st.Requests)
		}

		// /v1/models aggregates the fleet's served names, deduplicated.
		resp, err := client.Get(p, fleet.BaseURL+"/v1/models")
		if err != nil || resp.Status != 200 {
			t.Errorf("models: %v %+v", err, resp)
			return
		}
		body := string(resp.Body)
		if !strings.Contains(body, `"id":"chat"`) || !strings.Contains(body, `"id":"code"`) {
			t.Errorf("aggregated models = %s", body)
		}
		if strings.Count(body, `"id":"`) != 2 {
			t.Errorf("model list not deduplicated: %s", body)
		}

		// Unknown model: 404 with the available list, no engine touched.
		if status, _ := chatFor("gpt-5"); status != 404 {
			t.Errorf("unknown model status = %d, want 404", status)
		}

		// Replicas run on distinct nodes across the whole fleet.
		hosts := map[string]bool{}
		total := 0
		for _, name := range fleet.Models() {
			for _, r := range fleet.Deployment(name).Replicas() {
				hosts[r.BaseURL] = true
				total++
			}
		}
		if len(hosts) != total {
			t.Errorf("fleet replicas share nodes: %v", hosts)
		}
	})
}

func TestDeployFleetPoolReclaimUnderContention(t *testing.T) {
	// The arbitration acceptance path on the real stack: both models are
	// elastic on a 4-node pool with sticky scale-downs. The chat model
	// bursts after the code model has grown; the pool preempts code's idle
	// surplus so chat can take 3 of 4 nodes — with zero failed requests.
	s, d := newSite(t)
	elastic := func() *autoscale.Policy {
		return &autoscale.Policy{
			MinReplicas: 1, MaxReplicas: 3, TargetQueueDepth: 6,
			Interval: 15 * time.Second, ScaleUpCooldown: 30 * time.Second,
			ScaleDownCooldown: time.Hour, ScaleToZeroAfter: 2 * time.Hour,
		}
	}
	// Failures inside the sim proc use t.Errorf + return, never t.Fatalf: a
	// Goexit from a parked proc would strand the engine's strict handoff
	// and turn an assertion failure into a test timeout.
	run(t, s, func(p *sim.Proc) {
		for _, m := range []*llm.ModelSpec{llm.Llama318B, llm.Qwen25Coder7B} {
			if err := SeedModel(p, s.HopsLustre, m); err != nil {
				t.Errorf("SeedModel: %v", err)
				return
			}
		}
		fleet, err := d.DeployFleet(p, VLLMPackage(), PlatformHops, FleetConfig{PoolNodes: 4}, []FleetModel{
			{Weight: 1, Config: DeployConfig{
				Model: llm.Llama318B, ServedName: "chat", TensorParallel: 1,
				MaxModelLen: 8192, Offline: true, Replicas: 1,
				RoutePolicy: "least-loaded", Autoscale: elastic(),
			}},
			{Weight: 1, Config: DeployConfig{
				Model: llm.Qwen25Coder7B, ServedName: "code", TensorParallel: 1,
				MaxModelLen: 8192, Offline: true, Replicas: 2,
				RoutePolicy: "least-loaded", Autoscale: elastic(),
			}},
		})
		if err != nil {
			t.Errorf("DeployFleet: %v", err)
			return
		}
		defer fleet.Stop()

		// Closed-loop chat burst; code stays idle so its 2 replicas are
		// pure cooldown-held surplus.
		client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
		stop := false
		failures := 0
		for w := 0; w < 24; w++ {
			p.Engine().Go("load", func(wp *sim.Proc) {
				body, _ := json.Marshal(vllm.ChatRequest{
					Model:    "chat",
					Messages: []vllm.ChatMessage{{Role: "user", Content: "burst"}}, MaxTokens: 256,
				})
				for !stop {
					resp, err := client.Do(wp, &vhttp.Request{
						Method: "POST", URL: fleet.BaseURL + "/v1/chat/completions", Body: body,
					})
					if err != nil || resp.Status != 200 {
						failures++
					}
				}
			})
		}
		for i := 0; i < 240 && fleet.Deployment("chat").CurrentReplicas() < 3; i++ {
			p.Sleep(15 * time.Second)
		}
		stop = true
		if got := fleet.Deployment("chat").CurrentReplicas(); got < 3 {
			t.Errorf("chat never reclaimed to 3 replicas (at %d); chat=%+v code=%+v pool=%+v",
				got, fleet.Deployment("chat").Autoscaler().Status(),
				fleet.Deployment("code").Autoscaler().Status(), fleet.pool.Status())
		}
		if got := fleet.Deployment("code").CurrentReplicas(); got != 1 {
			t.Errorf("code kept %d replicas, want preempted to 1", got)
		}
		if used := fleet.pool.Status().UsedNodes; used > 4 {
			t.Errorf("pool used %d nodes, capacity 4", used)
		}
		if failures > 0 {
			t.Errorf("%d failed requests across the reclaim", failures)
		}
		// The reclaim can only have come from the arbiter: code's own policy
		// would hold its replicas for the full 1h ScaleDownCooldown.
		if downs := fleet.Deployment("code").Autoscaler().Status().ScaleDowns; downs < 1 {
			t.Errorf("code scale-downs = %d, want >= 1 (arbiter preemption)", downs)
		}
	})
}

func TestParseFleetFlagSchedulingOptions(t *testing.T) {
	entries, err := ParseFleetFlag(
		"chat=meta-llama/Llama-3.1-8B-Instruct:2:p95=30s:policy=session," +
			"bulk=Qwen/Qwen2.5-Coder-7B-Instruct:class=batch")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	chat, bulk := entries[0], entries[1]
	if chat.Alias != "chat" || chat.Weight != 2 || chat.SLOTargetP95 != 30*time.Second || chat.RoutePolicy != "session" {
		t.Fatalf("chat entry = %+v", chat)
	}
	if bulk.Alias != "bulk" || bulk.Weight != 1 || bulk.Class != "batch" || bulk.SLOTargetP95 != 0 {
		t.Fatalf("bulk entry = %+v", bulk)
	}
	if entries, err := ParseFleetFlag("meta-llama/Llama-3.1-8B-Instruct:policy=prefix"); err != nil || entries[0].RoutePolicy != "prefix" {
		t.Fatalf("policy=prefix: %+v, %v", entries, err)
	}

	for spec, wantErr := range map[string]string{
		"meta-llama/Llama-3.1-8B-Instruct:p95=banana":   "bad p95",
		"meta-llama/Llama-3.1-8B-Instruct:p95=-3s":      "bad p95",
		"meta-llama/Llama-3.1-8B-Instruct:class=vip":    "bad priority class",
		"meta-llama/Llama-3.1-8B-Instruct:policy=x":     "bad route policy",
		"meta-llama/Llama-3.1-8B-Instruct:policy=":      "bad route policy",
		"meta-llama/Llama-3.1-8B-Instruct:policy=prefx": `"prefix"`,
		"meta-llama/Llama-3.1-8B-Instruct:0":            "bad option",
	} {
		if _, err := ParseFleetFlag(spec); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("spec %q: err = %v, want %q", spec, err, wantErr)
		}
	}
}

func TestSeedFleetAppliesPerModelSchedulingOptions(t *testing.T) {
	s, d := newSite(t)
	run(t, s, func(p *sim.Proc) {
		entries, err := ParseFleetFlag(
			"chat=meta-llama/Llama-3.1-8B-Instruct:p95=20s:policy=session,bulk=Qwen/Qwen2.5-Coder-7B-Instruct:class=batch")
		if err != nil {
			t.Errorf("ParseFleetFlag: %v", err)
			return
		}
		base := DeployConfig{TensorParallel: 1, MaxModelLen: 8192, Offline: true,
			Replicas: 1, RoutePolicy: "least-loaded", SLOTargetP95: 5 * time.Second}
		models, err := SeedFleet(p, d, PlatformHops, base, entries)
		if err != nil {
			t.Errorf("SeedFleet: %v", err)
			return
		}
		chat, bulk := models[0].Config, models[1].Config
		if chat.SLOTargetP95 != 20*time.Second || chat.RoutePolicy != "session" || chat.PriorityClass != "" {
			t.Errorf("chat config = slo %s policy %s class %q", chat.SLOTargetP95, chat.RoutePolicy, chat.PriorityClass)
		}
		// Unset per-model options inherit the fleet-wide base.
		if bulk.SLOTargetP95 != 5*time.Second || bulk.RoutePolicy != "least-loaded" || bulk.PriorityClass != "batch" {
			t.Errorf("bulk config = slo %s policy %s class %q", bulk.SLOTargetP95, bulk.RoutePolicy, bulk.PriorityClass)
		}
	})
}

func TestOccupiedReplicasCountsInFlightLaunches(t *testing.T) {
	// The reclaim-convergence fix: a replica mid-launch (job submitted,
	// weights loading) already occupies its node, so pool accounting must
	// see it before it registers with the gateway.
	s, d := newSite(t)
	model := llm.Llama318B
	run(t, s, func(p *sim.Proc) {
		if err := SeedModel(p, s.HopsLustre, model); err != nil {
			t.Errorf("SeedModel: %v", err)
			return
		}
		dp, err := d.Deploy(p, VLLMPackage(), PlatformHops, DeployConfig{
			Model: model, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
			Replicas: 2, RoutePolicy: "round-robin",
		})
		if err != nil {
			t.Errorf("Deploy: %v", err)
			return
		}
		defer dp.Stop()
		done := sim.NewFuture[int](p.Engine())
		p.Engine().Go("grow", func(rp *sim.Proc) {
			err := dp.ScaleTo(rp, 3)
			if err != nil {
				t.Errorf("ScaleTo: %v", err)
			}
			done.Resolve(0, err)
		})
		// Weight loading dominates a replica launch; a minute in, the new
		// replica is still launching but must already count as occupied.
		p.Sleep(time.Minute)
		if dp.CurrentReplicas() != 2 {
			t.Errorf("CurrentReplicas mid-launch = %d, want 2", dp.CurrentReplicas())
		}
		if got := dp.OccupiedReplicas(); got != 3 {
			t.Errorf("OccupiedReplicas mid-launch = %d, want 3 (live + launching)", got)
		}
		if _, err := sim.Await(p, done); err != nil {
			return
		}
		if dp.CurrentReplicas() != 3 || dp.OccupiedReplicas() != 3 {
			t.Errorf("after launch: current %d occupied %d, want 3/3",
				dp.CurrentReplicas(), dp.OccupiedReplicas())
		}
	})
}

func TestDeployFleetValidation(t *testing.T) {
	s, d := newSite(t)
	run(t, s, func(p *sim.Proc) {
		if err := SeedModel(p, s.HopsLustre, llm.Llama318B); err != nil {
			t.Errorf("SeedModel: %v", err)
			return
		}
		base := DeployConfig{
			Model: llm.Llama318B, TensorParallel: 1, MaxModelLen: 8192, Offline: true, Replicas: 1,
		}
		// Duplicate route names.
		_, err := d.DeployFleet(p, VLLMPackage(), PlatformHops, FleetConfig{}, []FleetModel{
			{Config: base}, {Config: base},
		})
		if err == nil || !strings.Contains(err.Error(), "not unique") {
			t.Errorf("duplicate names: %v", err)
			return
		}
		// Initial replicas past the pool.
		big := base
		big.Replicas = 3
		other := base
		other.ServedName = "alias"
		other.Replicas = 2
		_, err = d.DeployFleet(p, VLLMPackage(), PlatformHops, FleetConfig{PoolNodes: 4}, []FleetModel{
			{Config: big}, {Config: other},
		})
		if err == nil || !strings.Contains(err.Error(), "pool holds") {
			t.Errorf("oversubscribed fleet: %v", err)
			return
		}
		// Kubernetes is rejected.
		_, err = d.DeployFleet(p, VLLMPackage(), PlatformGoodall, FleetConfig{}, []FleetModel{{Config: base}})
		if err == nil || !strings.Contains(err.Error(), "HPC platforms") {
			t.Errorf("k8s fleet: %v", err)
			return
		}
		// A bad per-model policy fails fast before anything launches.
		bad := base
		bad.RoutePolicy = "fastest"
		_, err = d.DeployFleet(p, VLLMPackage(), PlatformHops, FleetConfig{}, []FleetModel{{Config: bad}})
		if err == nil || !strings.Contains(err.Error(), "unknown route policy") {
			t.Errorf("bad policy: %v", err)
			return
		}
		// So does a bad per-model priority class.
		badClass := base
		badClass.PriorityClass = "vip"
		_, err = d.DeployFleet(p, VLLMPackage(), PlatformHops, FleetConfig{}, []FleetModel{{Config: badClass}})
		if err == nil || !strings.Contains(err.Error(), "unknown priority class") {
			t.Errorf("bad class: %v", err)
			return
		}
	})
}
