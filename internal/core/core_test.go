package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cruntime"
	"repro/internal/flux"
	"repro/internal/ingress"
	"repro/internal/llm"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/slurm"
	"repro/internal/vhttp"
	"repro/internal/vllm"
)

func newSite(t *testing.T) (*site.Site, *Deployer) {
	t.Helper()
	s := site.New(site.Options{Small: true, Seed: 1})
	return s, NewDeployer(s)
}

// run executes fn on a process and drives the sim until fn completes (the
// site has perpetual controllers, so Run() alone never returns).
func run(t *testing.T, s *site.Site, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	s.Eng.Go("test", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	for i := 0; i < 10000 && !done; i++ {
		s.Eng.RunFor(time.Minute)
	}
	if !done {
		t.Fatal("test process did not finish within simulated time budget")
	}
}

func TestPlanHopsPodmanMatchesFig4(t *testing.T) {
	_, d := newSite(t)
	plan, err := d.Plan(VLLMPackage(), PlatformHops, DeployConfig{
		Model: llm.Scout, TensorParallel: 4, MaxModelLen: 65536, Offline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Runtime != "podman" || plan.Image != "vllm/vllm-openai:v0.9.1" {
		t.Fatalf("plan = %+v", plan)
	}
	for _, want := range []string{
		"podman run", "--network=host", "--ipc=host", "--device nvidia.com/gpu=all",
		`-e "HF_HUB_OFFLINE=1"`, `-e "VLLM_NO_USAGE_STATS=1"`, `-e "TRANSFORMERS_OFFLINE=1"`,
		"--workdir=/vllm-workspace/models",
		"vllm/vllm-openai:v0.9.1", "serve", "meta-llama/Llama-4-Scout-17B-16E-Instruct",
		"--tensor_parallel_size=4", "--max-model-len=65536",
	} {
		if !strings.Contains(plan.Artifact, want) {
			t.Errorf("hops plan missing %q:\n%s", want, plan.Artifact)
		}
	}
}

func TestPlanEldoradoApptainerMatchesFig5(t *testing.T) {
	_, d := newSite(t)
	plan, err := d.Plan(VLLMPackage(), PlatformEldorado, DeployConfig{
		Model: llm.Scout, TensorParallel: 4, MaxModelLen: 65536, Offline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Runtime != "apptainer" {
		t.Fatalf("eldorado runtime = %s", plan.Runtime)
	}
	// Platform difference: the ROCm build is selected automatically.
	if plan.Image != "rocm/vllm:rocm6.4.1_vllm_0.9.1_20250702" {
		t.Fatalf("eldorado image = %s", plan.Image)
	}
	for _, want := range []string{
		"apptainer exec", "--fakeroot", "--writable-tmpfs", "--cleanenv", "--no-home", "--rocm",
		`-e "HF_HOME=/root/.cache/huggingface"`,
	} {
		if !strings.Contains(plan.Artifact, want) {
			t.Errorf("eldorado plan missing %q:\n%s", want, plan.Artifact)
		}
	}
	if strings.Contains(plan.Artifact, "--nv") {
		t.Error("NVIDIA flag must not appear on the AMD platform")
	}
}

func TestPlanGoodallHelmMatchesFig6(t *testing.T) {
	_, d := newSite(t)
	plan, err := d.Plan(VLLMPackage(), PlatformGoodall, DeployConfig{
		Model: llm.ScoutW4A16, TensorParallel: 2, MaxModelLen: 65536, Offline: true,
		IngressHost: "scout.apps.goodall.example.gov",
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Runtime != "helm" {
		t.Fatalf("goodall runtime = %s", plan.Runtime)
	}
	for _, want := range []string{
		"repository: vllm/vllm-openai", "tag: v0.9.1",
		"--tensor-parallel-size=2", "--max-model-len=65536",
		"path: RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16",
		"HF_HUB_OFFLINE", "host: scout.apps.goodall.example.gov",
	} {
		if !strings.Contains(plan.Artifact, want) {
			t.Errorf("goodall values missing %q:\n%s", want, plan.Artifact)
		}
	}
}

// TestHelmValuesEnvSorted: the chart's env list is sorted by name, as the
// Podman and Apptainer command lines are, so a plan renders the same values
// file on every run.
func TestHelmValuesEnvSorted(t *testing.T) {
	_, d := newSite(t)
	values := d.helmValues(VLLMPackage(), "vllm/vllm-openai:v0.9.1", DeployConfig{
		Model: llm.ScoutW4A16, TensorParallel: 2, Offline: true, Port: 8000,
	})
	var names []string
	for _, e := range values.Env {
		names = append(names, e.Name)
	}
	if len(names) < 3 || !slices.IsSorted(names) {
		t.Fatalf("env names not sorted: %v", names)
	}
}

func TestAirgapWorkflowEndToEnd(t *testing.T) {
	// The full §3 case study with the small model: download from the hub on
	// the build host, sync to S3, stage to Lustre, deploy with Podman,
	// query through the OpenAI API.
	s, d := newSite(t)
	model := llm.Llama318B
	run(t, s, func(p *sim.Proc) {
		if err := d.FetchModel(p, model, "hf_token"); err != nil {
			t.Fatalf("FetchModel: %v", err)
		}
		// Model is in S3 (without .git) and replicating.
		if got := s.S3ABQ.TotalBytes(site.ModelBucket, model.Name); got < model.RepoBytes()/2 {
			t.Fatalf("S3 bytes = %d", got)
		}
		if err := d.StageModel(p, PlatformHops, model); err != nil {
			t.Fatalf("StageModel: %v", err)
		}
		if !HasModel(s.HopsLustre, model) {
			t.Fatal("model not on Lustre after staging")
		}
		dp, err := d.Deploy(p, VLLMPackage(), PlatformHops, DeployConfig{
			Model: model, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
		})
		if err != nil {
			t.Fatalf("Deploy: %v", err)
		}
		defer dp.Stop()
		if !dp.Healthy(p) {
			t.Fatal("service not healthy")
		}
		// Fig 7: an OpenAI chat completion.
		client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
		body, _ := json.Marshal(vllm.ChatRequest{
			Model:     model.Name,
			Messages:  []vllm.ChatMessage{{Role: "user", Content: "How long to get from Earth to Mars?"}},
			MaxTokens: 64,
		})
		resp, err := client.Do(p, &vhttp.Request{
			Method: "POST", URL: dp.BaseURL + "/v1/chat/completions",
			Header: map[string]string{"Content-Type": "application/json"},
			Body:   body,
		})
		if err != nil || resp.Status != 200 {
			t.Fatalf("chat: %v %d %s", err, resp.Status, resp.Body)
		}
		var cr vllm.ChatResponse
		if err := json.Unmarshal(resp.Body, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Usage.CompletionTokens != 64 || cr.Choices[0].Message.Content == "" {
			t.Fatalf("completion = %+v", cr)
		}
	})
}

func TestDeployRequiresStagedModel(t *testing.T) {
	s, d := newSite(t)
	run(t, s, func(p *sim.Proc) {
		_, err := d.Deploy(p, VLLMPackage(), PlatformHops, DeployConfig{
			Model: llm.Llama318B, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
		})
		if err == nil || !strings.Contains(err.Error(), "not staged") {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestApptainerDefaultsCrashAndMetadataFixes(t *testing.T) {
	// §3.2: "These differences cause the vLLM container to crash at startup
	// using Apptainer's default configuration." The package metadata derives
	// the fixing flags.
	s, d := newSite(t)
	model := llm.Llama318B
	run(t, s, func(p *sim.Proc) {
		if err := SeedModel(p, s.EldoradoLustre, model); err != nil {
			t.Fatal(err)
		}
		pkg := VLLMPackage()
		eldo, err := d.target(PlatformEldorado)
		if err != nil {
			t.Fatal(err)
		}
		image, _ := pkg.ImageFor(eldo.vendor)
		spec := d.hpcSpec(pkg, image, s.EldoradoLustre, DeployConfig{
			Model: model, TensorParallel: 1, MaxModelLen: 8192, Offline: true, Port: 8000,
		})
		node := s.EldoradoNodes[0]

		// Default Apptainer: crash at startup.
		defaults := &cruntime.Apptainer{Host: s.Host}
		ctr, err := defaults.Run(p, node, spec)
		if err != nil {
			t.Fatalf("launch: %v", err)
		}
		p.Wait(ctr.Done())
		if ctr.State != cruntime.StateFailed {
			t.Fatalf("default apptainer state = %s, want failed", ctr.State)
		}

		// Metadata-derived flags: works.
		fixed := AdaptApptainer(s.Host, pkg, eldo.vendor)
		ctr2, err := fixed.Run(p, node, spec)
		if err != nil {
			t.Fatalf("adapted launch: %v", err)
		}
		if err := waitReady(p, ctr2); err != nil {
			t.Fatalf("adapted apptainer failed: %v\nlogs: %v", err, ctr2.Logs())
		}
		ctr2.Stop()
	})
}

func TestDeployGoodallHelmEndToEnd(t *testing.T) {
	s, d := newSite(t)
	model := llm.ScoutW4A16
	run(t, s, func(p *sim.Proc) {
		if err := SeedModelToS3(p, d, model); err != nil {
			t.Fatal(err)
		}
		dp, err := d.Deploy(p, VLLMPackage(), PlatformGoodall, DeployConfig{
			Model: model, TensorParallel: 2, MaxModelLen: 65536, Offline: true,
			IngressHost: "scout.apps.goodall.example.gov",
		})
		if err != nil {
			t.Fatalf("Deploy: %v", err)
		}
		defer dp.Stop()
		// Query through the Kubernetes ingress from a laptop.
		client := &vhttp.Client{Net: s.Net, From: "laptop"}
		resp, err := client.Get(p, dp.ExternalURL+"/v1/models")
		if err != nil || resp.Status != 200 {
			t.Fatalf("ingress query: %v %d", err, resp.Status)
		}
		if !strings.Contains(string(resp.Body), model.Name) {
			t.Fatalf("models = %s", resp.Body)
		}
		if dp.Engine() == nil {
			t.Fatal("engine handle unavailable")
		}
	})
}

// TestDeployK8sReplicasShareTheService: on Kubernetes a deployment's BaseURL
// is the chart Service's cluster name, which resolves to a ready pod per
// request, so two replicas serve ten requests five and five.
func TestDeployK8sReplicasShareTheService(t *testing.T) {
	s, d := newSite(t)
	model := llm.Scout
	run(t, s, func(p *sim.Proc) {
		if err := SeedModelToS3(p, d, model); err != nil {
			t.Fatal(err)
		}
		dp, err := d.Deploy(p, VLLMPackage(), PlatformCEE, DeployConfig{
			Model: model, TensorParallel: 4, MaxModelLen: 65536, Offline: true, Replicas: 2,
		})
		if err != nil {
			t.Fatalf("Deploy: %v", err)
		}
		defer dp.Stop()
		if dp.BaseURL != "http://vllm.ai.svc.cee:8000" {
			t.Fatalf("BaseURL = %s, want the Service's cluster name", dp.BaseURL)
		}
		client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
		body, _ := json.Marshal(vllm.ChatRequest{MaxTokens: 16,
			Messages: []vllm.ChatMessage{{Role: "user", Content: "hello"}}})
		for i := 0; i < 10; i++ {
			resp, err := client.Do(p, &vhttp.Request{Method: "POST",
				URL: dp.BaseURL + "/v1/chat/completions", Body: body})
			if err != nil || resp.Status != 200 {
				t.Fatalf("request %d: %v %v", i, err, resp)
			}
		}
		served := map[string]int{}
		for _, pod := range s.CEE.ReadyPods(map[string]string{"app": "vllm"}) {
			ctr := s.CEE.PodContainer(pod.Meta.Namespace, pod.Meta.Name)
			served[pod.Meta.Name] = serverOf(ctr).Engine.Stats().Completed
		}
		if len(served) != 2 {
			t.Fatalf("ready pods served %v, want two pods", served)
		}
		for name, n := range served {
			if n != 5 {
				t.Fatalf("pods served %v; %s served %d of 10, want 5", served, name, n)
			}
		}
	})
}

// TestDeployK8sStopsAtFirstPodFailure: when the chart's pods cannot start
// (the model is not in S3, so the init container's s3 sync fails), Deploy
// returns the failed pod's status at its next readiness poll rather than
// at its four-hour deadline, and uninstalls the release.
func TestDeployK8sStopsAtFirstPodFailure(t *testing.T) {
	s, d := newSite(t)
	run(t, s, func(p *sim.Proc) {
		start := p.Now()
		_, err := d.Deploy(p, VLLMPackage(), PlatformCEE, DeployConfig{
			Model: llm.Scout, TensorParallel: 4, MaxModelLen: 65536, Offline: true,
		})
		if err == nil || !strings.Contains(err.Error(), "init container fetch-model failed: s3: NoSuchBucket") {
			t.Fatalf("Deploy err = %v, want the init container's failure", err)
		}
		if took := p.Now().Sub(start); took != 30*time.Second {
			t.Fatalf("Deploy failed after %s, want 30s (one readiness poll)", took)
		}
		if pods := s.CEE.Pods(nil); len(pods) != 0 {
			t.Fatalf("%d pods left after the failed deploy, want the release uninstalled", len(pods))
		}
	})
}

func TestMultiNodeRayDeployment(t *testing.T) {
	// §3.5 with the 405B model across 4 Hops nodes (TP4×PP4).
	s, d := newSite(t)
	model := llm.Llama31405B
	run(t, s, func(p *sim.Proc) {
		if err := SeedModel(p, s.HopsLustre, model); err != nil {
			t.Fatal(err)
		}
		dp, err := d.Deploy(p, VLLMPackage(), PlatformHops, DeployConfig{
			Model: model, TensorParallel: 4, PipelineParallel: 4,
			MaxModelLen: 32768, Offline: true,
		})
		if err != nil {
			t.Fatalf("Deploy: %v", err)
		}
		defer dp.Stop()
		if len(dp.containers) != 4 {
			t.Fatalf("containers = %d, want 4 (one Ray container per node)", len(dp.containers))
		}
		if dp.ray.TotalGPUs() != 16 {
			t.Fatalf("ray GPUs = %d, want 16", dp.ray.TotalGPUs())
		}
		// A query flows end to end.
		client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
		body, _ := json.Marshal(vllm.ChatRequest{MaxTokens: 16,
			Messages: []vllm.ChatMessage{{Role: "user", Content: "hello"}}})
		resp, err := client.Do(p, &vhttp.Request{Method: "POST",
			URL: dp.BaseURL + "/v1/chat/completions", Body: body})
		if err != nil || resp.Status != 200 {
			t.Fatalf("chat on 405B: %v %d %s", err, resp.Status, resp.Body)
		}
		// Multi-node unreliability: losing a worker kills the engine.
		dp.ray.LoseWorker(dp.containers[2].Node.Name, errNodeDown)
		if crashed, cerr := dp.Engine().Crashed(); !crashed || !strings.Contains(cerr.Error(), "died") {
			t.Fatalf("engine should crash on worker loss: %v %v", crashed, cerr)
		}
	})
}

var errNodeDown = &nodeDownErr{}

type nodeDownErr struct{}

func (*nodeDownErr) Error() string { return "NCCL watchdog timeout" }

func TestReplicaSetDeploymentAndGatewayFailover(t *testing.T) {
	// The replica-set serving path: three engine instances on distinct Hops
	// nodes behind one gateway endpoint. A request whose first-choice
	// replica is crashed mid-flight succeeds via retry on a healthy one.
	s, d := newSite(t)
	model := llm.Llama318B
	run(t, s, func(p *sim.Proc) {
		if err := SeedModel(p, s.HopsLustre, model); err != nil {
			t.Fatal(err)
		}
		dp, err := d.Deploy(p, VLLMPackage(), PlatformHops, DeployConfig{
			Model: model, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
			Replicas: 3, RoutePolicy: "round-robin",
		})
		if err != nil {
			t.Fatalf("Deploy: %v", err)
		}
		defer dp.Stop()
		reps := dp.Replicas()
		if len(reps) != 3 {
			t.Fatalf("replicas = %d, want 3", len(reps))
		}
		hosts := map[string]bool{}
		for _, r := range reps {
			if !r.Healthy(p) {
				t.Fatalf("replica %s not healthy", r.BaseURL)
			}
			hosts[r.BaseURL] = true
		}
		if len(hosts) != 3 {
			t.Fatalf("replicas share nodes: %v", hosts)
		}
		if dp.Gateway() == nil || dp.BaseURL != dp.Gateway().Endpoint() {
			t.Fatalf("BaseURL %q should be the gateway endpoint", dp.BaseURL)
		}
		if !dp.Healthy(p) {
			t.Fatal("replica set not healthy through the gateway")
		}

		// Crash the round-robin first choice while our request is in flight:
		// the engine fails the request with 500, the gateway retries it on a
		// different replica, and the client sees 200.
		victim := reps[0].Engine()
		p.Engine().Schedule(2*time.Second, func() {
			victim.Crash(errNodeDown)
		})
		client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
		body, _ := json.Marshal(vllm.ChatRequest{
			Messages:  []vllm.ChatMessage{{Role: "user", Content: "long enough to outlive the crash"}},
			MaxTokens: 512,
		})
		resp, err := client.Do(p, &vhttp.Request{
			Method: "POST", URL: dp.BaseURL + "/v1/chat/completions", Body: body,
		})
		if err != nil || resp.Status != 200 {
			t.Fatalf("chat through gateway after crash: %v %d %s", err, resp.Status, resp.Body)
		}
		if st := dp.Gateway().Stats(); st.Retries != 1 {
			t.Fatalf("gateway retries = %d, want 1 (request re-routed off the crashed replica)", st.Retries)
		}

		// The health loop takes the dead replica out of rotation; the set
		// stays healthy, and per-replica Healthy reflects the split.
		p.Sleep(time.Minute)
		if dp.Gateway().HealthyBackends() != 2 {
			t.Fatalf("healthy backends = %d, want 2", dp.Gateway().HealthyBackends())
		}
		if reps[0].Healthy(p) {
			t.Fatal("crashed replica still reports healthy")
		}
		if !dp.Healthy(p) || !reps[1].Healthy(p) || !reps[2].Healthy(p) {
			t.Fatal("surviving replicas should keep the set healthy")
		}
		if dp.Engine() == nil {
			t.Fatal("Engine() should resolve to a live replica")
		}
		if crashed, _ := dp.Engine().Crashed(); crashed {
			t.Fatal("Engine() returned the crashed replica")
		}

		// Per-replica Stop: stopping one replica leaves the others serving.
		reps[1].Stop()
		p.Sleep(time.Minute)
		if dp.Gateway().HealthyBackends() != 1 {
			t.Fatalf("healthy backends after per-replica stop = %d, want 1", dp.Gateway().HealthyBackends())
		}
		if resp, err := client.Get(p, dp.BaseURL+"/v1/models"); err != nil || resp.Status != 200 {
			t.Fatalf("last replica should still serve: %v %v", err, resp)
		}
	})
}

// TestPlanAndDeployRefuseAlike: Plan and Deploy run one check, so each
// request one refuses the other refuses with the same error, and neither
// panics on a missing model or an unknown platform.
func TestPlanAndDeployRefuseAlike(t *testing.T) {
	s, d := newSite(t)
	base := DeployConfig{Model: llm.Llama318B, TensorParallel: 1, MaxModelLen: 8192, Offline: true}
	edit := func(f func(*DeployConfig)) DeployConfig {
		cfg := base
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		pf   Platform
		cfg  DeployConfig
		want string
	}{
		{"autoscale with a bad route policy", PlatformHops, edit(func(c *DeployConfig) {
			c.Replicas, c.RoutePolicy, c.Autoscale = 1, "fastest", &autoscale.Policy{MaxReplicas: 2}
		}), "unknown route policy"},
		{"persistent autoscaled set", PlatformHops, edit(func(c *DeployConfig) {
			c.Persistent, c.Autoscale = true, &autoscale.Policy{MaxReplicas: 2}
		}), "exclusive"},
		{"bad priority class on kubernetes", PlatformGoodall, edit(func(c *DeployConfig) {
			c.PriorityClass = "vip"
		}), "unknown priority class"},
		{"persistent on flux", PlatformEldorado, edit(func(c *DeployConfig) {
			c.Persistent = true
		}), "reserved through Slurm"},
		{"pipeline parallel on kubernetes", PlatformGoodall, edit(func(c *DeployConfig) {
			c.PipelineParallel = 2
		}), "Ray bootstrap"},
		{"tensor parallel wider than a kubernetes node", PlatformGoodall, edit(func(c *DeployConfig) {
			c.TensorParallel = 4
		}), "goodall nodes hold 2"},
		{"gateway route policy on kubernetes", PlatformCEE, edit(func(c *DeployConfig) {
			c.Replicas, c.RoutePolicy = 2, "session"
		}), `RoutePolicy "session" is a setting of the replica-set gateway, and Kubernetes platforms run no gateway`},
		{"slo objective on kubernetes", PlatformCEE, edit(func(c *DeployConfig) {
			c.SLOTargetP95 = time.Second
		}), "SLOTargetP95 is a setting of the replica-set gateway, and Kubernetes platforms run no gateway"},
		{"ttft target on kubernetes", PlatformGoodall, edit(func(c *DeployConfig) {
			c.TTFTTarget = 200 * time.Millisecond
		}), "TTFTTarget is a setting of the replica-set gateway, and Kubernetes platforms run no gateway"},
		{"priority class on kubernetes", PlatformCEE, edit(func(c *DeployConfig) {
			c.PriorityClass = "batch"
		}), "PriorityClass is a setting of the replica-set gateway, and Kubernetes platforms run no gateway"},
		{"nil model", PlatformHops, edit(func(c *DeployConfig) { c.Model = nil }), "Model is required"},
		{"unknown platform", Platform{Name: "frontier", Kind: "slurm"}, base, "unknown platform"},
	}
	run(t, s, func(p *sim.Proc) {
		for _, c := range cases {
			_, planErr := d.Plan(VLLMPackage(), c.pf, c.cfg)
			_, deployErr := d.Deploy(p, VLLMPackage(), c.pf, c.cfg)
			if planErr == nil || deployErr == nil {
				t.Errorf("%s: Plan err = %v, Deploy err = %v; want both to refuse", c.name, planErr, deployErr)
				continue
			}
			if planErr.Error() != deployErr.Error() || !strings.Contains(planErr.Error(), c.want) {
				t.Errorf("%s: Plan err %q, Deploy err %q; want the same error, mentioning %q", c.name, planErr, deployErr, c.want)
			}
		}
	})
}

// TestEveryPlatformGetsEveryEngineFlag: one DeployConfig configures the
// same engine on Hops (Podman), El Dorado (Apptainer) and Goodall (Helm),
// because every artifact carries the same engine flags.
func TestEveryPlatformGetsEveryEngineFlag(t *testing.T) {
	s, d := newSite(t)
	cfg := DeployConfig{
		Model: llm.Llama318B, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
		DisablePrefixCache: true, CPUOffloadBlocks: 64, KVTransferMicros: 250, NumGPUBlocksOverride: 2000,
	}
	type engineView struct {
		noPrefixCache                                   bool
		tp, pp, maxModelLen, offload, xfer, ovr, blocks int
	}
	run(t, s, func(p *sim.Proc) {
		want := engineView{true, 1, 1, 8192, 64, 250, 2000, 2000}
		for _, pf := range []Platform{PlatformHops, PlatformEldorado, PlatformGoodall} {
			if err := d.SeedModelOn(p, pf, cfg.Model); err != nil {
				t.Fatalf("%s: seed: %v", pf.Name, err)
			}
			dp, err := d.Deploy(p, VLLMPackage(), pf, cfg)
			if err != nil {
				t.Fatalf("%s: deploy: %v", pf.Name, err)
			}
			e := dp.Engine()
			if e == nil {
				t.Fatalf("%s: no engine", pf.Name)
			}
			c := e.Config()
			got := engineView{c.NoPrefixCache, c.TensorParallel, c.PipelineParallel, c.MaxModelLen,
				c.CPUOffloadBlocks, c.KVTransferMicros, c.NumGPUBlocksOverride, e.KV().TotalBlocks()}
			if got != want {
				t.Errorf("%s engine = %+v, want %+v", pf.Name, got, want)
			}
			dp.Stop()
		}
	})
}

func TestReplicaSetRejectsPersistent(t *testing.T) {
	s, d := newSite(t)
	run(t, s, func(p *sim.Proc) {
		_, err := d.Deploy(p, VLLMPackage(), PlatformHops, DeployConfig{
			Model: llm.Llama318B, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
			Replicas: 2, Persistent: true,
		})
		if err == nil || !strings.Contains(err.Error(), "exclusive") {
			t.Fatalf("err = %v", err)
		}
		_, err = d.Deploy(p, VLLMPackage(), PlatformHops, DeployConfig{
			Model: llm.Llama318B, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
			Replicas: 2, RoutePolicy: "fastest",
		})
		if err == nil || !strings.Contains(err.Error(), "unknown route policy") {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestReplicaSetPlanNote(t *testing.T) {
	_, d := newSite(t)
	plan, err := d.Plan(VLLMPackage(), PlatformHops, DeployConfig{
		Model: llm.Llama318B, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
		Replicas: 4, RoutePolicy: "least-loaded",
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range plan.Notes {
		if strings.Contains(n, "replica set: 4 instances") && strings.Contains(n, "least-loaded") {
			found = true
		}
	}
	if !found {
		t.Fatalf("plan notes missing replica-set rendering: %v", plan.Notes)
	}
}

func TestSSHTunnelAccessPath(t *testing.T) {
	// §3.3's single-user path: the user tunnels through the login node to
	// the compute node running their service.
	s, d := newSite(t)
	model := llm.Llama318B
	run(t, s, func(p *sim.Proc) {
		if err := SeedModel(p, s.HopsLustre, model); err != nil {
			t.Fatal(err)
		}
		dp, err := d.Deploy(p, VLLMPackage(), PlatformHops, DeployConfig{
			Model: model, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer dp.Stop()
		node := strings.TrimSuffix(strings.TrimPrefix(dp.BaseURL, "http://"), ":8000")
		tun := &ingress.SSHTunnel{
			Net: s.Net, LocalHost: "laptop", LocalPort: 8000,
			LoginHost: site.LoginHops, TargetHost: node, TargetPort: 8000,
		}
		if err := tun.Open(); err != nil {
			t.Fatal(err)
		}
		defer tun.Close()
		if want := "ssh -L 8000:" + node + ":8000 -N -f " + site.LoginHops; tun.CommandLine() != want {
			t.Fatalf("tunnel command = %q, want %q", tun.CommandLine(), want)
		}
		// The laptop talks to "localhost" through the tunnel.
		laptop := &vhttp.Client{Net: s.Net, From: "laptop"}
		resp, err := laptop.Get(p, "http://laptop:8000/v1/models")
		if err != nil || resp.Status != 200 {
			t.Fatalf("tunneled request: %v %d", err, resp.Status)
		}
		if !strings.Contains(string(resp.Body), model.Name) {
			t.Fatalf("models over tunnel = %s", resp.Body)
		}
		// When the service dies, the tunnel yields 502 — unlike Kubernetes,
		// nothing self-heals on this path.
		dp.Engine().Crash(errNodeDown)
		resp, err = laptop.Get(p, "http://laptop:8000/v1/models")
		if err != nil || resp.Status != 502 {
			t.Fatalf("post-crash tunnel: %v %d", err, resp.Status)
		}
	})
}

func TestCaLPersistentOutlivesJobLimit(t *testing.T) {
	// §2.1/§3.3: batch jobs die at the time limit; CaL services persist.
	s, d := newSite(t)
	model := llm.Llama318B
	run(t, s, func(p *sim.Proc) {
		if err := SeedModel(p, s.HopsLustre, model); err != nil {
			t.Fatal(err)
		}
		batch, err := d.Deploy(p, VLLMPackage(), PlatformHops, DeployConfig{
			Model: model, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		cal, err := d.Deploy(p, VLLMPackage(), PlatformHops, DeployConfig{
			Model: model, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
			Persistent: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cal.Stop()
		if cal.ExternalURL == "" || !strings.Contains(cal.ExternalURL, site.CaLGateway) {
			t.Fatalf("CaL external URL = %q", cal.ExternalURL)
		}
		if !batch.Healthy(p) || !cal.Healthy(p) {
			t.Fatal("both services should be healthy initially")
		}
		// Cross the 48h partition limit.
		p.Sleep(49 * time.Hour)
		if batch.Healthy(p) {
			t.Fatal("batch service should have died at the job time limit")
		}
		if batch.job.State != slurm.StateTimeout {
			t.Fatalf("batch job state = %s", batch.job.State)
		}
		if !cal.Healthy(p) {
			t.Fatal("CaL service should survive the time limit")
		}
		// External access through the gateway works.
		client := &vhttp.Client{Net: s.Net, From: "laptop"}
		resp, err := client.Get(p, cal.ExternalURL+"/health")
		if err != nil || resp.Status != 200 {
			t.Fatalf("CaL gateway: %v %d", err, resp.Status)
		}
	})
}

// TestCaLRelaunch: a Compute-as-Login deployment whose engine died comes
// back by relaunching its own container, with its deployed spec, on its
// node; the deployment then serves from, and stops, the new container.
// A batch deployment has no container of its own to relaunch.
func TestCaLRelaunch(t *testing.T) {
	s, d := newSite(t)
	model := llm.Llama318B
	run(t, s, func(p *sim.Proc) {
		if err := SeedModel(p, s.HopsLustre, model); err != nil {
			t.Fatal(err)
		}
		cfg := DeployConfig{Model: model, TensorParallel: 1, MaxModelLen: 8192, Offline: true}
		batch, err := d.Deploy(p, VLLMPackage(), PlatformHops, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer batch.Stop()
		if err := batch.Relaunch(p); err == nil {
			t.Fatal("Relaunch of a batch deployment succeeded")
		}
		cfg.Persistent = true
		cal, err := d.Deploy(p, VLLMPackage(), PlatformHops, cfg)
		if err != nil {
			t.Fatal(err)
		}
		first := cal.containers[0]
		old := cal.Engine()
		old.Crash(fmt.Errorf("memory leak bug: OOM"))
		p.Sleep(time.Minute)
		if cal.Healthy(p) {
			t.Fatal("CaL service healthy after its engine crashed")
		}
		if err := cal.Relaunch(p); err != nil {
			t.Fatalf("Relaunch: %v", err)
		}
		if len(cal.containers) != 2 {
			t.Fatalf("%d containers after a relaunch, want 2", len(cal.containers))
		}
		next := cal.containers[1]
		if next.Node != first.Node || !slices.Equal(next.Spec.Args, first.Spec.Args) || next.Spec.Image != first.Spec.Image {
			t.Fatalf("relaunched %s %v on %s, deployed %s %v on %s",
				next.Spec.Image, next.Spec.Args, next.Node.Name, first.Spec.Image, first.Spec.Args, first.Node.Name)
		}
		for i := 0; i < 60 && !cal.Healthy(p); i++ {
			p.Sleep(time.Minute)
		}
		if !cal.Healthy(p) {
			t.Fatal("CaL service not healthy within an hour of its relaunch")
		}
		if e := cal.Engine(); e == nil || e == old {
			t.Fatalf("Engine() = %p after the relaunch, the crashed one was %p", e, old)
		}
		cal.Stop()
		if cal.Healthy(p) {
			t.Fatal("Stop left the relaunched service up")
		}
	})
}

func TestReplicaSetDeploymentOnFlux(t *testing.T) {
	// The replica-set path on the Flux platform (El Dorado): three Apptainer
	// instances on distinct nodes, each a separate Flux allocation, behind
	// one gateway endpoint; Stop releases the allocations via `flux cancel`.
	s, d := newSite(t)
	model := llm.Llama318B
	run(t, s, func(p *sim.Proc) {
		if err := SeedModel(p, s.EldoradoLustre, model); err != nil {
			t.Fatal(err)
		}
		dp, err := d.Deploy(p, VLLMPackage(), PlatformEldorado, DeployConfig{
			Model: model, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
			Replicas: 3, RoutePolicy: "least-loaded",
		})
		if err != nil {
			t.Fatalf("Deploy: %v", err)
		}
		reps := dp.Replicas()
		if len(reps) != 3 {
			t.Fatalf("replicas = %d, want 3", len(reps))
		}
		hosts := map[string]bool{}
		for _, r := range reps {
			if !r.Healthy(p) {
				t.Fatalf("replica %s not healthy", r.BaseURL)
			}
			if r.fluxJob == nil || r.fluxJob.State != flux.StateRun {
				t.Fatalf("replica %s should hold a running Flux allocation", r.BaseURL)
			}
			hosts[r.BaseURL] = true
		}
		if len(hosts) != 3 {
			t.Fatalf("replicas share nodes: %v", hosts)
		}
		gw := dp.Gateway()
		if gw == nil || dp.BaseURL != gw.Endpoint() {
			t.Fatalf("BaseURL %q should be the gateway endpoint", dp.BaseURL)
		}
		if len(gw.Backends()) != 3 || gw.HealthyBackends() != 3 {
			t.Fatalf("gateway wiring: %d backends, %d healthy", len(gw.Backends()), gw.HealthyBackends())
		}
		// A chat completion flows through the virtual endpoint.
		client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
		body, _ := json.Marshal(vllm.ChatRequest{
			Messages: []vllm.ChatMessage{{Role: "user", Content: "hello"}}, MaxTokens: 16,
		})
		resp, err := client.Do(p, &vhttp.Request{
			Method: "POST", URL: dp.BaseURL + "/v1/chat/completions", Body: body,
		})
		if err != nil || resp.Status != 200 {
			t.Fatalf("chat through flux gateway: %v %d", err, resp.Status)
		}
		// Teardown cancels the Flux allocations, freeing the nodes.
		dp.Stop()
		p.Sleep(time.Minute)
		for _, r := range reps {
			if r.fluxJob.State == flux.StateRun || r.fluxJob.State == flux.StateSched {
				t.Fatalf("flux job %s still %s after Stop", r.fluxJob.ID, r.fluxJob.State)
			}
		}
	})
}

func TestAutoscaleElasticReplicaSet(t *testing.T) {
	// The elastic serving path end to end: sustained load grows the set,
	// idleness drains it to zero (scale-to-zero), and a request against
	// zero replicas is held at the gateway through the cold start — with no
	// user-visible failures across any scale event.
	s, d := newSite(t)
	model := llm.Llama318B
	run(t, s, func(p *sim.Proc) {
		if err := SeedModel(p, s.HopsLustre, model); err != nil {
			t.Fatal(err)
		}
		dp, err := d.Deploy(p, VLLMPackage(), PlatformHops, DeployConfig{
			Model: model, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
			Replicas: 1, RoutePolicy: "least-loaded",
			Autoscale: &autoscale.Policy{
				MinReplicas: 0, MaxReplicas: 3, TargetQueueDepth: 6,
				Interval: 15 * time.Second, ScaleUpCooldown: 30 * time.Second,
				ScaleDownCooldown: 2 * time.Minute, ScaleToZeroAfter: 5 * time.Minute,
			},
		})
		if err != nil {
			t.Fatalf("Deploy: %v", err)
		}
		defer dp.Stop()
		if dp.Autoscaler() == nil || dp.CurrentReplicas() != 1 {
			t.Fatalf("autoscaled deploy: autoscaler=%v replicas=%d", dp.Autoscaler(), dp.CurrentReplicas())
		}

		// Sustained closed-loop load from 24 workers.
		client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
		stop := false
		var failures int
		for w := 0; w < 24; w++ {
			p.Engine().Go(fmt.Sprintf("load-%d", w), func(wp *sim.Proc) {
				body, _ := json.Marshal(vllm.ChatRequest{
					Messages: []vllm.ChatMessage{{Role: "user", Content: "sustained load"}}, MaxTokens: 256,
				})
				for !stop {
					resp, err := client.Do(wp, &vhttp.Request{
						Method: "POST", URL: dp.BaseURL + "/v1/chat/completions", Body: body,
					})
					if err != nil || resp.Status != 200 {
						failures++
					}
				}
			})
		}
		for i := 0; i < 240 && dp.CurrentReplicas() < 2; i++ {
			p.Sleep(15 * time.Second)
		}
		if dp.CurrentReplicas() < 2 {
			t.Fatalf("set never scaled up under load: %d replicas, status %+v",
				dp.CurrentReplicas(), dp.Autoscaler().Status())
		}
		stop = true

		// Idle out: the set must drain all the way to zero.
		for i := 0; i < 240 && dp.CurrentReplicas() > 0; i++ {
			p.Sleep(30 * time.Second)
		}
		if dp.CurrentReplicas() != 0 {
			t.Fatalf("set never scaled to zero: %d replicas, status %+v",
				dp.CurrentReplicas(), dp.Autoscaler().Status())
		}

		// Cold start: one request against zero replicas queues at the
		// gateway and completes once the controller brings a replica back.
		body, _ := json.Marshal(vllm.ChatRequest{
			Messages: []vllm.ChatMessage{{Role: "user", Content: "wake up"}}, MaxTokens: 16,
		})
		resp, err := client.Do(p, &vhttp.Request{
			Method: "POST", URL: dp.BaseURL + "/v1/chat/completions", Body: body,
		})
		if err != nil || resp.Status != 200 {
			t.Fatalf("cold-start request: %v %d", err, resp.Status)
		}
		if dp.CurrentReplicas() < 1 {
			t.Fatalf("replicas after cold start = %d", dp.CurrentReplicas())
		}
		st := dp.Gateway().Stats()
		if st.Held == 0 {
			t.Fatal("cold-start request was never held at the gateway")
		}
		if failures > 0 || st.Errors > 0 {
			t.Fatalf("user-visible failures across scale events: workers=%d gateway errors=%d", failures, st.Errors)
		}
		ast := dp.Autoscaler().Status()
		if ast.ScaleUps < 2 || ast.ScaleDowns < 1 {
			t.Fatalf("autoscaler status = %+v, want >=2 scale-ups (load + cold start) and >=1 scale-down", ast)
		}
	})
}

func TestScaleToManual(t *testing.T) {
	// ScaleTo/RemoveReplica as a user-facing API, no autoscaler.
	s, d := newSite(t)
	model := llm.Llama318B
	run(t, s, func(p *sim.Proc) {
		if err := SeedModel(p, s.HopsLustre, model); err != nil {
			t.Fatal(err)
		}
		dp, err := d.Deploy(p, VLLMPackage(), PlatformHops, DeployConfig{
			Model: model, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
			Replicas: 2, RoutePolicy: "round-robin",
		})
		if err != nil {
			t.Fatalf("Deploy: %v", err)
		}
		defer dp.Stop()
		if err := dp.ScaleTo(p, 4); err != nil {
			t.Fatalf("ScaleTo(4): %v", err)
		}
		if dp.CurrentReplicas() != 4 || dp.Gateway().HealthyBackends() != 4 {
			t.Fatalf("after ScaleTo(4): %d replicas, %d healthy backends",
				dp.CurrentReplicas(), dp.Gateway().HealthyBackends())
		}
		hosts := map[string]bool{}
		for _, r := range dp.Replicas() {
			hosts[r.BaseURL] = true
			if r.job == nil {
				t.Fatalf("replica %s missing its Slurm job handle", r.BaseURL)
			}
		}
		if len(hosts) != 4 {
			t.Fatalf("replicas share nodes: %v", hosts)
		}
		if err := dp.ScaleTo(p, 1); err != nil {
			t.Fatalf("ScaleTo(1): %v", err)
		}
		if dp.CurrentReplicas() != 1 || dp.Gateway().HealthyBackends() != 1 {
			t.Fatalf("after ScaleTo(1): %d replicas, %d healthy backends",
				dp.CurrentReplicas(), dp.Gateway().HealthyBackends())
		}
		// Scaled-down jobs are cancelled, freeing their nodes.
		p.Sleep(time.Minute)
		if got := len(s.Hops.Running()); got != 1 {
			t.Fatalf("running slurm jobs after scale-down = %d, want 1", got)
		}
		// The survivor still serves through the gateway.
		client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
		if resp, err := client.Get(p, dp.BaseURL+"/v1/models"); err != nil || resp.Status != 200 {
			t.Fatalf("serve after scale-down: %v %v", err, resp)
		}
		// Single-instance deployments cannot scale.
		single, err := d.Deploy(p, VLLMPackage(), PlatformHops, DeployConfig{
			Model: model, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer single.Stop()
		if err := single.ScaleTo(p, 2); err == nil || !strings.Contains(err.Error(), "not a replica-set") {
			t.Fatalf("ScaleTo on single instance: %v", err)
		}
	})
}

func TestScaleToRejectsOversubscription(t *testing.T) {
	// Live growth honours the same fail-fast capacity check as the initial
	// deploy: the small site has 8 hops nodes.
	s, d := newSite(t)
	model := llm.Llama318B
	run(t, s, func(p *sim.Proc) {
		if err := SeedModel(p, s.HopsLustre, model); err != nil {
			t.Fatal(err)
		}
		dp, err := d.Deploy(p, VLLMPackage(), PlatformHops, DeployConfig{
			Model: model, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
			Replicas: 2, RoutePolicy: "round-robin",
		})
		if err != nil {
			t.Fatal(err)
		}
		defer dp.Stop()
		if err := dp.ScaleTo(p, 50); err == nil || !strings.Contains(err.Error(), "replica set needs") {
			t.Fatalf("oversubscribed ScaleTo: %v", err)
		}
		if dp.CurrentReplicas() != 2 {
			t.Fatalf("failed ScaleTo changed the set: %d replicas", dp.CurrentReplicas())
		}
	})
}
