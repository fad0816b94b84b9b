package site

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cruntime"
	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/vhttp"
)

func TestSiteAssembly(t *testing.T) {
	s := New(Options{Small: true, Seed: 1})
	if len(s.HopsNodes) != 8 || len(s.EldoradoNodes) != 8 {
		t.Fatalf("node counts: hops=%d eldo=%d", len(s.HopsNodes), len(s.EldoradoNodes))
	}
	if s.HopsNodes[0].GPUs[0].Model.Name != "H100-SXM-80GB" {
		t.Fatal("hops GPU model wrong")
	}
	if s.EldoradoNodes[0].GPUs[0].Model.Name != "MI300A-128GB" {
		t.Fatal("eldorado GPU model wrong")
	}
	if got := len(s.Goodall.Nodes()); got != 4 {
		t.Fatalf("goodall nodes = %d", got)
	}
	// Both registries carry the production images.
	if s.Quay.Resolve("vllm/vllm-openai:v0.9.1") == nil || s.GitLab.Resolve("rocm/vllm:rocm6.4.1_vllm_0.9.1_20250702") == nil {
		t.Fatal("catalog images missing from registries")
	}
	if s.Quay.Scan("vllm/vllm-openai:v0.9.1") == nil {
		t.Fatal("Quay should scan on push")
	}
	full := New(Options{Seed: 1})
	if len(full.HopsNodes) != 64 {
		t.Fatalf("full site hops = %d", len(full.HopsNodes))
	}
}

func TestAirgapPolicy(t *testing.T) {
	s := New(Options{Small: true, Seed: 1})
	if !s.Net.ReachFn(BuildHost, HubHost) {
		t.Fatal("build host must reach the hub")
	}
	if s.Net.ReachFn("hops01", HubHost) {
		t.Fatal("compute nodes must not reach the hub")
	}
	if !s.Net.ReachFn("hops01", S3Host) {
		t.Fatal("compute nodes must reach S3")
	}
}

func TestRoutingTopology(t *testing.T) {
	s := New(Options{Small: true, Seed: 1})
	// Hops→S3 includes the (slow) route link and the S3 aggregate.
	links := s.Net.RouteFn("hops01", S3Host)
	var ids []string
	for _, l := range links {
		ids = append(ids, l.ID)
	}
	joined := strings.Join(ids, ",")
	if !strings.Contains(joined, "route:hops-s3") || !strings.Contains(joined, "s3:aggregate") {
		t.Fatalf("hops→s3 route = %v", ids)
	}
	// Goodall→S3 skips the Hops route.
	links = s.Net.RouteFn("pod-vllm-1.goodall", S3Host)
	for _, l := range links {
		if l.ID == "route:hops-s3" {
			t.Fatal("goodall traffic must not traverse the hops S3 route")
		}
	}
}

// TestRouteMemo: for every pair of the site's hosts, with the S3 and hub
// names, an off-site host and a pod name among them, the memoized route
// equals a fresh computation and is the same slice on every call, and a
// transfer over it leaves the cached slice as it was.
func TestRouteMemo(t *testing.T) {
	s := New(Options{Small: true, Seed: 1})
	hosts := []string{S3Host, HubHost, "laptop", "pod-vllm-1.goodall"}
	for name := range s.hostNodes {
		hosts = append(hosts, name)
	}
	slices.Sort(hosts)
	for _, from := range hosts {
		for _, to := range hosts {
			got, want := s.Net.RouteFn(from, to), s.computeRoute(from, to)
			if !slices.Equal(got, want) {
				t.Fatalf("route %s→%s = %v, computed afresh %v", from, to, got, want)
			}
			if again := s.Net.RouteFn(from, to); len(got) > 0 && &again[0] != &got[0] {
				t.Fatalf("route %s→%s: a second call built a new slice", from, to)
			}
		}
	}
	// A rate-capped transfer appends a cap link to its route: netsim must
	// copy the route first, or the append could write into the cached
	// slice's spare capacity.
	route := s.Net.RouteFn("hops01", S3Host)
	before := slices.Clone(route[:cap(route)])
	var ok bool
	s.Eng.Go("transfer", func(p *sim.Proc) {
		ok = s.Fabric.Transfer(p, 1<<20, route, netsim.StartOptions{RateCap: netsim.Gbps(1)})
	})
	s.Eng.RunFor(time.Minute)
	if !ok {
		t.Fatal("the transfer over the cached route did not complete")
	}
	if !slices.Equal(route[:cap(route)], before) || !slices.Equal(s.Net.RouteFn("hops01", S3Host), before[:len(route)]) {
		t.Fatalf("transfer changed the cached route: %v, was %v", route[:cap(route)], before)
	}
}

// TestSiteHopAllocBudget: a hop through vhttp.Client.Do on the site's
// network allocates only the parsed URL, as a hop on a bare vhttp.Net does
// (TestClientDoAllocBudget): the route between two hosts is computed once
// and shared by every later hop between them.
func TestSiteHopAllocBudget(t *testing.T) {
	s := New(Options{Small: true, Seed: 1})
	resp := &vhttp.Response{Status: 200, Body: []byte("{}")}
	s.Net.Listen("hops02", 8000, vhttp.ServiceFunc(func(*sim.Proc, *vhttp.Request) *vhttp.Response { return resp }),
		vhttp.ListenOptions{})
	if len(s.Net.RouteFn("hops01", "hops02")) == 0 {
		t.Fatal("hops01→hops02 has no metered route")
	}
	c := &vhttp.Client{Net: s.Net, From: "hops01"}
	req := &vhttp.Request{Method: "POST", Body: []byte(`{"model":"m"}`)}
	var allocs float64
	s.Eng.Go("client", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			req.URL = "http://hops02:8000/v1/chat/completions"
			if got, err := c.Do(p, req); err != nil || got != resp {
				t.Errorf("Do = %v, %v", got, err)
			}
		})
	})
	s.Eng.RunFor(time.Minute)
	if allocs > 1 {
		t.Fatalf("Client.Do on the site: %.1f allocs per hop, budget 1 (the parsed URL)", allocs)
	}
}

func TestS3RoutingFixIsOrderOfMagnitude(t *testing.T) {
	s := New(Options{Small: true, Seed: 1})
	before := s.HopsS3Route.Capacity
	s.FixHopsS3Routing()
	if ratio := s.HopsS3Route.Capacity / before; ratio < 9 || ratio > 11 {
		t.Fatalf("routing fix ratio = %.1f, want ~10", ratio)
	}
}

func TestCrossSiteReplicationWorks(t *testing.T) {
	s := New(Options{Small: true, Seed: 1})
	done := false
	s.Eng.Go("test", func(p *sim.Proc) {
		c := s.S3Client(BuildHost)
		if err := c.CreateBucket(p, "replicated"); err != nil {
			t.Error(err)
		}
		if _, err := c.PutObject(p, "replicated", "obj", 1e9, nil); err != nil {
			t.Error(err)
		}
		done = true
	})
	for i := 0; i < 100 && !done; i++ {
		s.Eng.RunFor(time.Minute)
	}
	s.Eng.RunFor(10 * time.Minute) // drain replication
	if _, err := s.S3Liv.Get("replicated", "obj"); err != nil {
		t.Fatalf("Livermore replica missing: %v", err)
	}
}

// TestContainerizedBenchmark runs the Fig 8 flow: the vllm-bench container
// on a Hops node benchmarking a live deployment over the network.
func TestContainerizedBenchmark(t *testing.T) {
	s := New(Options{Small: true, Seed: 5})
	model := llm.Llama318B
	done := false
	s.Eng.Go("test", func(p *sim.Proc) {
		defer func() { done = true }()
		// Seed weights and deploy manually with Podman on hops01.
		dir := "/models/" + model.Name
		for _, f := range model.RepoFiles() {
			if f.Name == "config.json" {
				s.HopsLustre.WriteContent(dir+"/"+f.Name, []byte(`{"_name_or_path": "`+model.Name+`"}`), p.Now())
				continue
			}
			s.HopsLustre.WriteMeta(dir+"/"+f.Name, f.Size, p.Now())
		}
		pd := &cruntime.Podman{Host: s.Host, DeviceGPUs: true}
		serveSpec := cruntime.Spec{
			Name: "vllm", Image: "vllm/vllm-openai:v0.9.1",
			Env: map[string]string{"HF_HUB_OFFLINE": "1", "HF_HOME": "/root/.cache/huggingface"},
			Mounts: []cruntime.Mount{{
				FS: s.HopsLustre, HostPath: "/models", CtrPath: "/vllm-workspace/models",
			}},
			WorkingDir:  "/vllm-workspace/models",
			Entrypoint:  []string{"vllm"},
			Args:        []string{"serve", model.Name, "--tensor_parallel_size=1", "--max-model-len=8192"},
			GPUs:        cruntime.GPURequest{All: true},
			NetworkHost: true,
		}
		server, err := pd.Run(p, s.HopsNodes[0], serveSpec)
		if err != nil {
			t.Errorf("serve: %v", err)
			return
		}
		ready := p.Engine().NewSignal()
		server.ReadySignal().OnFire(ready.Fire)
		server.Done().OnFire(ready.Fire)
		p.Wait(ready)
		if !server.Ready() {
			t.Errorf("server failed: %v\n%v", server.ExitErr, server.Logs())
			return
		}
		defer server.Stop()

		// The benchmark container on another node (Fig 8's command shape).
		benchSpec := cruntime.Spec{
			Name: "vllm-bench", Image: "vllm/vllm-bench:v0.9.1",
			NetworkHost: true, IPCHost: true,
			Args: []string{
				"--backend", "openai-chat",
				"--endpoint", "/v1/chat/completions",
				"--base-url", "http://hops01:8000",
				"--dataset-name=sharegpt",
				"--model", model.Name,
				"--max-concurrency", "8",
				"--num-prompts", "100",
			},
		}
		runner, err := pd.Run(p, s.HopsNodes[1], benchSpec)
		if err != nil {
			t.Errorf("bench: %v", err)
			return
		}
		p.Wait(runner.Done())
		if runner.ExitErr != nil {
			t.Errorf("bench failed: %v\n%v", runner.ExitErr, runner.Logs())
			return
		}
		prog := runner.Program.(*bench.ContainerProgram)
		if prog.Result == nil || prog.Result.Completed != 100 {
			t.Errorf("bench result = %+v", prog.Result)
			return
		}
		if prog.Result.OutputThroughput < 100 {
			t.Errorf("throughput = %.1f, implausibly low", prog.Result.OutputThroughput)
		}
		logs := strings.Join(runner.Logs(), "\n")
		if !strings.Contains(logs, "Serving Benchmark Result") {
			t.Errorf("bench logs missing summary:\n%s", logs)
		}
	})
	for i := 0; i < 10000 && !done; i++ {
		s.Eng.RunFor(time.Minute)
	}
	if !done {
		t.Fatal("did not converge")
	}
}

func TestCaLProvisioning(t *testing.T) {
	s := New(Options{Small: true, Seed: 1})
	n, err := s.ProvisionCaL("hops03", 10080, 8000)
	if err != nil || n.Name != "hops03" {
		t.Fatalf("provision: %v %v", n, err)
	}
	// Node removed from scheduling.
	for _, free := range s.Hops.FreeNodes("batch") {
		if free.Name == "hops03" {
			t.Fatal("CaL node still schedulable")
		}
	}
	// Route exists on the gateway.
	if got := len(s.CaL.Routes()); got != 1 {
		t.Fatalf("routes = %d", got)
	}
	// Double provisioning the same port fails and rolls back the reservation.
	if _, err := s.ProvisionCaL("hops04", 10080, 8000); err == nil {
		t.Fatal("duplicate port must fail")
	}
	for _, free := range s.Hops.FreeNodes("batch") {
		if free.Name == "hops04" {
			return // rolled back, still free
		}
	}
	t.Fatal("failed provisioning leaked the reservation")
}

func TestHubRequiresInternetHost(t *testing.T) {
	s := New(Options{Small: true, Seed: 1})
	done := false
	var errFromCompute error
	s.Eng.Go("test", func(p *sim.Proc) {
		client := &vhttp.Client{Net: s.Net, From: "hops01"}
		_, errFromCompute = client.Get(p, "http://"+HubHost+"/api/models")
		done = true
	})
	for i := 0; i < 100 && !done; i++ {
		s.Eng.RunFor(time.Second)
	}
	if errFromCompute == nil || !strings.Contains(errFromCompute.Error(), "unreachable") {
		t.Fatalf("err = %v, want firewall block", errFromCompute)
	}
}
