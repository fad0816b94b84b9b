// Command genaictl is the unified container-deployment tool the paper's §4
// proposes: one interface that plans, executes and benchmarks GenAI service
// deployments across HPC (Slurm/Flux with Podman/Apptainer) and Kubernetes
// platforms, resolving runtime, platform, and site differences from package
// metadata.
//
// Everything runs against the simulated converged site, so every command is
// reproducible on a laptop:
//
//	genaictl packages                         # list deployable packages
//	genaictl platforms                        # list platforms
//	genaictl plan  -platform hops   -model meta-llama/Llama-4-Scout-17B-16E-Instruct -tp 4 -max-model-len 65536
//	genaictl plan  -platform eldorado ...     # same package, Apptainer+ROCm plan
//	genaictl plan  -platform cee      ...     # same package, Helm values
//	genaictl deploy -platform hops  -model meta-llama/Llama-3.1-8B-Instruct -tp 1 -max-model-len 8192 -query "hello"
//	genaictl deploy -platform hops  -tp 1 -max-model-len 8192 -autoscale -pool-nodes 4 \
//	    -models "chat=meta-llama/Llama-3.1-8B-Instruct:2,code=Qwen/Qwen2.5-Coder-7B-Instruct:1" -query "hello"
//	genaictl bench -platform eldorado -concurrencies 1,16,256 -num-prompts 200   # Fig 8 sweep
//	genaictl bench -replicas 2 -route-policy session -workload diurnal-chat -artifact BENCH_workload.json
//	genaictl fetch -model meta-llama/Llama-3.1-8B-Instruct    # hub → S3 workflow
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/autoscale"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ingress"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/sharegpt"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vhttp"
	"repro/internal/vllm"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	switch cmd {
	case "packages":
		pkg := core.VLLMPackage()
		fmt.Printf("%-8s %s\n", pkg.Name, pkg.Description)
		for _, arch := range slices.Sorted(maps.Keys(pkg.ImageByArch)) {
			fmt.Printf("         %-6s → %s\n", arch, pkg.ImageByArch[arch])
		}
	case "platforms":
		for _, pf := range core.Platforms() {
			fmt.Printf("%-10s kind=%s\n", pf.Name, pf.Kind)
		}
	case "models":
		for _, m := range llm.Catalog() {
			fmt.Printf("%-60s %6.1f GiB (%s)\n", m.Name, float64(m.WeightBytes())/(1<<30), m.Quant)
		}
	case "plan":
		runPlan(args)
	case "deploy":
		runDeploy(args)
	case "bench":
		runBench(args)
	case "trace":
		runTrace(args)
	case "observe":
		runObserve(args)
	case "fetch":
		runFetch(args)
	case "experiments":
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `genaictl — converged GenAI service deployment (simulated site)

commands:
  packages      list deployable container packages
  platforms     list target platforms
  models        list known models
  plan          render the deployment artifact for a platform
  deploy        deploy on the simulated site and optionally send a query
  bench         deploy, then sweep request concurrency or run an open-loop workload
  trace         deploy, send one traced request, print its stage waterfall
  observe       deploy, apply brief load, print the /observe fleet snapshot
  fetch         run the model download → object storage workflow
  experiments   list reproducible experiments (see cmd/figures)`)
}

// deployment is what the deployment flags describe. deployFlags binds
// each flag to a field, most of them to the DeployConfig's, and resolve
// checks them and finds the platform and the model, or a fleet's members;
// cfg is then the DeployConfig of the one model or, for a fleet, the base
// every member's config starts from (core.SeedFleet sets each member's
// model, alias and per-model options on a copy).
type deployment struct {
	cfg                        core.DeployConfig
	policy                     autoscale.Policy // cfg.Autoscale under -autoscale
	platform, model, fleetSpec string
	elastic, prefixCache       bool
	pool                       int

	pf      core.Platform
	members []core.FleetFlagEntry // nil for a single deployment
}

// deployFlags declares the deployment flags plan, deploy, bench, trace
// and observe share.
func deployFlags(fs *flag.FlagSet) *deployment {
	dep := &deployment{cfg: core.DeployConfig{Offline: true}}
	fs.StringVar(&dep.platform, "platform", "hops", "target platform (hops, eldorado, goodall, cee)")
	fs.StringVar(&dep.model, "model", llm.Scout.Name, "model name")
	fs.IntVar(&dep.cfg.TensorParallel, "tp", 4, "tensor parallel size")
	fs.IntVar(&dep.cfg.PipelineParallel, "pp", 1, "pipeline parallel size (>1 = multi-node via Ray)")
	fs.IntVar(&dep.cfg.MaxModelLen, "max-model-len", 65536, "context length limit")
	fs.BoolVar(&dep.cfg.Persistent, "persistent", false, "Compute-as-Login persistent service on a Slurm platform (hops)")
	fs.IntVar(&dep.cfg.Replicas, "replicas", 1, "engine instances behind one endpoint (>1 = replica set + gateway)")
	fs.StringVar(&dep.cfg.RoutePolicy, "route-policy", "round-robin", "replica-set routing: round-robin, least-loaded, session (KV-cache affinity on the request's session key), prefix (session affinity plus sketch-based cache-aware placement)")
	fs.BoolVar(&dep.elastic, "autoscale", false, "elastically resize the replica set from gateway load (HPC)")
	fs.IntVar(&dep.policy.MinReplicas, "min-replicas", 0, "autoscale floor (0 = scale to zero when idle)")
	fs.IntVar(&dep.policy.MaxReplicas, "max-replicas", 4, "autoscale ceiling")
	fs.IntVar(&dep.policy.TargetQueueDepth, "target-queue-depth", 0, "autoscale per-replica queue target (0 = default)")
	fs.DurationVar(&dep.cfg.SLOTargetP95, "slo-p95", 0, "p95 latency objective: shed batch-class requests while the gateway's rolling p95 breaches it (0 = off)")
	fs.DurationVar(&dep.cfg.TTFTTarget, "ttft-target", 0, "time-to-first-token objective stamped onto requests for the engine's deadline scheduler; batch class gets a relaxed multiple (0 = fall back to -slo-p95)")
	fs.StringVar(&dep.cfg.PriorityClass, "priority", "", "default priority class for unlabeled requests: interactive (default) or batch")
	fs.StringVar(&dep.fleetSpec, "models", "", "multi-model fleet spec: alias=hf-name[:weight][:p95=dur][:ttft=dur][:class=name][:policy=name],... (e.g. \"chat=meta-llama/Llama-3.1-8B-Instruct:2:p95=30s,code=Qwen/Qwen2.5-Coder-7B-Instruct:1:class=batch\"); deploy and bench only")
	fs.IntVar(&dep.pool, "pool-nodes", 0, "shared node pool arbitrated across the fleet's models (0 = no arbitration)")
	fs.BoolVar(&dep.prefixCache, "prefix-cache", true, "automatic prefix caching in the engine (vLLM --enable-prefix-caching); multi-turn sessions routed to their replica skip cached prefill")
	fs.IntVar(&dep.cfg.CPUOffloadBlocks, "cpu-offload-blocks", 0, "host-memory KV tier capacity in blocks per replica (vLLM --cpu-offload-blocks); evicted prefix blocks demote to host memory and re-promote on a hit instead of re-prefilling (0 = off)")
	fs.IntVar(&dep.cfg.KVTransferMicros, "kv-transfer-micros", 0, "host-to-GPU KV promotion cost per block in microseconds (0 = engine default)")
	fs.IntVar(&dep.cfg.NumGPUBlocksOverride, "gpu-blocks-override", 0, "pin the GPU KV cache to this many blocks (vLLM --num-gpu-blocks-override); small values force eviction to exercise the host tier (0 = profile-derived)")
	return dep
}

// resolve rejects out-of-range flag values and resolves the platform and
// the model or, when the command deploys fleets and -models is set, the
// fleet's members. Plan and Deploy check the route policy, the priority
// class and the autoscale bounds.
func (dep *deployment) resolve(fleets bool) (err error) {
	if dep.cfg.Replicas < 1 {
		return fmt.Errorf("-replicas must be at least 1 (got %d)", dep.cfg.Replicas)
	}
	if dep.cfg.SLOTargetP95 < 0 {
		return fmt.Errorf("-slo-p95 must be >= 0 (got %s)", dep.cfg.SLOTargetP95)
	}
	if dep.cfg.TTFTTarget < 0 {
		return fmt.Errorf("-ttft-target must be >= 0 (got %s)", dep.cfg.TTFTTarget)
	}
	if dep.pf, err = core.PlatformByName(dep.platform); err != nil {
		return err
	}
	if dep.elastic {
		dep.cfg.Autoscale = &dep.policy
	}
	dep.cfg.DisablePrefixCache = !dep.prefixCache
	if fleets && dep.fleetSpec != "" {
		dep.members, err = core.ParseFleetFlag(dep.fleetSpec)
	} else {
		dep.cfg.Model, err = llm.ByName(dep.model)
	}
	return err
}

// served is a live deployment as the commands drive it: one model's
// instance or replica set, or a fleet of them behind one routing endpoint.
type served struct {
	url   string
	dp    *core.Deployment // nil for a fleet
	fleet *core.Fleet      // nil for a single deployment
}

// deploy stages the model weights and deploys: one model (SeedModelOn and
// Deploy) or every fleet member behind one router (SeedFleet and
// DeployFleet). took is the deploy time, the staging excluded.
func (dep *deployment) deploy(p *sim.Proc, d *core.Deployer) (sv served, took time.Duration, err error) {
	if dep.members == nil {
		if err = d.SeedModelOn(p, dep.pf, dep.cfg.Model); err != nil {
			return sv, 0, err
		}
		start := p.Now()
		if sv.dp, err = d.Deploy(p, core.VLLMPackage(), dep.pf, dep.cfg); err != nil {
			return sv, 0, err
		}
		sv.url = sv.dp.BaseURL
		return sv, p.Now().Sub(start), nil
	}
	models, err := core.SeedFleet(p, d, dep.pf, dep.cfg, dep.members)
	if err != nil {
		return sv, 0, err
	}
	start := p.Now()
	if sv.fleet, err = d.DeployFleet(p, core.VLLMPackage(), dep.pf, core.FleetConfig{PoolNodes: dep.pool}, models); err != nil {
		return sv, 0, err
	}
	sv.url = sv.fleet.BaseURL
	return sv, p.Now().Sub(start), nil
}

func (sv served) stop() {
	if sv.fleet != nil {
		sv.fleet.Stop()
	} else {
		sv.dp.Stop()
	}
}

// models lists the model names a client sends to the endpoint: each fleet
// member's route name, or "" for a single deployment's one model.
func (sv served) models() []string {
	if sv.fleet != nil {
		return sv.fleet.Models()
	}
	return []string{""}
}

// gateway returns the gateway serving a name models lists (nil for a
// single bare engine).
func (sv served) gateway(model string) *ingress.Gateway {
	if sv.fleet != nil {
		return sv.fleet.Deployment(model).Gateway()
	}
	return sv.dp.Gateway()
}

// reply is what a client saw of one chat completion.
type reply struct {
	streamed bool
	ttft     time.Duration // arrival of the first streamed delta
	tokens   int           // deltas streamed, or a buffered answer's completion tokens
	took     time.Duration
}

// ask sends one chat completion to the endpoint at url and reads the whole
// answer, a streamed one chunk by chunk.
func ask(p *sim.Proc, c *vhttp.Client, url string, req vllm.ChatRequest, header map[string]string) (reply, error) {
	body, _ := json.Marshal(req)
	t0 := p.Now()
	resp, err := c.Do(p, &vhttp.Request{Method: "POST", URL: url + "/v1/chat/completions", Body: body, Header: header})
	if err != nil {
		return reply{}, err
	}
	if resp.Stream == nil {
		// An error envelope decodes to zero completion tokens.
		var cr vllm.ChatResponse
		_ = json.Unmarshal(resp.Body, &cr)
		return reply{tokens: cr.Usage.CompletionTokens, took: p.Now().Sub(t0)}, nil
	}
	r := reply{streamed: true}
	for {
		chunk, ok := resp.Stream.Next(p)
		if !ok {
			break
		}
		if payload, isEvent := vllm.ParseSSE(chunk.Data); isEvent && string(payload) != "[DONE]" {
			if r.tokens == 0 {
				r.ttft = p.Now().Sub(t0)
			}
			r.tokens++
		}
	}
	if err := resp.Stream.Err(); err != nil {
		return reply{}, fmt.Errorf("stream truncated: %w", err)
	}
	r.took = p.Now().Sub(t0)
	return r, nil
}

// loginClient is a client on the site's login node, where users run
// their tools.
func loginClient(d *core.Deployer) *vhttp.Client {
	return &vhttp.Client{Net: d.Site.Net, From: site.LoginHops}
}

func runPlan(args []string) {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	dep := deployFlags(fs)
	fs.Parse(args)
	fatalIf(dep.resolve(false))
	d := core.NewDeployer(site.New(site.Options{Small: true, Seed: 1}))
	plan, err := d.Plan(core.VLLMPackage(), dep.pf, dep.cfg)
	fatalIf(err)
	fmt.Printf("# platform: %s   runtime: %s   image: %s\n", plan.Platform.Name, plan.Runtime, plan.Image)
	fmt.Println(plan.Artifact)
	for _, n := range plan.Notes {
		fmt.Println("# note:", n)
	}
}

func runDeploy(args []string) {
	fs := flag.NewFlagSet("deploy", flag.ExitOnError)
	dep := deployFlags(fs)
	prompt := fs.String("query", "", "send one chat completion after deploying (to every model of a fleet)")
	stream := fs.Bool("stream", false, "stream the -query response over SSE, reporting time to first token")
	fs.Parse(args)
	fatalIf(dep.resolve(true))
	fatalIf(run(1, func(p *sim.Proc, d *core.Deployer) error {
		sv, took, err := dep.deploy(p, d)
		if err != nil {
			return err
		}
		defer sv.stop()
		if fl := sv.fleet; fl != nil {
			fmt.Printf("deployed %d-model fleet on %s in %s (simulated)\n", len(fl.Models()), dep.pf.Name, took.Round(time.Second))
			fmt.Printf("  endpoint: %s (routes on the request's `model` field)\n", sv.url)
			if dep.pool > 0 {
				fmt.Printf("  pool:     %d nodes shared across the fleet\n", dep.pool)
			}
			for _, name := range fl.Models() {
				fmt.Printf("  model %-40s %d replicas (%s routing)\n", name, fl.Deployment(name).CurrentReplicas(), sv.gateway(name).Policy)
			}
		} else {
			fmt.Printf("deployed %s on %s in %s (simulated)\n", dep.cfg.Model.Short, dep.pf.Name, took.Round(time.Second))
			fmt.Printf("  endpoint: %s\n", sv.url)
			if ext := sv.dp.ExternalURL; ext != "" && ext != sv.url {
				fmt.Printf("  external: %s\n", ext)
			}
			if gw := sv.dp.Gateway(); gw != nil {
				fmt.Printf("  replicas: %d (%s routing)\n", len(sv.dp.Replicas()), gw.Policy)
				for _, r := range sv.dp.Replicas() {
					fmt.Printf("    - %s\n", r.BaseURL)
				}
				if pol := dep.cfg.Autoscale; pol != nil {
					resolved := pol.WithDefaults()
					fmt.Printf("  autoscale: %d–%d replicas, target queue %d/replica, scale-to-zero after %s idle\n",
						resolved.MinReplicas, resolved.MaxReplicas, resolved.TargetQueueDepth, resolved.ScaleToZeroAfter)
				}
				if dep.cfg.SLOTargetP95 > 0 {
					fmt.Printf("  slo: p95 objective %s (batch-class requests shed while breached)\n", dep.cfg.SLOTargetP95)
				}
				if dep.cfg.TTFTTarget > 0 {
					fmt.Printf("  ttft: %s objective (engines admit by deadline urgency)\n", dep.cfg.TTFTTarget)
				}
				if dep.cfg.PriorityClass != "" {
					fmt.Printf("  priority: unlabeled requests default to the %s class\n", dep.cfg.PriorityClass)
				}
			}
		}
		if *prompt == "" {
			return nil
		}
		for _, name := range sv.models() {
			r, err := ask(p, loginClient(d), sv.url, vllm.ChatRequest{
				Model: name, Messages: []vllm.ChatMessage{{Role: "user", Content: *prompt}}, MaxTokens: 64,
				Stream: *stream,
			}, nil)
			if err != nil {
				return err
			}
			label := "  query"
			if name != "" {
				label = fmt.Sprintf("  query %-40s", name)
			}
			if r.streamed {
				fmt.Printf("%s streamed: first token in %s, %d chunks, done in %s\n",
					label, r.ttft.Round(time.Millisecond), r.tokens, r.took.Round(time.Millisecond))
			} else {
				fmt.Printf("%s answered in %s: %d completion tokens\n", label, r.took.Round(time.Millisecond), r.tokens)
			}
		}
		return nil
	}))
}

// runBench is the serving benchmark (the Fig 8 workflow): it deploys, then
// sweeps maximum request concurrency, printing a benchmark_serving.py-style
// summary per point and a gnuplot-ready series, or with -workload or
// -trace-file replays an open-loop workload at its recorded arrival times.
// A fleet's members are swept one after another through the shared routing
// endpoint, so per-model throughput reflects pool arbitration and
// model-aware routing, not a private replica set.
func runBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	dep := deployFlags(fs)
	prompts := fs.Int("num-prompts", 1000, "requests per point")
	concs := fs.String("concurrencies", "", "comma list (default 1..1024 powers of 2)")
	seed := fs.Int64("seed", 0, "dataset sampling seed")
	stream := fs.Bool("stream", false, "request SSE streaming (stream: true); TTFT and inter-token latency measured at the client as chunks arrive")
	artifact := fs.String("artifact", "", "write the results as a JSON artifact to this path (e.g. BENCH_streaming.json; BENCH_workload.json-shaped under -workload)")
	traceOn := fs.Bool("trace", false, "sample request traces at the gateway during the run and print the slowest trace's stage waterfall (needs "+gatewayNeeds+")")
	observe := fs.String("observe-artifact", "", "write the post-run /observe fleet snapshot as JSON to this path (e.g. OBSERVE_fleet.json; needs "+gatewayNeeds+")")
	wl := fs.String("workload", "", "open-loop workload mode: a preset name (diurnal-chat, steady) or a spec JSON path replaces the closed-loop concurrency sweep")
	wlTrace := fs.String("trace-file", "", "workload JSONL trace: replayed if the file exists, else the generated stream is recorded here for deterministic replays")
	fs.Parse(args)
	fatalIf(dep.resolve(true))
	points := bench.SweepConcurrencies()
	if *concs != "" {
		points = nil
		for _, part := range strings.Split(*concs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			fatalIf(err)
			points = append(points, n)
		}
	}
	open := *wl != "" || *wlTrace != ""
	if open && dep.members != nil {
		fatalIf(fmt.Errorf("-workload/-trace-file drive a single model's endpoint (drop -models)"))
	}
	fatalIf(run(*seed+3, func(p *sim.Proc, d *core.Deployer) error {
		sv, _, err := dep.deploy(p, d)
		if err != nil {
			return err
		}
		defer sv.stop()
		names := sv.models()
		label, title := "fleet", "output token throughput vs max concurrency (per model)"
		if sv.fleet != nil {
			fmt.Printf("# serving %d-model fleet on %s behind %s (pool: %d nodes)\n", len(names), dep.pf.Name, sv.url, dep.pool)
		} else {
			m := dep.cfg.Model
			label, title = fmt.Sprintf("%s %s TP%d", dep.pf.Name, m.Short, dep.cfg.TensorParallel), "output token throughput vs max concurrency"
			if dep.cfg.Replicas > 1 {
				label = fmt.Sprintf("%s x%d (%s)", label, dep.cfg.Replicas, dep.cfg.RoutePolicy)
			}
			if gw := sv.dp.Gateway(); gw != nil {
				fmt.Printf("# serving %s on %s: %d replicas behind %s (%s routing)\n",
					m.Short, dep.pf.Name, len(sv.dp.Replicas()), sv.url, gw.Policy)
			} else {
				fmt.Printf("# serving %s on %s at %s\n", m.Short, dep.pf.Name, sv.url)
				if *traceOn {
					fmt.Println("# -trace needs a gateway (" + gatewayNeeds + "); no traces will be sampled")
				}
				if *observe != "" {
					fmt.Println("# -observe-artifact needs a gateway (" + gatewayNeeds + "); no snapshot will be written")
				}
			}
		}
		for _, name := range names {
			if gw := sv.gateway(name); *traceOn && gw != nil {
				gw.Tracer = &trace.Recorder{SampleEvery: traceSampleStride}
			}
		}

		var write func() error // writes the -artifact
		var series []metrics.Series
		if open {
			spec, reqs, src, err := bench.ResolveWorkload(*wl, dep.cfg.Model.Name, *wlTrace)
			if err != nil {
				return err
			}
			st := workload.Summarize(reqs)
			fmt.Printf("# workload: %s (%d sessions, %d clients, %s span)\n", src, st.Sessions, st.Clients, st.Span)
			res := bench.RunWorkload(p, &bench.HTTPTarget{Client: loginClient(d), BaseURL: sv.url, Stream: *stream}, spec.Name, reqs)
			fmt.Print(res)
			write = func() error {
				return bench.WriteWorkloadArtifact(*artifact, bench.NewWorkloadArtifact(label, spec, reqs, res))
			}
		} else {
			ds := sharegpt.Synthesize(*seed, 4000)
			var all []*bench.Result
			for _, name := range names {
				target := &bench.HTTPTarget{Client: loginClient(d), BaseURL: sv.url, Model: name, Stream: *stream}
				cfg := bench.Config{Name: name, Dataset: ds, NumPrompts: *prompts, Seed: *seed, ContinueOnError: sv.gateway(name) != nil}
				key := name
				if name == "" {
					cfg.Name, key = dep.platform, label
				}
				results := bench.Sweep(p, target, cfg, points)
				for _, r := range results {
					fmt.Println(r)
				}
				all = append(all, results...)
				series = append(series, bench.ToSeries(key, results))
			}
			write = func() error { return bench.WriteArtifact(*artifact, label, *stream, all) }
		}

		if fl := sv.fleet; fl != nil {
			rst := fl.Router().Stats()
			fmt.Printf("# router: %d routed, %d unknown-model\n", rst.Requests, rst.Unknown)
			for _, name := range names {
				st := sv.gateway(name).Stats()
				fmt.Printf("# model %s: %d requests, %d retries, %d rejected, %d errors, %d holds\n",
					name, st.Requests, st.Retries, st.Rejected, st.Errors, st.Held)
			}
		} else if gw := sv.dp.Gateway(); gw != nil {
			st := gw.Stats()
			fmt.Printf("# gateway: %d requests, %d retries, %d rejected, %d errors; %d/%d replicas healthy\n",
				st.Requests, st.Retries, st.Rejected, st.Errors, gw.HealthyBackends(), len(gw.Backends()))
			if slo, ok := gw.SLO(); ok {
				fmt.Printf("# slo: p95 objective %s, %d batch sheds (breaker engaged: %v)\n",
					gw.SLOTargetP95, slo.Sheds, slo.Engaged)
			}
			if spills := gw.SessionSpills(); spills > 0 {
				fmt.Printf("# session routing: %d saturation spills off the affine replica\n", spills)
			}
			if as := sv.dp.Autoscaler(); as != nil {
				ast := as.Status()
				fmt.Printf("# autoscaler: %d replicas (target %d), %d scale-ups, %d scale-downs, %d cold-start holds\n",
					ast.Current, ast.Target, ast.ScaleUps, ast.ScaleDowns, st.Held)
			}
		}
		if !open {
			fmt.Println(metrics.DatFile(title, series))
		}
		if *artifact != "" {
			if err := write(); err != nil {
				return err
			}
			fmt.Printf("# wrote %s\n", *artifact)
		}
		for _, name := range names {
			if gw := sv.gateway(name); *traceOn && gw != nil {
				if name != "" {
					fmt.Printf("# model %s:\n", name)
				}
				printSlowestTrace(gw)
			}
		}
		if *observe != "" && sv.gateway(names[0]) != nil { // only a gateway serves /observe
			return writeObserveArtifact(p, loginClient(d), sv.url, *observe)
		}
		return nil
	}))
}

// gatewayNeeds names what deploys the gateway that -trace samples at and
// -observe-artifact fetches /observe from: a bare engine or a Kubernetes
// Service has none.
const gatewayNeeds = "a replica set or fleet on an HPC platform"

// traceSampleStride traces one request in every 16 during a bench run —
// enough settled traces to populate the slow-request flight recorder
// without the per-trace allocations distorting the measured path.
const traceSampleStride = 16

// printSlowestTrace renders the slowest sampled trace's stage waterfall,
// the per-request decomposition behind the run's tail latency.
func printSlowestTrace(gw *ingress.Gateway) {
	slow := gw.Tracer.Slowest()
	if len(slow) == 0 {
		fmt.Println("# no traces sampled")
		return
	}
	_, sampled := gw.Tracer.Counts()
	fmt.Printf("# slowest of %d sampled traces:\n", sampled)
	fmt.Print(slow[0].Waterfall())
}

// writeObserveArtifact fetches the /observe fleet snapshot and writes the
// JSON document to path.
func writeObserveArtifact(p *sim.Proc, client *vhttp.Client, baseURL, path string) error {
	resp, err := client.Get(p, baseURL+telemetry.ObservePath)
	if err != nil {
		return fmt.Errorf("fetch %s: %w", telemetry.ObservePath, err)
	}
	if resp.Status != 200 {
		return fmt.Errorf("fetch %s: status %d", telemetry.ObservePath, resp.Status)
	}
	if err := os.WriteFile(path, resp.Body, 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n", path)
	return nil
}

// runTrace deploys a replica set, sends one streamed request tagged with
// an X-Trace-Id, and prints the settled trace's stage waterfall fetched
// back from the gateway's /traces endpoint.
func runTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	dep := deployFlags(fs)
	prompt := fs.String("query", "Trace this request end to end.", "prompt for the traced request")
	id := fs.String("id", "genaictl-trace-1", "trace ID sent as the X-Trace-Id header")
	fs.Parse(args)
	// Tracing lives in the gateway; a single bare engine has no /traces
	// endpoint to fetch the settled trace from.
	dep.cfg.Replicas = max(dep.cfg.Replicas, 2)
	fatalIf(dep.resolve(false))
	fatalIf(run(1, func(p *sim.Proc, d *core.Deployer) error {
		sv, _, err := dep.deploy(p, d)
		if err != nil {
			return err
		}
		defer sv.stop()
		client := loginClient(d)
		if _, err := ask(p, client, sv.url, vllm.ChatRequest{
			Messages:  []vllm.ChatMessage{{Role: "user", Content: *prompt}},
			MaxTokens: 64, Stream: true,
		}, map[string]string{trace.Header: *id}); err != nil {
			return err
		}
		resp, err := client.Get(p, sv.url+trace.Path+"?id="+*id)
		if err != nil {
			return fmt.Errorf("fetch trace %s: %w", *id, err)
		}
		if resp.Status != 200 {
			return fmt.Errorf("fetch trace %s: status=%d", *id, resp.Status)
		}
		var tr trace.Trace
		if err := json.Unmarshal(resp.Body, &tr); err != nil {
			return err
		}
		fmt.Print(tr.Waterfall())
		return nil
	}))
}

// runObserve deploys a replica set, applies a brief burst of load, and
// pretty-prints the one-stop /observe fleet snapshot.
func runObserve(args []string) {
	fs := flag.NewFlagSet("observe", flag.ExitOnError)
	dep := deployFlags(fs)
	load := fs.Int("load", 8, "requests to send before snapshotting")
	fs.Parse(args)
	dep.cfg.Replicas = max(dep.cfg.Replicas, 2)
	fatalIf(dep.resolve(false))
	fatalIf(run(1, func(p *sim.Proc, d *core.Deployer) error {
		sv, _, err := dep.deploy(p, d)
		if err != nil {
			return err
		}
		defer sv.stop()
		client := loginClient(d)
		for i := 0; i < *load; i++ {
			if _, err := ask(p, client, sv.url, vllm.ChatRequest{
				Messages:  []vllm.ChatMessage{{Role: "user", Content: fmt.Sprintf("load %d", i)}},
				MaxTokens: 32,
			}, nil); err != nil {
				return err
			}
		}
		// Let the gateway's next probe round land so the snapshot carries
		// fresh per-replica telemetry instead of "never scraped".
		p.Sleep(20 * time.Second)
		resp, err := client.Get(p, sv.url+telemetry.ObservePath)
		if err != nil {
			return fmt.Errorf("fetch /observe: %w", err)
		}
		if resp.Status != 200 {
			return fmt.Errorf("fetch /observe: status=%d", resp.Status)
		}
		f, err := telemetry.DecodeFleet(resp.Body)
		if err != nil {
			return err
		}
		printFleet(f)
		return nil
	}))
}

// printFleet renders a FleetSnapshot for the terminal.
func printFleet(f telemetry.FleetSnapshot) {
	fmt.Printf("fleet snapshot @ %s\n", f.CapturedAt.Format(time.RFC3339))
	if f.Router != nil {
		fmt.Printf("router: %d requests, %d unknown\n", f.Router.Requests, f.Router.Unknown)
	}
	for _, mo := range f.Models {
		fmt.Printf("model %s  policy=%s serviceable=%v healthy=%d holding=%d\n",
			mo.Model, mo.Policy, mo.Serviceable, mo.HealthyBackends, mo.Holding)
		c := mo.Counters
		fmt.Printf("  requests=%d retries=%d rejected=%d errors=%d held=%d streams=%d truncated=%d spills=%d\n",
			c.Requests, c.Retries, c.Rejected, c.Errors, c.Held, c.Streams, c.StreamsTruncated, c.SessionSpills)
		if c.SketchRoutes > 0 || c.Warmups > 0 {
			fmt.Printf("  cache-aware sketch-routes=%d warmups=%d\n", c.SketchRoutes, c.Warmups)
		}
		if len(mo.LatencyMillis) > 0 {
			fmt.Printf("  latency p50=%.1fms p95=%.1fms p99=%.1fms\n",
				mo.LatencyMillis["p50"], mo.LatencyMillis["p95"], mo.LatencyMillis["p99"])
		}
		if mo.SLO != nil {
			fmt.Printf("  slo target=%.0fms p95=%.1fms engaged=%v sheds=%d\n",
				mo.SLO.TargetMillis, mo.SLO.P95Millis, mo.SLO.Engaged, mo.SLO.Sheds)
		}
		if mo.Traces != nil {
			fmt.Printf("  traces %d/%d sampled", mo.Traces.Sampled, mo.Traces.Total)
			if mo.Traces.SlowestID != "" {
				fmt.Printf(", slowest %s (%.1fms)", mo.Traces.SlowestID, mo.Traces.SlowestMillis)
			}
			fmt.Println()
		}
		for _, r := range mo.Replicas {
			age := "never"
			if r.SnapshotAgeMillis >= 0 {
				age = fmt.Sprintf("%.0fms", r.SnapshotAgeMillis)
			}
			fmt.Printf("  replica %-12s healthy=%v inflight=%d requests=%d failures=%d snapshot-age=%s",
				r.Name, r.Healthy, r.Inflight, r.Requests, r.Failures, age)
			if s := r.Snapshot; s.WindowPrefixHits+s.WindowPrefixMisses > 0 || s.KVHostBlocksTotal > 0 {
				fmt.Printf(" window-hit-rate=%.2f host-kv=%d/%d promotions=%d demotions=%d",
					s.WindowPrefixHitRate(), s.KVHostBlocksUsed, s.KVHostBlocksTotal,
					s.TierPromotions, s.TierDemotions)
			}
			fmt.Println()
		}
	}
}

func runFetch(args []string) {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	model := fs.String("model", llm.Llama318B.Name, "model to download")
	token := fs.String("token", "hf_token", "hub access token")
	fs.Parse(args)
	m, err := llm.ByName(*model)
	fatalIf(err)
	fatalIf(run(1, func(p *sim.Proc, d *core.Deployer) error {
		start := p.Now()
		if err := d.FetchModel(p, m, *token); err != nil {
			return err
		}
		fmt.Printf("fetched %s: %.1f GiB cloned on %s, synced to s3://%s/%s in %s (simulated)\n",
			m.Short, float64(m.RepoBytes())/(1<<30), site.BuildHost, site.ModelBucket, m.Name,
			p.Now().Sub(start).Round(time.Second))
		return nil
	}))
}

// run starts fn as the command's process on a fresh small site seeded
// with seed, and advances the simulation until fn returns.
func run(seed int64, fn func(p *sim.Proc, d *core.Deployer) error) error {
	d := core.NewDeployer(site.New(site.Options{Small: true, Seed: seed}))
	err := errors.New("simulation did not converge")
	done := false
	d.Site.Eng.Go("genaictl", func(p *sim.Proc) {
		err = fn(p, d)
		done = true
	})
	for i := 0; i < 100000 && !done; i++ {
		d.Site.Eng.RunFor(10 * time.Minute)
	}
	return err
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "genaictl:", err)
		os.Exit(1)
	}
}
