// Command benchserve is the standalone serving benchmark (the Fig 8
// workflow): it deploys a model on a simulated platform and sweeps maximum
// request concurrency, printing a benchmark_serving.py-style summary per
// point and a final gnuplot-ready series.
//
//	benchserve -platform hops -model meta-llama/Llama-4-Scout-17B-16E-Instruct -tp 4
//	benchserve -platform eldorado -concurrencies 1,16,256 -num-prompts 200
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/autoscale"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ingress"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/sharegpt"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vhttp"
	"repro/internal/workload"
)

func main() {
	var (
		platform = flag.String("platform", "hops", "hops, eldorado, goodall, cee")
		model    = flag.String("model", llm.Scout.Name, "model name")
		tp       = flag.Int("tp", 4, "tensor parallel size")
		pp       = flag.Int("pp", 1, "pipeline parallel size")
		replicas = flag.Int("replicas", 1, "engine instances behind the gateway (>1 = replica set)")
		policy   = flag.String("route-policy", "round-robin", "gateway routing: round-robin, least-loaded, session (KV-cache affinity), prefix (sketch-based cache-aware placement)")
		elastic  = flag.Bool("autoscale", false, "autoscale the replica set from gateway load (HPC platforms)")
		minReps  = flag.Int("min-replicas", 0, "autoscale floor (0 = scale to zero when idle)")
		maxReps  = flag.Int("max-replicas", 4, "autoscale ceiling")
		sloP95   = flag.Duration("slo-p95", 0, "p95 latency objective: shed batch-class requests while the gateway's rolling p95 breaches it (0 = off)")
		ttft     = flag.Duration("ttft-target", 0, "time-to-first-token objective stamped onto requests for the engine's deadline scheduler; batch class gets a relaxed multiple (0 = fall back to -slo-p95)")
		priority = flag.String("priority", "", "default priority class for unlabeled requests: interactive (default) or batch")
		maxLen   = flag.Int("max-model-len", 65536, "context limit")
		prompts  = flag.Int("num-prompts", 1000, "requests per point")
		concs    = flag.String("concurrencies", "", "comma list (default 1..1024 powers of 2)")
		seed     = flag.Int64("seed", 0, "dataset sampling seed")
		fleet    = flag.String("models", "", "multi-model fleet spec alias=hf-name:weight,... — bench each model through one routing endpoint (HPC platforms)")
		pool     = flag.Int("pool-nodes", 0, "shared node pool arbitrated across the fleet's models (0 = no arbitration)")
		prefixOn = flag.Bool("prefix-cache", true, "automatic prefix caching in the engine (vLLM --enable-prefix-caching); bench prompts are unique, so this mainly matters with real multi-turn traffic")
		offload  = flag.Int("cpu-offload-blocks", 0, "host-memory KV tier capacity in blocks per replica (vLLM --cpu-offload-blocks); evicted prefix blocks demote to host memory and re-promote on a hit instead of re-prefilling (0 = off)")
		kvXfer   = flag.Int("kv-transfer-micros", 0, "host-to-GPU KV promotion cost per block in microseconds (0 = engine default)")
		gpuBlk   = flag.Int("gpu-blocks-override", 0, "pin the GPU KV cache to this many blocks (vLLM --num-gpu-blocks-override); small values force eviction to exercise the host tier (0 = profile-derived)")
		stream   = flag.Bool("stream", false, "request SSE streaming (stream: true); TTFT and inter-token latency measured at the client as chunks arrive")
		artifact = flag.String("artifact", "", "write sweep results as a JSON artifact to this path (e.g. BENCH_streaming.json)")
		traceOn  = flag.Bool("trace", false, "sample request traces at the gateway during the sweep and print the slowest trace's stage waterfall (needs -replicas > 1)")
		observe  = flag.String("observe-artifact", "", "write the post-run /observe fleet snapshot as JSON to this path (e.g. OBSERVE_fleet.json)")
		wl       = flag.String("workload", "", "open-loop workload mode: a preset name (diurnal-chat, steady) or a spec JSON path replaces the closed-loop concurrency sweep; -artifact then emits BENCH_workload.json-shaped output")
		wlTrace  = flag.String("trace-file", "", "workload JSONL trace: replayed if the file exists, else the generated stream is recorded here for deterministic replays")
	)
	flag.Parse()

	// Reject out-of-range flag values here; Deploy checks the route
	// policy, the priority class and the autoscale bounds.
	if *replicas < 1 {
		fatal(fmt.Errorf("-replicas must be at least 1 (got %d)", *replicas))
	}
	if *sloP95 < 0 {
		fatal(fmt.Errorf("-slo-p95 must be >= 0 (got %s)", *sloP95))
	}
	if *ttft < 0 {
		fatal(fmt.Errorf("-ttft-target must be >= 0 (got %s)", *ttft))
	}
	var pol *autoscale.Policy
	if *elastic {
		pol = &autoscale.Policy{MinReplicas: *minReps, MaxReplicas: *maxReps}
	}

	var points []int
	if *concs == "" {
		points = bench.SweepConcurrencies()
	} else {
		for _, part := range strings.Split(*concs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(err)
			}
			points = append(points, n)
		}
	}
	pf, err := core.PlatformByName(*platform)
	if err != nil {
		fatal(err)
	}
	m, err := llm.ByName(*model)
	if err != nil {
		fatal(err)
	}
	if (*wl != "" || *wlTrace != "") && *fleet != "" {
		fatal(fmt.Errorf("-workload/-trace-file drive a single model's endpoint (drop -models)"))
	}
	var fleetEntries []core.FleetFlagEntry
	if *fleet != "" {
		if fleetEntries, err = core.ParseFleetFlag(*fleet); err != nil {
			fatal(err)
		}
	}

	s := site.New(site.Options{Small: true, Seed: *seed + 3})
	d := core.NewDeployer(s)
	var failure error
	done := false
	s.Eng.Go("benchserve", func(p *sim.Proc) {
		defer func() { done = true }()
		if len(fleetEntries) > 0 {
			failure = benchFleet(p, s, d, pf, fleetEntries, benchFleetConfig{
				tp: *tp, maxLen: *maxLen, replicas: *replicas, policy: *policy,
				sloP95: *sloP95, ttft: *ttft, priority: *priority, noPrefixCache: !*prefixOn,
				autoscale: pol, poolNodes: *pool, prompts: *prompts, seed: *seed, points: points,
				stream: *stream, artifact: *artifact, trace: *traceOn, observe: *observe,
			})
			return
		}
		if failure = d.SeedModelOn(p, pf, m); failure != nil {
			return
		}
		dp, err := d.Deploy(p, core.VLLMPackage(), pf, core.DeployConfig{
			Model: m, TensorParallel: *tp, PipelineParallel: *pp,
			MaxModelLen: *maxLen, Offline: true,
			Replicas: *replicas, RoutePolicy: *policy, Autoscale: pol,
			SLOTargetP95: *sloP95, TTFTTarget: *ttft, PriorityClass: *priority,
			DisablePrefixCache: !*prefixOn,
			CPUOffloadBlocks:   *offload, KVTransferMicros: *kvXfer,
			NumGPUBlocksOverride: *gpuBlk,
		})
		if err != nil {
			failure = err
			return
		}
		defer dp.Stop()
		if gw := dp.Gateway(); gw != nil {
			fmt.Printf("# serving %s on %s: %d replicas behind %s (%s routing)\n",
				m.Short, pf.Name, len(dp.Replicas()), dp.BaseURL, gw.Policy)
			if *traceOn {
				gw.Tracer = &trace.Recorder{SampleEvery: traceSampleStride}
			}
		} else {
			fmt.Printf("# serving %s on %s at %s\n", m.Short, pf.Name, dp.BaseURL)
			if *traceOn {
				fmt.Println("# -trace needs a gateway (-replicas > 1); no traces will be sampled")
			}
		}
		target := &bench.HTTPTarget{
			Client:  &vhttp.Client{Net: s.Net, From: site.LoginHops},
			BaseURL: dp.BaseURL,
			Stream:  *stream,
		}
		var results []*bench.Result
		var wlSpec workload.Spec
		var wlReqs []workload.Request
		var wlRes *bench.WorkloadResult
		if *wl != "" || *wlTrace != "" {
			// Open-loop workload mode: replay a cohort/diurnal/session stream
			// at recorded arrival times instead of sweeping concurrency.
			var src string
			wlSpec, wlReqs, src, err = bench.ResolveWorkload(*wl, m.Name, *wlTrace)
			if err != nil {
				failure = err
				return
			}
			st := workload.Summarize(wlReqs)
			fmt.Printf("# workload: %s (%d sessions, %d clients, %s span)\n", src, st.Sessions, st.Clients, st.Span)
			wlRes = bench.RunWorkload(p, target, wlSpec.Name, wlReqs)
			fmt.Print(wlRes)
		} else {
			ds := sharegpt.Synthesize(*seed, 4000)
			results = bench.Sweep(p, target, bench.Config{
				Name: *platform, Dataset: ds, NumPrompts: *prompts, Seed: *seed,
				ContinueOnError: dp.Gateway() != nil,
			}, points)
			for _, r := range results {
				fmt.Println(r)
			}
		}
		if gw := dp.Gateway(); gw != nil {
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
			if as := dp.Autoscaler(); as != nil {
				ast := as.Status()
				fmt.Printf("# autoscaler: %d replicas (target %d), %d scale-ups, %d scale-downs, %d cold-start holds\n",
					ast.Current, ast.Target, ast.ScaleUps, ast.ScaleDowns, st.Held)
			}
		}
		label := fmt.Sprintf("%s %s TP%d", pf.Name, m.Short, *tp)
		if *replicas > 1 {
			label = fmt.Sprintf("%s x%d (%s)", label, *replicas, *policy)
		}
		if wlRes != nil {
			if *artifact != "" {
				a := bench.NewWorkloadArtifact(label, wlSpec, wlReqs, wlRes)
				if err := bench.WriteWorkloadArtifact(*artifact, a); err != nil {
					failure = err
					return
				}
				fmt.Printf("# wrote %s\n", *artifact)
			}
		} else {
			series := bench.ToSeries(label, results)
			fmt.Println(metrics.DatFile("output token throughput vs max concurrency", []metrics.Series{series}))
			if *artifact != "" {
				if err := bench.WriteArtifact(*artifact, label, *stream, results); err != nil {
					failure = err
					return
				}
				fmt.Printf("# wrote %s\n", *artifact)
			}
		}
		if gw := dp.Gateway(); gw != nil && *traceOn {
			printSlowestTrace(gw)
		}
		if *observe != "" && dp.Gateway() != nil {
			client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
			if err := writeObserveArtifact(p, client, dp.BaseURL, *observe); err != nil {
				failure = err
				return
			}
		}
	})
	for i := 0; i < 100000 && !done; i++ {
		s.Eng.RunFor(10 * time.Minute)
	}
	if failure != nil {
		fatal(failure)
	}
}

// traceSampleStride traces one request in every 16 during a bench sweep —
// enough settled traces to populate the slow-request flight recorder
// without the per-trace allocations distorting the measured path.
const traceSampleStride = 16

// printSlowestTrace renders the slowest sampled trace's stage waterfall,
// the per-request decomposition behind the sweep's tail latency.
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

// benchFleetConfig carries the flag values into the fleet bench run.
type benchFleetConfig struct {
	tp, maxLen, replicas int
	policy               string
	sloP95               time.Duration
	ttft                 time.Duration
	priority             string
	noPrefixCache        bool
	autoscale            *autoscale.Policy
	poolNodes            int
	prompts              int
	seed                 int64
	points               []int
	stream               bool
	artifact             string
	trace                bool
	observe              string
}

// benchFleet deploys a multi-model fleet and sweeps each model through the
// shared routing endpoint, so per-model throughput reflects pool
// arbitration and model-aware routing, not a private replica set.
func benchFleet(p *sim.Proc, s *site.Site, d *core.Deployer, pf core.Platform, entries []core.FleetFlagEntry, bc benchFleetConfig) error {
	models, err := core.SeedFleet(p, d, pf, core.DeployConfig{
		TensorParallel: bc.tp, MaxModelLen: bc.maxLen, Offline: true,
		Replicas: bc.replicas, RoutePolicy: bc.policy, Autoscale: bc.autoscale,
		SLOTargetP95: bc.sloP95, TTFTTarget: bc.ttft, PriorityClass: bc.priority,
		DisablePrefixCache: bc.noPrefixCache,
	}, entries)
	if err != nil {
		return err
	}
	fl, err := d.DeployFleet(p, core.VLLMPackage(), pf, core.FleetConfig{PoolNodes: bc.poolNodes}, models)
	if err != nil {
		return err
	}
	defer fl.Stop()
	fmt.Printf("# serving %d-model fleet on %s behind %s (pool: %d nodes)\n",
		len(fl.Models()), pf.Name, fl.BaseURL, bc.poolNodes)
	if bc.trace {
		for _, name := range fl.Models() {
			fl.Deployment(name).Gateway().Tracer = &trace.Recorder{SampleEvery: traceSampleStride}
		}
	}
	ds := sharegpt.Synthesize(bc.seed, 4000)
	var series []metrics.Series
	var all []*bench.Result
	for _, name := range fl.Models() {
		target := &bench.HTTPTarget{
			Client:  &vhttp.Client{Net: s.Net, From: site.LoginHops},
			BaseURL: fl.BaseURL,
			Model:   name,
			Stream:  bc.stream,
		}
		results := bench.Sweep(p, target, bench.Config{
			Name: name, Dataset: ds, NumPrompts: bc.prompts, Seed: bc.seed,
			ContinueOnError: true,
		}, bc.points)
		for _, r := range results {
			fmt.Println(r)
		}
		all = append(all, results...)
		series = append(series, bench.ToSeries(name, results))
	}
	rst := fl.Router().Stats()
	fmt.Printf("# router: %d routed, %d unknown-model\n", rst.Requests, rst.Unknown)
	for _, name := range fl.Models() {
		st := fl.Deployment(name).Gateway().Stats()
		fmt.Printf("# model %s: %d requests, %d retries, %d rejected, %d errors, %d holds\n",
			name, st.Requests, st.Retries, st.Rejected, st.Errors, st.Held)
	}
	fmt.Println(metrics.DatFile("output token throughput vs max concurrency (per model)", series))
	if bc.artifact != "" {
		if err := bench.WriteArtifact(bc.artifact, "fleet", bc.stream, all); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", bc.artifact)
	}
	if bc.trace {
		for _, name := range fl.Models() {
			fmt.Printf("# model %s:\n", name)
			printSlowestTrace(fl.Deployment(name).Gateway())
		}
	}
	if bc.observe != "" {
		client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
		if err := writeObserveArtifact(p, client, fl.BaseURL, bc.observe); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchserve:", err)
	os.Exit(1)
}
