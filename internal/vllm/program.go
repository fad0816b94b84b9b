package vllm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cruntime"
	"repro/internal/fsim"
	"repro/internal/hw"
	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/vhttp"
)

// RayHandle is the interface the server program uses to reach a multi-node
// Ray cluster (provided via Spec.Props["ray.cluster"]). It decouples this
// package from internal/ray.
type RayHandle interface {
	TotalGPUs() int
	GPUsPerNode() int
	GPUModel() (hw.GPUModel, bool)
	// OnWorkerLost registers a callback fired when any worker dies.
	OnWorkerLost(fn func(error))
}

// ServeArgs are the parsed `vllm serve` flags.
type ServeArgs struct {
	ModelArg         string // HF name or a path like "/data/"
	Host             string
	Port             int
	ServedModelName  string
	TensorParallel   int
	PipelineParallel int
	MaxModelLen      int
	GPUMemUtil       float64
	MaxNumSeqs       int
	NoPrefixCache    bool   // --no-enable-prefix-caching (default: caching on)
	GPUBlocksOvr     int    // --num-gpu-blocks-override
	CPUOffloadBlocks int    // --cpu-offload-blocks (host KV tier capacity; 0 = no tier)
	KVTransferMicros int    // --kv-transfer-micros (host→GPU promote cost per block)
	SchedulerPolicy  string // --scheduling-policy (deadline | fcfs)
	DisableLogReqs   bool
	OverrideGenCfg   string
}

// ParseServeArgs understands both the Podman form
// ("serve MODEL --tensor_parallel_size=4 ...") and the Helm chart form
// ("vllm serve /data/ --host 0.0.0.0 --port 8000 ..."). Underscores and
// dashes in flag names are interchangeable, as in vLLM.
func ParseServeArgs(args []string) (*ServeArgs, error) {
	sa := &ServeArgs{Port: 8000, TensorParallel: 1, PipelineParallel: 1, GPUMemUtil: 0.9}
	i := 0
	if i < len(args) && args[i] == "vllm" {
		i++
	}
	if i >= len(args) || args[i] != "serve" {
		return nil, fmt.Errorf("vllm: expected 'serve' subcommand, got %v", args)
	}
	i++
	if i < len(args) && !strings.HasPrefix(args[i], "--") {
		sa.ModelArg = args[i]
		i++
	}
	for ; i < len(args); i++ {
		arg := args[i]
		if !strings.HasPrefix(arg, "--") {
			return nil, fmt.Errorf("vllm: unexpected positional arg %q", arg)
		}
		name := strings.TrimPrefix(arg, "--")
		val := ""
		if eq := strings.Index(name, "="); eq >= 0 {
			name, val = name[:eq], name[eq+1:]
		} else if i+1 < len(args) && !strings.HasPrefix(args[i+1], "--") {
			// Flags that take values consume the next token.
			switch normFlag(name) {
			case "host", "port", "served-model-name", "tensor-parallel-size",
				"pipeline-parallel-size", "max-model-len", "gpu-memory-utilization",
				"max-num-seqs", "num-gpu-blocks-override", "scheduling-policy",
				"cpu-offload-blocks", "kv-transfer-micros",
				"override-generation-config":
				val = args[i+1]
				i++
			}
		}
		switch normFlag(name) {
		case "host":
			sa.Host = val
		case "port":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("vllm: bad --port %q", val)
			}
			sa.Port = n
		case "served-model-name":
			sa.ServedModelName = val
		case "tensor-parallel-size":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("vllm: bad --tensor-parallel-size %q", val)
			}
			sa.TensorParallel = n
		case "pipeline-parallel-size":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("vllm: bad --pipeline-parallel-size %q", val)
			}
			sa.PipelineParallel = n
		case "max-model-len":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("vllm: bad --max-model-len %q", val)
			}
			sa.MaxModelLen = n
		case "gpu-memory-utilization":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("vllm: bad --gpu-memory-utilization %q", val)
			}
			sa.GPUMemUtil = f
		case "max-num-seqs":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("vllm: bad --max-num-seqs %q", val)
			}
			sa.MaxNumSeqs = n
		case "num-gpu-blocks-override":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("vllm: bad --num-gpu-blocks-override %q", val)
			}
			sa.GPUBlocksOvr = n
		case "cpu-offload-blocks":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("vllm: bad --cpu-offload-blocks %q", val)
			}
			sa.CPUOffloadBlocks = n
		case "kv-transfer-micros":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("vllm: bad --kv-transfer-micros %q", val)
			}
			sa.KVTransferMicros = n
		case "scheduling-policy":
			switch val {
			case SchedulerDeadline, SchedulerFCFS:
				sa.SchedulerPolicy = val
			default:
				return nil, fmt.Errorf("vllm: bad --scheduling-policy %q (want %q or %q)", val, SchedulerDeadline, SchedulerFCFS)
			}
		case "enable-prefix-caching":
			sa.NoPrefixCache = false
		case "no-enable-prefix-caching":
			sa.NoPrefixCache = true
		case "disable-log-requests":
			sa.DisableLogReqs = true
		case "override-generation-config":
			sa.OverrideGenCfg = val
		default:
			// Unknown flags are tolerated, as vLLM evolves quickly.
		}
	}
	return sa, nil
}

func normFlag(s string) string { return strings.ReplaceAll(s, "_", "-") }

// ServerProgram is the application inside the vllm/vllm-openai (and
// rocm/vllm) container images. Its startup sequence reproduces the paper's
// §3.2 failure modes and §3.3 timing:
//
//  1. accelerator visibility and CUDA/ROCm-image/vendor match,
//  2. host-environment hygiene (leaked PYTHONPATH crashes imports),
//  3. offline mode (without HF_HUB_OFFLINE=1 it tries to reach the hub),
//  4. writable cache directory (read-only rootfs crashes),
//  5. model weight discovery in mounted storage,
//  6. capacity planning (OOM / max-model-len gates),
//  7. weight load + engine init + warmup (≈30 min for large models),
//  8. OpenAI API goes live, readiness reported.
type ServerProgram struct {
	// Server and Engine are populated once startup succeeds.
	Server *APIServer
	Engine *Engine
	// HubHost is the upstream host probed in online mode.
	HubHost string
}

// crash helpers keep error text close to what real deployments log.
func startupErr(stage, format string, args ...any) error {
	return fmt.Errorf("vllm startup [%s]: %s", stage, fmt.Sprintf(format, args...))
}

// Run implements cruntime.Program.
func (sp *ServerProgram) Run(ctx *cruntime.ExecContext) error {
	args, err := ParseServeArgs(append(append([]string{}, ctx.Entrypoint...), ctx.Args...))
	if err != nil {
		return err
	}
	ctx.Logf("INFO vLLM API server version 0.9.1 starting (args: %v)", ctx.Args)

	// 1. Accelerators.
	if !ctx.GPUVisible || len(ctx.GPUs) == 0 {
		return startupErr("init", "RuntimeError: No CUDA GPUs are available (runtime did not expose devices)")
	}
	vendor := ctx.GPUs[0].Model.Vendor
	switch {
	case ctx.ImageArch == "cuda" && vendor != hw.NVIDIA:
		return startupErr("init", "RuntimeError: CUDA image cannot drive %s accelerators; use the ROCm build", vendor)
	case ctx.ImageArch == "rocm" && vendor != hw.AMD:
		return startupErr("init", "RuntimeError: ROCm image cannot drive %s accelerators; use the CUDA build", vendor)
	}

	// 2. Environment hygiene: a leaked host PYTHONPATH shadows the image's
	// libraries (the default-Apptainer crash).
	if pp := ctx.Getenv("PYTHONPATH"); pp != "" && strings.Contains(pp, "/opt/site") {
		return startupErr("import", "ImportError: cannot import name 'cuda_utils' from 'vllm._C' (host PYTHONPATH %q leaked into container)", pp)
	}

	// 3. Offline mode.
	if ctx.Getenv("HF_HUB_OFFLINE") != "1" && ctx.Getenv("TRANSFORMERS_OFFLINE") != "1" {
		hub := sp.HubHost
		if hub == "" {
			hub = "huggingface.co"
		}
		client := &vhttp.Client{Net: ctx.Net, From: ctx.Hostname}
		if _, err := client.Get(ctx.Proc, "http://"+hub+"/api/whoami"); err != nil {
			return startupErr("hub", "OSError: We couldn't connect to 'https://%s' (air-gapped platform; set HF_HUB_OFFLINE=1)", hub)
		}
	}

	// 4. Writable cache.
	cacheDir := ctx.Getenv("HF_HOME")
	if cacheDir == "" {
		cacheDir = ctx.Home + "/.cache/huggingface"
	}
	if !ctx.PathWritable(cacheDir) {
		return startupErr("cache", "OSError: [Errno 30] Read-only file system: %q (user %s cannot write the cache dir)", cacheDir, ctx.User)
	}

	// 5. Locate model weights.
	model, mount, err := sp.resolveModel(ctx, args)
	if err != nil {
		return err
	}
	ctx.Logf("INFO loading model %s (%.1f GiB weights)", model.Name, float64(model.WeightBytes())/float64(hw.GiB))

	// Multi-node: a Ray cluster supplies the world beyond this node.
	var ray RayHandle
	if h, ok := ctx.Props["ray.cluster"].(RayHandle); ok {
		ray = h
	}
	world := args.TensorParallel * args.PipelineParallel
	gpusPerNode := len(ctx.GPUs)
	gpuModel := ctx.GPUs[0].Model
	if ray != nil {
		if world > ray.TotalGPUs() {
			return startupErr("ray", "ValueError: placement group requires %d GPUs but Ray cluster has %d", world, ray.TotalGPUs())
		}
		gpusPerNode = ray.GPUsPerNode()
		if m, ok := ray.GPUModel(); ok {
			gpuModel = m
		}
	} else if world > len(ctx.GPUs) {
		return startupErr("init", "ValueError: tensor_parallel_size*pipeline_parallel_size=%d exceeds the %d visible GPUs (multi-node serving requires a Ray cluster)", world, len(ctx.GPUs))
	}

	// 6. Capacity plan (the OOM and max-model-len gates).
	cfg := Config{
		Model: model, GPU: gpuModel,
		TensorParallel:       args.TensorParallel,
		PipelineParallel:     args.PipelineParallel,
		GPUsPerNode:          gpusPerNode,
		MaxModelLen:          args.MaxModelLen,
		GPUMemUtil:           args.GPUMemUtil,
		MaxNumSeqs:           args.MaxNumSeqs,
		NoPrefixCache:        args.NoPrefixCache,
		NumGPUBlocksOverride: args.GPUBlocksOvr,
		CPUOffloadBlocks:     args.CPUOffloadBlocks,
		KVTransferMicros:     args.KVTransferMicros,
		SchedulerPolicy:      args.SchedulerPolicy,
	}
	engine, err := New(ctx.Proc.Engine(), cfg)
	if err != nil {
		return fmt.Errorf("vllm startup [profile]: %w", err)
	}

	// 7. Weight load: stream the repo from the mounted filesystem, bounded
	// by deserialization bandwidth, then pay engine init + warmup.
	loadStart := ctx.Proc.Now()
	if mount != nil {
		route := mount.FS.ReadRoute()
		if mount.FS.Networked {
			route = mount.FS.ReadRoute(ctx.Node.NIC)
		}
		if len(route) > 0 {
			ctx.Fabric.Transfer(ctx.Proc, float64(model.WeightBytes()), route,
				netsim.StartOptions{RateCap: WeightLoadBW * float64(len(ctx.GPUs))})
		}
	}
	engineInit, warmup := StartupModel(model, args.TensorParallel, args.PipelineParallel)
	ctx.Proc.Sleep(engineInit)
	ctx.Logf("INFO model weights loaded in %s", ctx.Proc.Now().Sub(loadStart).Round(time.Second))
	ctx.Proc.Sleep(warmup)
	ctx.Logf("INFO CUDA graph capture / warmup finished (%s total startup)", ctx.Proc.Now().Sub(loadStart).Round(time.Second))

	// 8. Serve.
	sp.Engine = engine
	sp.Server = &APIServer{Engine: engine, ServedName: args.ServedModelName, Replica: ctx.Hostname}
	engine.Run()
	if ray != nil {
		ray.OnWorkerLost(func(err error) {
			engine.Crash(fmt.Errorf("vllm: ray worker lost: %w", err))
		})
	}
	host := ctx.Hostname
	if err := ctx.Net.Listen(host, args.Port, sp.Server, vhttp.ListenOptions{
		Up: func() bool { crashed, _ := engine.Crashed(); return !crashed },
	}); err != nil {
		return startupErr("serve", "%v", err)
	}
	defer ctx.Net.Unlisten(host, args.Port)
	ctx.Logf("INFO Uvicorn running on http://%s:%d", host, args.Port)
	ctx.SetReady(true)

	// Block until the engine dies (crash or Stop); container exits then.
	crashSig := ctx.Proc.Engine().NewSignal()
	var crashErr error
	engine.OnCrash(func(err error) {
		crashErr = err
		crashSig.Fire()
	})
	ctx.Proc.Wait(crashSig)
	if crashErr != nil && !errors.Is(crashErr, ErrServerStopped) {
		return crashErr
	}
	return nil
}

// resolveModel finds the model weights in the container's mounts. The model
// argument is either a path ("/data/") or a Hugging Face name expected under
// a mounted models directory (workdir-relative, as in Figs 4/5).
func (sp *ServerProgram) resolveModel(ctx *cruntime.ExecContext, args *ServeArgs) (*llm.ModelSpec, *cruntime.Mount, error) {
	candidates := []string{}
	if strings.HasPrefix(args.ModelArg, "/") {
		candidates = append(candidates, strings.TrimSuffix(args.ModelArg, "/"))
	} else {
		candidates = append(candidates,
			ctx.WorkingDir+"/"+args.ModelArg,
			"/vllm-workspace/models/"+args.ModelArg,
		)
	}
	for _, ctrPath := range candidates {
		m, rel, ok := ctx.LookupMount(ctrPath)
		if !ok {
			continue
		}
		hostDir := strings.TrimSuffix(m.HostPath+rel, "/")
		files := m.FS.List(hostDir)
		if len(files) == 0 {
			continue
		}
		name, err := detectModelName(m.FS, hostDir, args)
		if err != nil {
			return nil, nil, err
		}
		model, err := llm.ByName(name)
		if err != nil {
			return nil, nil, startupErr("load", "unrecognized model in %s: %v", hostDir, err)
		}
		// Verify the shards are complete.
		var got int64
		for _, f := range files {
			if strings.HasSuffix(f.Path, ".safetensors") {
				got += f.Size
			}
		}
		want := int64(float64(model.ParamsTotal) * model.Quant.BytesPerParam())
		if got < want {
			return nil, nil, startupErr("load", "safetensors incomplete: have %d of %d bytes in %s (interrupted download?)", got, want, hostDir)
		}
		mCopy := m
		return model, &mCopy, nil
	}
	return nil, nil, startupErr("load", "OSError: %s is not a local folder and HF_HUB_OFFLINE=1 blocks downloads (mount the model directory)", args.ModelArg)
}

// detectModelName reads the repo's config.json marker (written by the hub
// download flow) or falls back to the serve argument / served name.
func detectModelName(fs *fsim.FS, dir string, args *ServeArgs) (string, error) {
	if f := fs.Stat(dir + "/config.json"); f != nil && len(f.Content) > 0 {
		s := string(f.Content)
		if i := strings.Index(s, `"_name_or_path": "`); i >= 0 {
			rest := s[i+len(`"_name_or_path": "`):]
			if j := strings.Index(rest, `"`); j >= 0 {
				return rest[:j], nil
			}
		}
	}
	if !strings.HasPrefix(args.ModelArg, "/") {
		return args.ModelArg, nil
	}
	if args.ServedModelName != "" {
		return args.ServedModelName, nil
	}
	return "", startupErr("load", "cannot determine model identity in %s (missing config.json and --served-model-name)", dir)
}

var _ cruntime.Program = (*ServerProgram)(nil)
