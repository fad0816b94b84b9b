// Package core is the reproduction's primary contribution: the container
// deployment tool the paper's §4 proposes — "a package manager for deploying
// containerized applications and services".
//
// It absorbs the four classes of differences the paper identifies:
//
//   - Container runtime user-interface differences: package metadata encodes
//     the execution-environment expectations (root, writable rootfs, clean
//     environment, GPUs) and the planner derives the Podman flags, the
//     Apptainer flag set of Fig 5, or Kubernetes semantics automatically.
//   - Computing platform differences: packages carry one image per
//     accelerator flavor (CUDA/ROCm) and the planner selects by the target
//     platform's GPU vendor.
//   - Application and service configuration: offline/online profiles and
//     single/multi-node deployment shapes (including Ray bootstrap) are
//     handled by the deployer, not the user.
//   - Computing center differences: a SiteProfile captures registries,
//     object-store endpoints, credentials, and preferred runtimes.
package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cruntime"
	"repro/internal/fsim"
	"repro/internal/hw"
	"repro/internal/llm"
	"repro/internal/registry"
)

// ExecutionNeeds is the §4 container metadata: what environment the
// containerized application expects, from which runtime flags derive.
type ExecutionNeeds struct {
	NeedsRoot           bool
	NeedsWritableRootFS bool
	NeedsCleanEnv       bool
	NeedsGPU            bool
	// OfflineEnv is applied in air-gapped deployments; OnlineEnv otherwise.
	OfflineEnv map[string]string
	OnlineEnv  map[string]string
	Port       int
}

// ContainerPackage is one deployable application: images per accelerator
// flavor plus execution metadata.
type ContainerPackage struct {
	Name        string
	Description string
	// ImageByArch maps accelerator flavor ("cuda", "rocm", "cpu") to an
	// image reference.
	ImageByArch map[string]string
	Needs       ExecutionNeeds
}

// ImageFor selects the image for a GPU vendor (the paper's example: users
// must otherwise know that AMD publishes the ROCm vLLM builds).
func (pkg *ContainerPackage) ImageFor(vendor hw.Vendor) (string, error) {
	arch := "cuda"
	switch vendor {
	case hw.AMD:
		arch = "rocm"
	case hw.Intel:
		arch = "oneapi"
	case "":
		arch = "cpu"
	}
	ref, ok := pkg.ImageByArch[arch]
	if !ok {
		return "", fmt.Errorf("core: package %s has no %s image (available: %v)", pkg.Name, arch, pkg.archs())
	}
	return ref, nil
}

func (pkg *ContainerPackage) archs() []string {
	return slices.Sorted(maps.Keys(pkg.ImageByArch))
}

// VLLMPackage is the catalog entry for the vLLM inference server.
func VLLMPackage() *ContainerPackage {
	offline := map[string]string{
		"OMP_NUM_THREADS":            "1",
		"HF_HUB_ENABLE_HF_TRANSFER":  "0",
		"HF_HUB_DISABLE_TELEMETRY":   "1",
		"VLLM_NO_USAGE_STATS":        "1",
		"DO_NOT_TRACK":               "1",
		"HF_DATASETS_OFFLINE":        "1",
		"TRANSFORMERS_OFFLINE":       "1",
		"HF_HUB_OFFLINE":             "1",
		"VLLM_DISABLE_COMPILE_CACHE": "1",
	}
	return &ContainerPackage{
		Name:        "vllm",
		Description: "vLLM OpenAI-compatible LLM inference server",
		ImageByArch: map[string]string{
			"cuda": "vllm/vllm-openai:v0.9.1",
			"rocm": "rocm/vllm:rocm6.4.1_vllm_0.9.1_20250702",
		},
		Needs: ExecutionNeeds{
			NeedsRoot:           true,
			NeedsWritableRootFS: true,
			NeedsCleanEnv:       true,
			NeedsGPU:            true,
			OfflineEnv:          offline,
			OnlineEnv: map[string]string{
				"OMP_NUM_THREADS": "1",
			},
			Port: 8000,
		},
	}
}

// SiteProfile captures the site-specific configuration of §4's fourth
// bullet: shared-service endpoints, credentials, and runtime preferences.
type SiteProfile struct {
	Name        string
	Registry    *registry.Registry
	S3Endpoint  string
	AccessKey   string
	SecretKey   string
	ModelBucket string
	HubHost     string
	// PreferredRuntime maps platform name → "podman" | "apptainer" | "helm".
	PreferredRuntime map[string]string
}

// RuntimeFor returns the runtime a platform should use.
func (sp *SiteProfile) RuntimeFor(platform string, kind string) string {
	if r, ok := sp.PreferredRuntime[platform]; ok {
		return r
	}
	if kind == "k8s" {
		return "helm"
	}
	return "podman"
}

// DeployConfig is the user-facing deployment request.
type DeployConfig struct {
	Model            *llm.ModelSpec
	TensorParallel   int
	PipelineParallel int // >1 implies multi-node (Ray)
	MaxModelLen      int
	Port             int
	Offline          bool
	// Persistent requests Compute-as-Login provisioning (survives job time
	// limits) for a single-node service on a Slurm platform; Flux platforms
	// refuse it, and on Kubernetes it is the default behaviour.
	Persistent bool
	// Replicas launches N engine instances behind one endpoint. On
	// Kubernetes it scales the chart's Deployment; on HPC platforms it
	// launches N single-instance deployments on distinct nodes fronted by
	// a load-balancing ingress.Gateway.
	Replicas int
	// RoutePolicy selects the gateway's balancing policy for replica sets:
	// "round-robin" (default), "least-loaded", "session" (consistent-
	// hash affinity on the request's session key, so multi-turn chats
	// reuse one replica's warm KV cache, spilling to least-loaded when the
	// affine replica saturates), or "prefix" (session affinity plus
	// cache-aware placement: requests land on the replica whose published
	// prefix-membership sketch already holds their leading prompt block).
	// Kubernetes platforms run no gateway and accept only round-robin,
	// which is what the cluster's Ingress does.
	RoutePolicy string
	// SLOTargetP95 sets a per-model p95 latency objective on the replica
	// set's gateway: while the rolling p95 breaches it, batch-class
	// requests are shed with 503 (interactive traffic is never SLO-shed).
	// 0 disables. HPC replica sets only; refused on Kubernetes.
	SLOTargetP95 time.Duration
	// PriorityClass is the default scheduling class for requests that
	// carry no explicit class (X-Priority header or body priority field):
	// "interactive" (default) or "batch". Batch-class requests are shed
	// first under an SLO breach and dequeued last from the gateway's
	// cold-start hold queue. Refused on Kubernetes, which runs no gateway.
	PriorityClass string
	// TTFTTarget sets the per-class time-to-first-token objective the
	// gateway stamps onto requests for the engine's deadline-aware
	// scheduler (batch-class requests get a relaxed multiple). 0 falls
	// back to SLOTargetP95; with both unset no deadline is propagated
	// and engines admit in arrival order. HPC replica sets only; refused on
	// Kubernetes.
	TTFTTarget time.Duration
	// Autoscale, when non-nil, runs an elastic control loop that resizes
	// the replica set between the policy's MinReplicas and MaxReplicas from
	// gateway load signals, including scale-to-zero with cold-start queuing
	// at the gateway. HPC platforms only; on Kubernetes use the cluster's
	// HPA. Replicas is the initial size (clamped into the policy's range).
	Autoscale *autoscale.Policy
	// ServedName aliases the model name the service answers to (vLLM's
	// --served-model-name): the `model` field clients send, the id in
	// /v1/models, and the route key in multi-model fleets. Defaults to
	// Model.Name. Aliases let one set of weights serve under several
	// fleet entries ("chat", "chat-large") with distinct scaling policies.
	ServedName string
	// DisablePrefixCache turns off the engine's automatic prefix caching
	// (vLLM's --no-enable-prefix-caching). Caching is on by default:
	// multi-turn sessions routed back to their replica skip the prefill of
	// every prompt block already resident in the engine's KV cache.
	DisablePrefixCache bool
	// CPUOffloadBlocks sizes each replica's host-memory KV tier in blocks
	// (vLLM's --cpu-offload-blocks). LRU-evicted prefix blocks demote to
	// host memory instead of being freed and re-promote on a later hit at
	// transfer cost — far cheaper than re-prefilling them. 0 disables the
	// tier.
	CPUOffloadBlocks int
	// KVTransferMicros overrides the per-block host→GPU promotion cost in
	// microseconds (--kv-transfer-micros; 0 = engine default).
	KVTransferMicros int
	// NumGPUBlocksOverride pins the engine's GPU KV block count
	// (--num-gpu-blocks-override), bypassing the memory-profile estimate.
	// Mainly for experiments that need a deliberately small GPU cache to
	// exercise eviction and the host tier. 0 = profile-derived.
	NumGPUBlocksOverride int
	// IngressHost exposes the service externally on Kubernetes.
	IngressHost string

	// fleetManaged marks a replica set deployed as one member of a
	// DeployFleet: its gateway stays unbound (the fleet's Router fronts
	// it) and its autoscaler draws capacity through arbiter.
	fleetManaged bool
	arbiter      autoscale.Arbiter
}

// RouteName is the model name the service answers to: the ServedName alias
// when set, the underlying model's name otherwise.
func (cfg *DeployConfig) RouteName() string {
	if cfg.ServedName != "" {
		return cfg.ServedName
	}
	if cfg.Model != nil {
		return cfg.Model.Name
	}
	return ""
}

// replicaSet reports whether cfg deploys as a replica set behind a gateway:
// several instances, an elastic set, or a member of a fleet.
func (cfg *DeployConfig) replicaSet() bool {
	return cfg.Replicas > 1 || cfg.Autoscale != nil || cfg.fleetManaged
}

func (cfg *DeployConfig) nodes(gpusPerNode int) int {
	world := cfg.TensorParallel * cfg.PipelineParallel
	n := (world + gpusPerNode - 1) / gpusPerNode
	if n < 1 {
		n = 1
	}
	return n
}

// ServeArgs renders the `vllm serve` arguments the HPC runtimes pass (Figs 4
// and 5): the model argument, Fig 4's TP spelling, the served name and a
// non-default port, then the engine flags every platform shares.
func (cfg *DeployConfig) ServeArgs(modelArg string) []string {
	args := []string{"serve", modelArg, fmt.Sprintf("--tensor_parallel_size=%d", cfg.TensorParallel)}
	if cfg.ServedName != "" {
		args = append(args, "--served-model-name="+cfg.ServedName)
	}
	if cfg.Port > 0 && cfg.Port != 8000 {
		args = append(args, fmt.Sprintf("--port=%d", cfg.Port))
	}
	return append(args, cfg.engineFlags()...)
}

// engineFlags renders the engine settings of this configuration, the same
// on every platform (the whole point of the case study): each artifact puts
// only its own head in front of them.
func (cfg *DeployConfig) engineFlags() []string {
	args := []string{"--disable-log-requests"}
	if cfg.PipelineParallel > 1 {
		args = append(args, fmt.Sprintf("--pipeline_parallel_size=%d", cfg.PipelineParallel))
	}
	if cfg.MaxModelLen > 0 {
		args = append(args, fmt.Sprintf("--max-model-len=%d", cfg.MaxModelLen))
	}
	if cfg.DisablePrefixCache {
		args = append(args, "--no-enable-prefix-caching")
	}
	if cfg.CPUOffloadBlocks > 0 {
		args = append(args, fmt.Sprintf("--cpu-offload-blocks=%d", cfg.CPUOffloadBlocks))
	}
	if cfg.KVTransferMicros > 0 {
		args = append(args, fmt.Sprintf("--kv-transfer-micros=%d", cfg.KVTransferMicros))
	}
	if cfg.NumGPUBlocksOverride > 0 {
		args = append(args, fmt.Sprintf("--num-gpu-blocks-override=%d", cfg.NumGPUBlocksOverride))
	}
	return args
}

// EnvFor merges the package's profile env for the offline/online mode.
func EnvFor(pkg *ContainerPackage, offline bool) map[string]string {
	src := pkg.Needs.OnlineEnv
	if offline {
		src = pkg.Needs.OfflineEnv
	}
	out := map[string]string{}
	for k, v := range src {
		out[k] = v
	}
	return out
}

// AdaptApptainer derives the Apptainer flag set from package metadata —
// reproducing exactly the Fig 5 flags for the vLLM package.
func AdaptApptainer(host *cruntime.Host, pkg *ContainerPackage, vendor hw.Vendor) *cruntime.Apptainer {
	return &cruntime.Apptainer{
		Host:          host,
		FakeRoot:      pkg.Needs.NeedsRoot,
		WritableTmpfs: pkg.Needs.NeedsWritableRootFS,
		CleanEnv:      pkg.Needs.NeedsCleanEnv,
		NoHome:        pkg.Needs.NeedsCleanEnv, // home isolation rides with env hygiene
		NV:            pkg.Needs.NeedsGPU && vendor == hw.NVIDIA,
		ROCm:          pkg.Needs.NeedsGPU && vendor == hw.AMD,
	}
}

// AdaptPodman derives Podman options from package metadata.
func AdaptPodman(host *cruntime.Host, pkg *ContainerPackage) *cruntime.Podman {
	return &cruntime.Podman{Host: host, DeviceGPUs: pkg.Needs.NeedsGPU}
}

// ModelDirOn returns the conventional model directory on a platform
// filesystem.
func ModelDirOn(fs *fsim.FS, model *llm.ModelSpec) string {
	return "/models/" + model.Name
}

// modelMount binds the platform model directory into the container at the
// path the vLLM images expect.
func modelMount(fs *fsim.FS) cruntime.Mount {
	return cruntime.Mount{FS: fs, HostPath: "/models", CtrPath: "/vllm-workspace/models"}
}

// HasModel reports whether a model's weights are staged on fs.
func HasModel(fs *fsim.FS, model *llm.ModelSpec) bool {
	dir := ModelDirOn(fs, model)
	var have int64
	for _, f := range fs.List(dir) {
		if strings.HasSuffix(f.Path, ".safetensors") {
			have += f.Size
		}
	}
	want := int64(float64(model.ParamsTotal) * model.Quant.BytesPerParam())
	return have >= want
}
