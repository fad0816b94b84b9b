package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cruntime"
	"repro/internal/flux"
	"repro/internal/fsim"
	"repro/internal/helm"
	"repro/internal/hw"
	"repro/internal/ingress"
	"repro/internal/k8s"
	"repro/internal/ray"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/slurm"
	"repro/internal/vhttp"
	"repro/internal/vllm"
)

// Platform identifies a deployment target on the site.
type Platform struct {
	Name string
	Kind string // "slurm" | "flux" | "k8s"
}

// Well-known platforms.
var (
	PlatformHops     = Platform{Name: "hops", Kind: "slurm"}
	PlatformEldorado = Platform{Name: "eldorado", Kind: "flux"}
	PlatformGoodall  = Platform{Name: "goodall", Kind: "k8s"}
	PlatformCEE      = Platform{Name: "cee", Kind: "k8s"}
)

// Platforms lists the site's deployment targets.
func Platforms() []Platform {
	return []Platform{PlatformHops, PlatformEldorado, PlatformGoodall, PlatformCEE}
}

// PlatformByName resolves a platform from its name ("hops", "eldorado",
// "goodall" or "cee").
func PlatformByName(name string) (Platform, error) {
	for _, pf := range Platforms() {
		if pf.Name == name {
			return pf, nil
		}
	}
	return Platform{}, fmt.Errorf("core: unknown platform %q", name)
}

// Deployer plans and executes package deployments across the site.
type Deployer struct {
	Site    *site.Site
	Profile *SiteProfile
}

// NewDeployer builds a deployer with the site's default profile.
func NewDeployer(s *site.Site) *Deployer {
	return &Deployer{
		Site: s,
		Profile: &SiteProfile{
			Name:        "sandia-sim",
			Registry:    s.Quay,
			S3Endpoint:  site.S3Endpoint,
			AccessKey:   site.AccessKey,
			SecretKey:   site.SecretKey,
			ModelBucket: site.ModelBucket,
			HubHost:     site.HubHost,
			PreferredRuntime: map[string]string{
				"hops":     "podman",
				"eldorado": "apptainer",
			},
		},
	}
}

// target is a platform as the site builds it: the nodes a service lands on,
// whose GPUs give the accelerator vendor and the devices per node, and
// where its weights come from. check adds the image and, on HPC platforms,
// the container runtime.
type target struct {
	Platform
	nodes       []*hw.Node
	vendor      hw.Vendor
	gpusPerNode int
	fs          *fsim.FS     // HPC: the parallel filesystem weights are staged on
	stageHost   *hw.Node     // HPC: where StageModel runs the S3 client
	cluster     *k8s.Cluster // Kubernetes

	image string
	rt    hpcRuntime // nil on Kubernetes
}

// hpcRuntime is a container runtime that also prints the command line it
// runs (Figs 4 and 5).
type hpcRuntime interface {
	cruntime.Runtime
	Render(cruntime.Spec) string
}

// target looks a platform up on the site: the one place that knows which
// site objects make up each platform.
func (d *Deployer) target(pf Platform) (*target, error) {
	s := d.Site
	t := &target{Platform: pf}
	switch pf {
	case PlatformHops:
		t.nodes, t.fs, t.stageHost = s.HopsNodes, s.HopsLustre, s.HopsLogin
	case PlatformEldorado:
		// El Dorado staging flows through its own compute fabric: the
		// first node is the transfer host.
		t.nodes, t.fs, t.stageHost = s.EldoradoNodes, s.EldoradoLustre, s.EldoradoNodes[0]
	case PlatformGoodall:
		t.cluster = s.Goodall
	case PlatformCEE:
		t.cluster = s.CEE
	default:
		return nil, fmt.Errorf("core: unknown platform %q of kind %q", pf.Name, pf.Kind)
	}
	if t.cluster != nil {
		t.nodes = t.cluster.Nodes()
	}
	gpus := t.nodes[0].GPUs
	t.vendor, t.gpusPerNode = gpus[0].Model.Vendor, len(gpus)
	return t, nil
}

// check is the one validation of a deployment request, shared by Plan,
// Deploy and DeployFleet, so a plan refuses exactly what a deploy would
// refuse and renders exactly what it would run. It fills cfg's defaults
// and resolves the platform, the image for its accelerators and, on HPC
// platforms, the runtime.
func (d *Deployer) check(pkg *ContainerPackage, pf Platform, cfg *DeployConfig) (*target, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("core: DeployConfig.Model is required")
	}
	t, err := d.target(pf)
	if err != nil {
		return nil, err
	}
	if t.image, err = pkg.ImageFor(t.vendor); err != nil {
		return nil, err
	}
	if cfg.TensorParallel <= 0 {
		cfg.TensorParallel = 1
	}
	if cfg.PipelineParallel <= 0 {
		cfg.PipelineParallel = 1
	}
	if cfg.Port == 0 {
		cfg.Port = pkg.Needs.Port
	}
	policy, err := ingress.ParsePolicy(cfg.RoutePolicy)
	if err != nil {
		return nil, err
	}
	if _, err := sched.ParseClass(cfg.PriorityClass); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Autoscale != nil {
		if err := cfg.Autoscale.Validate(); err != nil {
			return nil, err
		}
	}
	if pf.Kind == "k8s" {
		noGateway := func(setting string) error {
			return fmt.Errorf("core: %s is a setting of the replica-set gateway, and Kubernetes platforms run no gateway", setting)
		}
		switch {
		case cfg.Autoscale != nil:
			return nil, fmt.Errorf("core: Autoscale is not supported on Kubernetes platforms (use the cluster's HPA)")
		case cfg.PipelineParallel > 1:
			return nil, fmt.Errorf("core: PipelineParallel>1 needs a Ray bootstrap, which the Helm chart does not run; deploy multi-node services on an HPC platform")
		case cfg.TensorParallel > t.gpusPerNode:
			return nil, fmt.Errorf("core: TensorParallel=%d needs %d GPUs in one pod, but %s nodes hold %d; lower the tensor-parallel width or deploy on an HPC platform",
				cfg.TensorParallel, cfg.TensorParallel, pf.Name, t.gpusPerNode)
		case policy != ingress.PolicyRoundRobin:
			return nil, noGateway(fmt.Sprintf("RoutePolicy %q", cfg.RoutePolicy))
		case cfg.SLOTargetP95 != 0:
			return nil, noGateway("SLOTargetP95")
		case cfg.TTFTTarget != 0:
			return nil, noGateway("TTFTTarget")
		case cfg.PriorityClass != "":
			return nil, noGateway("PriorityClass")
		}
		return t, nil
	}
	switch name := d.Profile.RuntimeFor(pf.Name, pf.Kind); name {
	case "podman":
		t.rt = AdaptPodman(d.Site.Host, pkg)
	case "apptainer":
		t.rt = AdaptApptainer(d.Site.Host, pkg, t.vendor)
	default:
		return nil, fmt.Errorf("core: runtime %q unsupported on %s", name, pf.Name)
	}
	if cfg.Persistent {
		switch {
		case pf.Kind != "slurm":
			return nil, fmt.Errorf("core: Persistent (Compute-as-Login) nodes are reserved through Slurm; %s runs %s", pf.Name, pf.Kind)
		case cfg.replicaSet():
			return nil, fmt.Errorf("core: Persistent (Compute-as-Login) and a replica set are exclusive; the replica gateway already provides the stable endpoint")
		case cfg.nodes(t.gpusPerNode) > 1:
			return nil, fmt.Errorf("core: Compute-as-Login supports single-node services (need %d nodes)", cfg.nodes(t.gpusPerNode))
		}
	}
	if cfg.replicaSet() {
		// Elastic sets are checked at their ceiling so a scale-up cannot
		// strand pending jobs.
		n := initialReplicas(cfg)
		if cfg.Autoscale != nil {
			n = max(n, cfg.Autoscale.WithDefaults().MaxReplicas)
		}
		if err := t.checkReplicaCapacity(cfg, n); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Plan is the reviewable rendering of a deployment: the exact artifact a
// user would otherwise write by hand (Figs 4, 5, 6).
type Plan struct {
	Platform Platform
	Runtime  string
	Image    string
	Artifact string // podman/apptainer command line or Helm values YAML
	Notes    []string
}

// Plan renders the deployment for (pkg, platform, cfg) without executing.
// It refuses what Deploy refuses: both run the same check.
func (d *Deployer) Plan(pkg *ContainerPackage, pf Platform, cfg DeployConfig) (*Plan, error) {
	t, err := d.check(pkg, pf, &cfg)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Platform: pf, Image: t.image}
	if pf.Kind == "k8s" {
		plan.Runtime = "helm"
		plan.Artifact = string(d.helmValues(pkg, t.image, cfg).YAML())
		plan.Notes = append(plan.Notes, "helm install "+pkg.Name+" ./charts/vllm -f values.yaml")
		return plan, nil
	}
	plan.Runtime = t.rt.Name()
	plan.Artifact = t.rt.Render(d.hpcSpec(pkg, t.image, t.fs, cfg))
	if cfg.PipelineParallel > 1 {
		plan.Notes = append(plan.Notes, fmt.Sprintf(
			"multi-node: %d nodes; Ray cluster bootstrapped via run-cluster.sh head/worker containers, then `vllm serve` exec'd on the head",
			cfg.nodes(t.gpusPerNode)))
	}
	if cfg.Persistent {
		plan.Notes = append(plan.Notes, "persistent: requires a Compute-as-Login node reservation (operator action) routed via "+site.CaLGateway)
	}
	if cfg.Replicas > 1 {
		policy, _ := ingress.ParsePolicy(cfg.RoutePolicy)
		plan.Notes = append(plan.Notes, fmt.Sprintf(
			"replica set: %d instances on distinct nodes behind http://%s:%d (%s routing, health-checked, 1-retry failover)",
			cfg.Replicas, site.ServiceHost(pf.Name), cfg.Port, policy))
	}
	if cfg.Autoscale != nil {
		pol := cfg.Autoscale.WithDefaults()
		plan.Notes = append(plan.Notes, fmt.Sprintf(
			"autoscale: elastic %d–%d replicas, target queue %d/replica, scale-to-zero after %s idle (cold-start requests queue at the gateway)",
			pol.MinReplicas, pol.MaxReplicas, pol.TargetQueueDepth, pol.ScaleToZeroAfter))
	}
	// SLO admission and priority classes live on the replica-set gateway; a
	// single-instance deployment has no gateway to enforce them, so the
	// plan must not claim they are active.
	if cfg.replicaSet() {
		if cfg.SLOTargetP95 > 0 {
			plan.Notes = append(plan.Notes, fmt.Sprintf(
				"slo: p95 objective %s; batch-class requests shed while the gateway's rolling p95 breaches it",
				cfg.SLOTargetP95))
		}
		if cfg.PriorityClass != "" {
			plan.Notes = append(plan.Notes, "priority: requests default to the "+cfg.PriorityClass+" class")
		}
	}
	return plan, nil
}

// hpcSpec builds the runtime-agnostic container spec for HPC deployments.
func (d *Deployer) hpcSpec(pkg *ContainerPackage, image string, fs *fsim.FS, cfg DeployConfig) cruntime.Spec {
	env := EnvFor(pkg, cfg.Offline)
	env["HF_HOME"] = "/root/.cache/huggingface"
	return cruntime.Spec{
		Name:        pkg.Name,
		Image:       image,
		Env:         env,
		Mounts:      []cruntime.Mount{modelMount(fs)},
		WorkingDir:  "/vllm-workspace/models",
		Entrypoint:  []string{"vllm"},
		Args:        cfg.ServeArgs(cfg.Model.Name),
		GPUs:        cruntime.GPURequest{All: true},
		NetworkHost: true,
		IPCHost:     true,
		Port:        cfg.Port,
	}
}

// helmValues builds the chart values for Kubernetes deployments (Fig 6).
// The command's head is the chart's: the PVC path as the model argument,
// host and port, the served name and Fig 6's TP spelling; the engine flags
// after it are the ones every platform gets.
func (d *Deployer) helmValues(pkg *ContainerPackage, image string, cfg DeployConfig) *helm.Values {
	v := &helm.Values{Replicas: max(cfg.Replicas, 1), Port: cfg.Port, IngressHost: cfg.IngressHost}
	v.Image.Repository, v.Image.Tag = image, "latest"
	if i := strings.LastIndex(image, ":"); i > strings.LastIndex(image, "/") {
		v.Image.Repository, v.Image.Tag = image[:i], image[i+1:]
	}
	v.Image.Command = append([]string{"vllm", "serve", "/data/", "--host", "0.0.0.0",
		"--port", fmt.Sprint(cfg.Port),
		"--served-model-name", cfg.RouteName(),
		fmt.Sprintf("--tensor-parallel-size=%d", cfg.TensorParallel),
	}, cfg.engineFlags()...)
	env := EnvFor(pkg, cfg.Offline)
	env["HOME"] = "/data"
	env["HF_HOME"] = "/data"
	for _, k := range slices.Sorted(maps.Keys(env)) {
		v.Env = append(v.Env, k8s.EnvVar{Name: k, Value: env[k]})
	}
	v.Resources.GPUResource, v.Resources.GPUs = "nvidia.com/gpu", cfg.TensorParallel
	storage := cfg.Model.WeightBytes()*3/2>>30 + 64
	v.Storage.Size, v.Storage.Class = fmt.Sprintf("%dGi", storage), "standard"
	v.Model.Bucket, v.Model.Path = d.Profile.ModelBucket, cfg.Model.Name
	v.S3.Endpoint, v.S3.AccessKey, v.S3.SecretKey = d.Profile.S3Endpoint, d.Profile.AccessKey, d.Profile.SecretKey
	return v
}

// Deployment is a live deployed service.
type Deployment struct {
	Name     string
	Platform Platform
	BaseURL  string // reachable inside the site fabric
	// ExternalURL is set when the service is routed off-platform (CaL or
	// Kubernetes ingress).
	ExternalURL string

	server     *vllm.ServerProgram
	containers []*cruntime.Container
	job        *slurm.Job
	fluxJob    *flux.Job
	release    *helm.Release
	cluster    *k8s.Cluster
	ray        *ray.Cluster
	calPort    int
	dep        *Deployer
	stopped    bool

	// Replica-set deployments: the child instances and the load-balancing
	// gateway fronting them (BaseURL points at the gateway endpoint). The
	// pkg/rcfg pair is the checked recipe for launching one more replica,
	// and target the platform it lands on, so the set can be resized live;
	// nextReplicaID keeps backend names unique across scale events.
	// Children record their gateway backendName.
	gateway       *ingress.Gateway
	replicas      []*Deployment
	autoscaler    *autoscale.Autoscaler
	pkg           *ContainerPackage
	rcfg          DeployConfig
	target        *target
	nextReplicaID int
	backendName   string
	// draining counts replicas popped from the set whose graceful drain
	// has not finished — they still hold scheduler nodes, so capacity
	// accounting (the fleet pool) must keep seeing them.
	draining int
	// launching counts replica launches in flight (scheduler job submitted,
	// weights still loading): they already occupy nodes, so capacity
	// accounting must see them before they register with the gateway, or
	// a shared pool could grant the same nodes to another model during the
	// cold-start window.
	launching int
}

// Replicas enumerates the deployment's instances: the child deployments of
// a replica set (possibly empty when scaled to zero), or the deployment
// itself for the single-instance shape. Each replica supports per-replica
// Healthy, Stop, and Engine.
func (dp *Deployment) Replicas() []*Deployment {
	if dp.gateway != nil {
		return append([]*Deployment(nil), dp.replicas...)
	}
	return []*Deployment{dp}
}

// Gateway returns the replica set's load balancer (nil for single-instance
// deployments, where BaseURL reaches the engine directly).
func (dp *Deployment) Gateway() *ingress.Gateway { return dp.gateway }

// Autoscaler returns the elastic controller of an autoscaled replica set
// (nil otherwise).
func (dp *Deployment) Autoscaler() *autoscale.Autoscaler { return dp.autoscaler }

// CurrentReplicas implements autoscale.Scaler: the live instance count.
func (dp *Deployment) CurrentReplicas() int { return len(dp.replicas) }

// ScaleTo elastically resizes a replica-set deployment to n instances:
// growth launches fresh single-instance deployments concurrently (each a
// new scheduler job on a distinct node set) and registers them with the
// gateway as they turn ready; shrinkage gracefully drains the newest
// replicas through the gateway before cancelling their jobs. n == 0 is
// scale-to-zero: the gateway endpoint stays up and (with an Autoscale
// policy) queues requests until the next scale-up. Implements
// autoscale.Scaler; callers must serialize ScaleTo invocations (the
// autoscaler's control loop does).
func (dp *Deployment) ScaleTo(p *sim.Proc, n int) error {
	if dp.gateway == nil {
		return fmt.Errorf("core: %s is not a replica-set deployment", dp.Name)
	}
	if dp.stopped {
		return fmt.Errorf("core: deployment %s is stopped", dp.Name)
	}
	if n < 0 {
		n = 0
	}
	if k := n - len(dp.replicas); k > 0 {
		return dp.addReplicas(p, k)
	}
	for len(dp.replicas) > n {
		if err := dp.RemoveReplica(p); err != nil {
			return err
		}
	}
	return nil
}

// addReplicas launches k single-instance deployments concurrently (weight
// load dominates startup; the scheduler hands each 1-instance job a
// distinct node set) and registers each with the gateway once ready —
// which also releases any requests held for a cold start. Partial success
// keeps the replicas that did come up and reports the first error.
func (dp *Deployment) addReplicas(p *sim.Proc, k int) error {
	d := dp.dep
	if err := dp.target.checkReplicaCapacity(&dp.rcfg, len(dp.replicas)+k); err != nil {
		return err
	}
	type launch struct {
		name string
		fut  *sim.Future[*Deployment]
	}
	launches := make([]launch, 0, k)
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("%s-%d", dp.Name, dp.nextReplicaID)
		dp.nextReplicaID++
		fut := sim.NewFuture[*Deployment](p.Engine())
		launches = append(launches, launch{name: name, fut: fut})
		dp.launching++
		p.Engine().Go("deploy-"+name, func(rp *sim.Proc) {
			r, err := d.deployHPC(rp, dp.pkg, dp.target, dp.rcfg)
			fut.Resolve(r, err)
		})
	}
	var firstErr error
	for _, l := range launches {
		r, err := sim.Await(p, l.fut)
		// The launch hands its node accounting over in the same event: it
		// either joins the replica set below or never held its nodes.
		dp.launching--
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if dp.stopped {
			r.Stop()
			continue
		}
		host, port, err := vhttp.SplitHostPort(r.BaseURL)
		if err != nil {
			r.Stop()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.backendName = l.name
		dp.replicas = append(dp.replicas, r)
		dp.gateway.AddBackend(l.name, host, port)
	}
	return firstErr
}

// RemoveReplica shrinks the replica set by one instance, newest first: the
// gateway stops routing to it immediately, in-flight requests drain
// (bounded), and only then is the instance stopped and its scheduler job
// cancelled — so a scale-down is invisible to clients.
func (dp *Deployment) RemoveReplica(p *sim.Proc) error {
	if dp.gateway == nil {
		return fmt.Errorf("core: %s is not a replica-set deployment", dp.Name)
	}
	if len(dp.replicas) == 0 {
		return fmt.Errorf("core: %s has no replicas to remove", dp.Name)
	}
	victim := dp.replicas[len(dp.replicas)-1]
	dp.replicas = dp.replicas[:len(dp.replicas)-1]
	dp.draining++
	if sig := dp.gateway.RemoveBackend(victim.backendName); sig != nil {
		p.WaitTimeout(sig, 10*time.Minute)
	}
	victim.Stop()
	dp.draining--
	return nil
}

// OccupiedReplicas counts the replicas holding (or actively claiming)
// scheduler nodes: the live set, drains in progress, and launches in
// flight. This — not CurrentReplicas — is what shared-capacity accounting
// must see: a pool would otherwise hand a draining replica's node to
// another model before it is free, or double-grant the nodes a cold-
// starting replica is already loading weights on.
func (dp *Deployment) OccupiedReplicas() int {
	return len(dp.replicas) + dp.draining + dp.launching
}

// Engine exposes the serving engine (metrics, fault injection). For
// Kubernetes deployments it resolves through the first ready pod; for
// replica sets, through the first replica whose engine is still alive.
func (dp *Deployment) Engine() *vllm.Engine {
	if len(dp.replicas) > 0 {
		for _, r := range dp.replicas {
			if e := r.Engine(); e != nil {
				if crashed, _ := e.Crashed(); !crashed {
					return e
				}
			}
		}
		return nil
	}
	if dp.server != nil {
		return dp.server.Engine
	}
	if dp.cluster != nil {
		for _, pod := range dp.cluster.ReadyPods(map[string]string{"app": dp.Name}) {
			if ctr := dp.cluster.PodContainer(pod.Meta.Namespace, pod.Meta.Name); ctr != nil {
				if sp := serverOf(ctr); sp != nil {
					return sp.Engine
				}
			}
		}
	}
	return nil
}

// LoseRayWorker kills one Ray worker container of a multi-node deployment
// (fault injection for the §3.5 fragility experiments). No-op for
// single-node deployments.
func (dp *Deployment) LoseRayWorker() {
	if dp.ray == nil || len(dp.containers) < 2 {
		return
	}
	// The last container is a worker; stopping it triggers Ray's
	// worker-lost path via the bootstrap program's teardown.
	victim := dp.containers[len(dp.containers)-1]
	dp.ray.LoseWorker(victim.Node.Name, fmt.Errorf("container killed"))
	victim.Stop()
}

// Healthy reports whether the service answers its health endpoint.
func (dp *Deployment) Healthy(p *sim.Proc) bool {
	client := &vhttp.Client{Net: dp.dep.Site.Net, From: site.LoginHops}
	resp, err := client.Get(p, dp.BaseURL+"/health")
	return err == nil && resp.Status == 200
}

// Stop tears the deployment down: containers, jobs, releases, CaL routes,
// and — for replica sets — the gateway plus every replica.
func (dp *Deployment) Stop() {
	if dp.stopped {
		return
	}
	dp.stopped = true
	if dp.autoscaler != nil {
		dp.autoscaler.Stop()
	}
	if dp.gateway != nil {
		dp.gateway.Stop()
	}
	for _, r := range dp.replicas {
		r.Stop()
	}
	if dp.server != nil && dp.server.Engine != nil {
		dp.server.Engine.Stop()
	}
	for _, c := range dp.containers {
		c.Stop()
	}
	if dp.job != nil {
		dp.dep.Site.Hops.Cancel(dp.job)
	}
	if dp.fluxJob != nil {
		dp.dep.Site.Eldorado.Cancel(dp.fluxJob)
	}
	if dp.release != nil && dp.cluster != nil {
		helm.Uninstall(dp.cluster, dp.release)
	}
	if dp.calPort != 0 {
		dp.dep.Site.CaL.RemoveRoute(dp.calPort)
	}
}
