package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cruntime"
	"repro/internal/flux"
	"repro/internal/helm"
	"repro/internal/hw"
	"repro/internal/ingress"
	"repro/internal/k8s"
	"repro/internal/ray"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/slurm"
	"repro/internal/vllm"
)

// jobTimeLimit is the wall time a batch deployment asks its scheduler for,
// Hops' partition maximum, on Slurm and Flux alike. A service that must
// outlive it needs a fresh job before the limit.
const jobTimeLimit = 48 * time.Hour

// Deploy executes a plan: it stages nothing implicitly (call StageModel
// first on HPC platforms) and blocks until the service is ready or failed.
func (d *Deployer) Deploy(p *sim.Proc, pkg *ContainerPackage, pf Platform, cfg DeployConfig) (*Deployment, error) {
	t, err := d.check(pkg, pf, &cfg)
	if err != nil {
		return nil, err
	}
	switch {
	case pf.Kind == "k8s":
		return d.deployK8s(p, pkg, t, cfg)
	case cfg.replicaSet():
		return d.deployReplicaSet(p, pkg, t, cfg)
	}
	return d.deployHPC(p, pkg, t, cfg)
}

// deployReplicaSet launches the initial replicas as independent
// single-instance deployments (each reusing the full per-instance
// plan/startup/fault path) and fronts them with a load-balancing gateway:
// one virtual endpoint that health-checks replicas, spreads requests, and
// retries a failed request on a different replica — the control-plane shape
// Chat AI and OpenTela put in front of scheduler-backed instances. With an
// Autoscale policy the set is elastic: an autoscale.Autoscaler control loop
// resizes it through Deployment.ScaleTo, and the gateway queues cold-start
// requests whenever the set is scaled to zero. check has validated cfg and
// the set's capacity.
func (d *Deployer) deployReplicaSet(p *sim.Proc, pkg *ContainerPackage, t *target, cfg DeployConfig) (*Deployment, error) {
	policy, _ := ingress.ParsePolicy(cfg.RoutePolicy)
	class, _ := sched.ParseClass(cfg.PriorityClass)
	// The initial size sits inside the elastic range (scale-to-zero only
	// happens after the idle timeout, so elastic sets start with at least
	// one); initialReplicas is the single clamp shared with fleet
	// validation and pool accounting.
	n := initialReplicas(&cfg)
	var pol *autoscale.Policy
	if cfg.Autoscale != nil {
		resolved := cfg.Autoscale.WithDefaults()
		// The gateway's SLO breaker and the autoscaler share the latency
		// objective: a p95 breach raises the scaling demand signal before
		// the queue-depth path sees it (scale first, shed only if scaling
		// cannot keep up).
		if resolved.SLOTargetP95 <= 0 {
			resolved.SLOTargetP95 = cfg.SLOTargetP95
		}
		pol = &resolved
	}
	name := pkg.Name
	if cfg.fleetManaged {
		// Fleet members are named by their route key so replica jobs and
		// backend names stay distinct across the fleet's deployments.
		name = pkg.Name + "-" + shortName(cfg.RouteName())
	}
	gw := &ingress.Gateway{
		Net:           d.Site.Net,
		Host:          site.ServiceHost(t.Name),
		Port:          cfg.Port,
		Model:         cfg.RouteName(),
		Unbound:       cfg.fleetManaged,
		Policy:        policy,
		SLOTargetP95:  cfg.SLOTargetP95,
		TTFTTarget:    cfg.TTFTTarget,
		DefaultClass:  class,
		HoldColdStart: pol != nil,
	}
	dp := &Deployment{
		Name:     name,
		Platform: t.Platform,
		dep:      d,
		gateway:  gw,
		pkg:      pkg,
		rcfg:     cfg,
		target:   t,
	}
	if err := gw.Start(p.Engine()); err != nil {
		return nil, fmt.Errorf("core: replica set %s: gateway: %w", name, err)
	}
	if err := dp.addReplicas(p, n); err != nil {
		dp.Stop()
		return nil, fmt.Errorf("core: replica set %s: %w", name, err)
	}
	if !cfg.fleetManaged {
		dp.BaseURL = gw.Endpoint()
		dp.ExternalURL = gw.Endpoint()
	}
	if pol != nil {
		as := &autoscale.Autoscaler{
			Gateway: gw, Scaler: dp, Policy: *pol,
			Name: cfg.RouteName(), Arbiter: cfg.arbiter,
		}
		if err := as.Start(p.Engine()); err != nil {
			dp.Stop()
			return nil, fmt.Errorf("core: replica set %s: %w", name, err)
		}
		gw.AutoscaleStatus = func() any { return as.Status() }
		dp.autoscaler = as
	}
	return dp, nil
}

// shortName compresses a model route name into a job-name-friendly token
// ("meta-llama/Llama-3.1-8B-Instruct" → "llama-3.1-8b-instruct").
func shortName(s string) string {
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return strings.ToLower(s)
}

// checkReplicaCapacity fails fast when n replicas of cfg cannot fit on the
// HPC platform t: oversubscribed jobs would otherwise pend behind the
// running replicas' time limits. Shared by check (a set at its autoscale
// ceiling) and live ScaleTo growth.
func (t *target) checkReplicaCapacity(cfg *DeployConfig, n int) error {
	perReplica := cfg.nodes(t.gpusPerNode)
	if total := len(t.nodes); perReplica*n > total {
		return fmt.Errorf("core: replica set needs %d nodes (%d replicas × %d nodes each) but %s has %d",
			perReplica*n, n, perReplica, t.Name, total)
	}
	return nil
}

// waitReady waits for a container to report ready or exit.
func waitReady(p *sim.Proc, c *cruntime.Container) error {
	readyOrDead := p.Engine().NewSignal()
	c.ReadySignal().OnFire(readyOrDead.Fire)
	c.Done().OnFire(readyOrDead.Fire)
	p.Wait(readyOrDead)
	if c.Ready() {
		return nil
	}
	if c.ExitErr != nil {
		return c.ExitErr
	}
	return fmt.Errorf("core: container %s exited before becoming ready (state %s)", c.ID, c.State)
}

// deployHPC runs one service instance on a Slurm or Flux platform: on a
// Compute-as-Login node when Persistent (Hops), otherwise as one batch job
// on one node or, multi-node, behind a Ray bootstrap (Fig 11). The batch
// path is the same on both schedulers except for the Submit call.
func (d *Deployer) deployHPC(p *sim.Proc, pkg *ContainerPackage, t *target, cfg DeployConfig) (*Deployment, error) {
	if !HasModel(t.fs, cfg.Model) {
		return nil, fmt.Errorf("core: model %s not staged on %s (run StageModel first)", cfg.Model.Name, t.fs.Name)
	}
	spec := d.hpcSpec(pkg, t.image, t.fs, cfg)
	if cfg.Persistent {
		return d.deployCaL(p, pkg, t, spec, cfg)
	}
	started := sim.NewFuture[*Deployment](p.Engine())
	run := func(jp *sim.Proc, nodes []*hw.Node, onCleanup func(func())) error {
		inner, err := d.runOnNodes(jp, t, spec, nodes, pkg, cfg, onCleanup)
		if err != nil {
			started.Resolve(nil, err)
			return err
		}
		started.Resolve(inner, nil)
		// Hold the allocation until the service dies or the job ends.
		holdUntilDead(jp, inner)
		return nil
	}
	name, nodes := "vllm-"+cfg.Model.Short, cfg.nodes(t.gpusPerNode)
	var job *slurm.Job
	var fluxJob *flux.Job
	var err error
	if t.Kind == "slurm" {
		job, err = d.Site.Hops.Submit(slurm.JobSpec{Name: name, Nodes: nodes, TimeLimit: jobTimeLimit,
			Run: func(jc *slurm.JobContext) error { return run(jc.Proc, jc.Nodes, jc.OnCleanup) }})
	} else {
		fluxJob, err = d.Site.Eldorado.Submit(flux.Jobspec{Name: name, NumNodes: nodes, Duration: jobTimeLimit,
			Run: func(fc *flux.JobContext) error { return run(fc.Proc, fc.Nodes, fc.OnCleanup) }})
	}
	if err != nil {
		return nil, err
	}
	dp, err := sim.Await(p, started)
	if err != nil {
		return nil, err
	}
	// Keep the allocation handle: Stop (and elastic scale-down) releases the
	// nodes through scancel or `flux cancel`.
	dp.job, dp.fluxJob = job, fluxJob
	return dp, nil
}

// deployCaL deploys a persistent single-node service on Hops: the operator
// provisions a Compute-as-Login node and gateway route, then the user
// deploys directly on it, outside any job time limit.
func (d *Deployer) deployCaL(p *sim.Proc, pkg *ContainerPackage, t *target, spec cruntime.Spec, cfg DeployConfig) (*Deployment, error) {
	s := d.Site
	free := s.Hops.FreeNodes("batch")
	if len(free) == 0 {
		return nil, fmt.Errorf("core: no idle node available for CaL reservation")
	}
	node := free[len(free)-1]
	extPort := 10000 + cfg.Port%1000
	if _, err := s.ProvisionCaL(node.Name, extPort, cfg.Port); err != nil {
		return nil, err
	}
	dp := &Deployment{Name: pkg.Name, Platform: t.Platform, dep: d, calPort: extPort, target: t}
	ctr, err := t.rt.Run(p, node, spec)
	if err != nil {
		s.CaL.RemoveRoute(extPort)
		s.Hops.ReleaseReservation(node.Name)
		return nil, err
	}
	dp.containers = append(dp.containers, ctr)
	if err := waitReady(p, ctr); err != nil {
		dp.Stop()
		s.Hops.ReleaseReservation(node.Name)
		return nil, err
	}
	dp.server = serverOf(ctr)
	dp.BaseURL = fmt.Sprintf("http://%s:%d", node.Name, cfg.Port)
	dp.ExternalURL = fmt.Sprintf("http://%s:%d", site.CaLGateway, extPort)
	return dp, nil
}

// Relaunch reruns a Compute-as-Login deployment's container on its node
// with the spec it was deployed with: the command a user's cron job
// re-runs once the service has died (§3.3). It returns once the container
// is started, before it is ready; from then on the deployment serves
// from, and Stop stops, the new container too.
func (dp *Deployment) Relaunch(p *sim.Proc) error {
	if dp.calPort == 0 {
		return fmt.Errorf("core: %s is not a Compute-as-Login deployment", dp.Name)
	}
	c := dp.containers[0]
	ctr, err := dp.target.rt.Run(p, c.Node, c.Spec)
	if err != nil {
		return err
	}
	dp.containers = append(dp.containers, ctr)
	dp.server = serverOf(ctr)
	return nil
}

// holdUntilDead parks the job script while the service lives.
func holdUntilDead(p *sim.Proc, dp *Deployment) {
	dead := p.Engine().NewSignal()
	for _, c := range dp.containers {
		c.Done().OnFire(dead.Fire)
	}
	p.Wait(dead)
}

// runOnNodes starts the service on an allocated node set: directly for a
// single node, via Ray bootstrap for multiple (Fig 11).
func (d *Deployer) runOnNodes(p *sim.Proc, t *target, spec cruntime.Spec, nodes []*hw.Node, pkg *ContainerPackage, cfg DeployConfig, onCleanup func(func())) (*Deployment, error) {
	dp := &Deployment{Name: pkg.Name, Platform: t.Platform, dep: d}
	if len(nodes) == 1 {
		ctr, err := t.rt.Run(p, nodes[0], spec)
		if err != nil {
			return nil, err
		}
		dp.containers = append(dp.containers, ctr)
		onCleanup(func() { ctr.Stop() })
		if err := waitReady(p, ctr); err != nil {
			return nil, err
		}
		dp.server = serverOf(ctr)
		dp.BaseURL = fmt.Sprintf("http://%s:%d", nodes[0].Name, cfg.Port)
		return dp, nil
	}

	// Multi-node: one Ray container per node (head first), then exec serve.
	cluster := ray.NewCluster(p.Engine(), "ray-"+dp.Name, len(nodes))
	dp.ray = cluster
	for i, node := range nodes {
		role := "--worker"
		if i == 0 {
			role = "--head"
		}
		rspec := spec
		rspec.Name = fmt.Sprintf("%s-ray-%d", pkg.Name, i)
		rspec.Entrypoint = []string{"run-cluster.sh"}
		rspec.Args = []string{role, nodes[0].Name}
		rspec.Props = map[string]any{"ray.cluster": cluster}
		ctr, err := t.rt.Run(p, node, rspec)
		if err != nil {
			return nil, err
		}
		dp.containers = append(dp.containers, ctr)
		onCleanup(func() { ctr.Stop() })
	}
	p.Wait(cluster.Ready())
	serveArgs := cfg.ServeArgs(cfg.Model.Name)[1:] // drop the "serve" verb
	sp, err := cluster.ExecServe(p, d.Profile.HubHost, serveArgs)
	if err != nil {
		return nil, err
	}
	dp.server = sp
	dp.BaseURL = fmt.Sprintf("http://%s:%d", nodes[0].Name, cfg.Port)
	return dp, nil
}

// serverOf extracts the vLLM server program from a container.
func serverOf(c *cruntime.Container) *vllm.ServerProgram {
	switch prog := c.Program.(type) {
	case *vllm.ServerProgram:
		return prog
	case *ray.BootstrapProgram:
		return prog.Serve
	}
	return nil
}

// deployK8s installs the bundled Helm chart and waits for readiness. The
// deployment's BaseURL is the chart Service's cluster name, which spreads
// requests over the ready pods.
func (d *Deployer) deployK8s(p *sim.Proc, pkg *ContainerPackage, t *target, cfg DeployConfig) (*Deployment, error) {
	const namespace = "ai"
	cluster := t.cluster
	rel, err := helm.Install(cluster, pkg.Name, namespace, d.helmValues(pkg, t.image, cfg))
	if err != nil {
		return nil, err
	}
	dp := &Deployment{Name: pkg.Name, Platform: t.Platform, dep: d, release: rel, cluster: cluster}
	key := (k8s.ObjectMeta{Namespace: namespace, Name: pkg.Name}).NamespacedName()
	// Wait for at least one ready pod (model download + load can take
	// tens of minutes), or stop at the first pod the Deployment replaced
	// because it failed.
	deadline := p.Now().Add(4 * time.Hour)
	for {
		if len(cluster.ReadyPods(map[string]string{"app": pkg.Name})) > 0 {
			dp.BaseURL = fmt.Sprintf("http://%s:%d", cluster.ServiceHost(namespace, pkg.Name), cfg.Port)
			if cfg.IngressHost != "" {
				dp.ExternalURL = fmt.Sprintf("http://%s:%d", cfg.IngressHost, cfg.Port)
			}
			return dp, nil
		}
		if dep, _ := cluster.Store().Get(k8s.KindDeployment, key).(*k8s.Deployment); dep != nil && dep.Status.ReplicaFailure != "" {
			dp.Stop()
			return nil, fmt.Errorf("core: %s on %s: %s", pkg.Name, t.Name, dep.Status.ReplicaFailure)
		}
		if p.Now().After(deadline) {
			dp.Stop()
			return nil, fmt.Errorf("core: %s on %s: pods never became ready", pkg.Name, t.Name)
		}
		p.Sleep(30 * time.Second)
	}
}
