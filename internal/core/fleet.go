package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/autoscale"
	"repro/internal/ingress"
	"repro/internal/llm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/site"
)

// FleetFlagEntry is one item of a parsed `-models` fleet flag.
type FleetFlagEntry struct {
	Alias  string // served/route name ("" = the model's own name)
	Model  *llm.ModelSpec
	Weight int
	// SLOTargetP95 is the per-model latency objective (`p95=<dur>` option;
	// 0 = inherit the fleet-wide flag).
	SLOTargetP95 time.Duration
	// TTFTTarget is the per-model time-to-first-token objective for the
	// engine's deadline scheduler (`ttft=<dur>` option; 0 = inherit the
	// fleet-wide flag).
	TTFTTarget time.Duration
	// Class is the model's default priority class (`class=<name>` option;
	// "" = inherit the fleet-wide flag).
	Class string
	// RoutePolicy is the model's balancing policy (`policy=<name>` option;
	// "" = inherit the fleet-wide flag).
	RoutePolicy string
}

// ParseFleetFlag parses genaictl's `-models` fleet spec (deploy and
// bench): comma-separated `alias=hf-name[:opt...]` items, with alias
// optional. Each colon-separated option after the model name is either a
// bare positive integer (the pool-arbitration weight, default 1),
// `p95=<duration>` (a per-model p95 latency objective), `ttft=<duration>`
// (a per-model time-to-first-token objective for the engine's deadline
// scheduler), `class=<name>` (the model's default priority class), or
// `policy=<name>` (the model's balancing policy), e.g.
//
//	chat=meta-llama/Llama-3.1-8B-Instruct:2:p95=30s:policy=session,bulk=Qwen/Qwen2.5-Coder-7B-Instruct:1:class=batch
func ParseFleetFlag(spec string) ([]FleetFlagEntry, error) {
	var out []FleetFlagEntry
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		e := FleetFlagEntry{Weight: 1}
		// `=` introduces the alias only before the first option separator —
		// options themselves carry `=` (p95=30s, class=batch).
		if eq := strings.Index(item, "="); eq >= 0 {
			if colon := strings.Index(item, ":"); colon < 0 || eq < colon {
				e.Alias, item = item[:eq], item[eq+1:]
			}
		}
		parts := strings.Split(item, ":")
		for _, opt := range parts[1:] {
			switch {
			case strings.HasPrefix(opt, "p95="):
				d, err := time.ParseDuration(opt[len("p95="):])
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("core: fleet spec: bad p95 objective in %q (want a positive duration, e.g. p95=30s)", item)
				}
				e.SLOTargetP95 = d
			case strings.HasPrefix(opt, "ttft="):
				d, err := time.ParseDuration(opt[len("ttft="):])
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("core: fleet spec: bad ttft objective in %q (want a positive duration, e.g. ttft=500ms)", item)
				}
				e.TTFTTarget = d
			case strings.HasPrefix(opt, "class="):
				name := opt[len("class="):]
				if c, err := sched.ParseClass(name); err != nil || c == sched.ClassUnset {
					return nil, fmt.Errorf("core: fleet spec: bad priority class in %q (want class=interactive or class=batch)", item)
				}
				e.Class = name
			case strings.HasPrefix(opt, "policy="):
				name := opt[len("policy="):]
				_, err := ingress.ParsePolicy(name)
				if name == "" {
					// ParsePolicy reads "" as its default; a spec must name one.
					err = fmt.Errorf("empty route policy")
				}
				if err != nil {
					return nil, fmt.Errorf("core: fleet spec: bad route policy in %q: %w", item, err)
				}
				e.RoutePolicy = name
			default:
				w, err := strconv.Atoi(opt)
				if err != nil || w < 1 {
					return nil, fmt.Errorf("core: fleet spec: bad option %q in %q (want a positive weight, p95=<dur>, ttft=<dur>, class=<name>, or policy=<name>)", opt, item)
				}
				e.Weight = w
			}
		}
		m, err := llm.ByName(parts[0])
		if err != nil {
			return nil, fmt.Errorf("core: fleet spec: %w", err)
		}
		e.Model = m
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: fleet spec is empty")
	}
	return out, nil
}

// initialReplicas is the size a replica set actually launches at: the
// requested Replicas clamped into the autoscale policy's range (at least
// one). Shared by deployReplicaSet, fleet validation, and pool Join so
// capacity accounting can never diverge from what deploys.
func initialReplicas(cfg *DeployConfig) int {
	n := cfg.Replicas
	if n < 1 {
		n = 1
	}
	if cfg.Autoscale != nil {
		pol := cfg.Autoscale.WithDefaults()
		if n > pol.MaxReplicas {
			n = pol.MaxReplicas
		}
		if n < pol.MinReplicas {
			n = pol.MinReplicas
		}
		if n < 1 {
			n = 1
		}
	}
	return n
}

// FleetModel is one named model service in a multi-model fleet: a full
// per-model deployment request plus its share of the pool.
type FleetModel struct {
	// Config is the model's deployment request. Its RouteName (ServedName
	// alias or Model.Name) is the `model` value clients send; it must be
	// unique within the fleet. Per-model Replicas, RoutePolicy,
	// SLOTargetP95, TTFTTarget, PriorityClass, and Autoscale all apply.
	Config DeployConfig
	// Weight is the model's relative priority in pool arbitration under
	// contention (default 1).
	Weight int
}

// FleetConfig shapes the fleet-wide front door and capacity.
type FleetConfig struct {
	// Port is the router endpoint's port (default: the package's port).
	Port int
	// PoolNodes bounds the total nodes the fleet's replica sets may hold,
	// arbitrated across models by weight and demand (see autoscale.Pool).
	// 0 disables arbitration: each model scales independently against the
	// platform's full capacity.
	PoolNodes int
}

// SeedFleet stages each entry's model weights onto the platform (the
// test/demo shortcut of SeedModelOn) and assembles the FleetModel list:
// base's per-model knobs with Model, ServedName, and Weight taken from each
// entry. genaictl's deploy and bench commands seed their fleets through
// it.
func SeedFleet(p *sim.Proc, d *Deployer, pf Platform, base DeployConfig, entries []FleetFlagEntry) ([]FleetModel, error) {
	var out []FleetModel
	for _, e := range entries {
		if err := d.SeedModelOn(p, pf, e.Model); err != nil {
			return nil, err
		}
		cfg := base
		cfg.Model = e.Model
		cfg.ServedName = e.Alias
		// Per-model scheduling options override the fleet-wide base.
		if e.SLOTargetP95 > 0 {
			cfg.SLOTargetP95 = e.SLOTargetP95
		}
		if e.TTFTTarget > 0 {
			cfg.TTFTTarget = e.TTFTTarget
		}
		if e.Class != "" {
			cfg.PriorityClass = e.Class
		}
		if e.RoutePolicy != "" {
			cfg.RoutePolicy = e.RoutePolicy
		}
		out = append(out, FleetModel{Config: cfg, Weight: e.Weight})
	}
	return out, nil
}

// Fleet is a live multi-model deployment: N per-model replica sets behind
// one model-routing endpoint, optionally drawing replicas from a shared
// node pool.
type Fleet struct {
	Platform Platform
	// BaseURL is the router endpoint — one URL for every model.
	BaseURL string

	router  *ingress.Router
	pool    *autoscale.Pool
	names   []string // registration order
	byName  map[string]*Deployment
	stopped bool
}

// Router returns the fleet's model-routing front door.
func (f *Fleet) Router() *ingress.Router { return f.router }

// Models lists the fleet's route names in registration order.
func (f *Fleet) Models() []string { return append([]string(nil), f.names...) }

// Deployment returns the replica set serving a route name (nil if unknown).
func (f *Fleet) Deployment(model string) *Deployment { return f.byName[model] }

// Stop tears the whole fleet down: router first (stop admitting), then
// every model's replica set.
func (f *Fleet) Stop() {
	if f.stopped {
		return
	}
	f.stopped = true
	f.router.Stop()
	for _, name := range f.names {
		f.byName[name].Stop()
	}
}

// DeployFleet launches a multi-model fleet on an HPC platform: each model
// deploys as its own replica set (launched concurrently — weight loading
// dominates), fronted by one ingress.Router that dispatches on the request
// body's `model` field, with /v1/models aggregated across the fleet. With
// FleetConfig.PoolNodes set, the models' autoscalers draw replicas from
// one finite node pool: per-model weights arbitrate contention, and a
// burst on one model reclaims idle capacity from another through graceful
// drains instead of failing on node exhaustion.
func (d *Deployer) DeployFleet(p *sim.Proc, pkg *ContainerPackage, pf Platform, fc FleetConfig, models []FleetModel) (*Fleet, error) {
	if pf.Kind == "k8s" {
		return nil, fmt.Errorf("core: fleets deploy on HPC platforms (use per-model Helm releases and the cluster ingress on %s)", pf.Name)
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("core: a fleet needs at least one model")
	}
	port := fc.Port
	if port == 0 {
		port = pkg.Needs.Port
	}

	// Check the whole fleet before launching anything: every member is a
	// replica set behind the fleet's router, checked as Deploy checks one.
	cfgs := make([]DeployConfig, len(models))
	var t *target
	seen := make(map[string]bool, len(models))
	totalInitialNodes := 0
	for i, fm := range models {
		cfg := fm.Config
		cfg.Port = port
		cfg.fleetManaged = true
		name := cfg.RouteName()
		var err error
		if t, err = d.check(pkg, pf, &cfg); err != nil {
			return nil, fmt.Errorf("core: fleet model %q: %w", name, err)
		}
		if seen[name] {
			return nil, fmt.Errorf("core: fleet route name %q is not unique", name)
		}
		seen[name] = true
		totalInitialNodes += initialReplicas(&cfg) * cfg.nodes(t.gpusPerNode)
		cfgs[i] = cfg
	}
	if fc.PoolNodes > 0 && totalInitialNodes > fc.PoolNodes {
		return nil, fmt.Errorf("core: fleet's initial replicas need %d nodes but the pool holds %d", totalInitialNodes, fc.PoolNodes)
	}

	f := &Fleet{
		Platform: pf,
		router:   &ingress.Router{Net: d.Site.Net, Host: site.ServiceHost(pf.Name), Port: port},
		byName:   make(map[string]*Deployment, len(models)),
	}
	if fc.PoolNodes > 0 {
		f.pool = autoscale.NewPool(fc.PoolNodes)
		f.router.PoolStatus = func() any { return f.pool.Status() }
	}
	if err := f.router.Start(p.Engine()); err != nil {
		return nil, fmt.Errorf("core: fleet router: %w", err)
	}

	type launch struct {
		name string
		dp   **Deployment // pool membership closes over the slot
		fut  *sim.Future[*Deployment]
	}
	launches := make([]launch, 0, len(models))
	for i, cfg := range cfgs {
		name := cfg.RouteName()
		slot := new(*Deployment)
		if f.pool != nil {
			// Every member joins — fixed-size sets too, so their nodes
			// count against entitlements and free capacity. Only elastic
			// members get the arbiter wired into their control loop; a
			// fixed member's recorded demand stays at its size, which
			// means it is never preempted and never grows. Members are
			// accounted by occupied nodes (live replicas plus drains in
			// progress), so a reclaimed node is only re-granted once the
			// drain actually released it.
			member, err := f.pool.Join(name, models[i].Weight, cfg.nodes(t.gpusPerNode), initialReplicas(&cfg), func() int {
				if *slot == nil {
					return 0
				}
				return (*slot).OccupiedReplicas()
			})
			if err != nil {
				f.Stop()
				return nil, err
			}
			if cfg.Autoscale != nil {
				cfg.arbiter = member
			}
		}
		fut := sim.NewFuture[*Deployment](p.Engine())
		launches = append(launches, launch{name: name, dp: slot, fut: fut})
		p.Engine().Go("deploy-fleet-"+name, func(rp *sim.Proc) {
			dp, err := d.deployReplicaSet(rp, pkg, t, cfg)
			fut.Resolve(dp, err)
		})
	}
	var firstErr error
	for _, l := range launches {
		dp, err := sim.Await(p, l.fut)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: fleet model %q: %w", l.name, err)
			}
			continue
		}
		*l.dp = dp
		dp.BaseURL = f.router.Endpoint()
		dp.ExternalURL = f.router.Endpoint()
		f.names = append(f.names, l.name)
		f.byName[l.name] = dp
		if err := f.router.AddModel(l.name, dp.Gateway()); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		f.Stop()
		return nil, firstErr
	}
	f.BaseURL = f.router.Endpoint()
	return f, nil
}
