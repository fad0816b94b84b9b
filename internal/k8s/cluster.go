package k8s

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cruntime"
	"repro/internal/fsim"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/vhttp"
)

// StorageClass describes dynamically provisioned volume backends.
type StorageClass struct {
	Name      string
	ReadBW    float64
	WriteBW   float64
	Networked bool
}

// Cluster is one Kubernetes cluster (e.g. Goodall).
type Cluster struct {
	Name string

	eng    *sim.Engine
	store  *Store
	net    *vhttp.Net
	fabric *netsim.Fabric
	host   *cruntime.Host

	nodes    []*hw.Node
	kubelets map[string]*kubelet

	classes     map[string]StorageClass
	ingressHost string
	podSeq      int
	volSeq      int
	cursor      map[string]int // each Service's round-robin position, by key

	// ExtraProps is injected into every container's ExecContext (simulation
	// seams such as the upstream hub handle).
	ExtraProps map[string]any
}

// NewCluster assembles a cluster with its controllers running.
func NewCluster(eng *sim.Engine, net *vhttp.Net, fabric *netsim.Fabric, host *cruntime.Host, name string) *Cluster {
	c := &Cluster{
		Name:        name,
		eng:         eng,
		store:       NewStore(eng),
		net:         net,
		fabric:      fabric,
		host:        host,
		kubelets:    make(map[string]*kubelet),
		classes:     map[string]StorageClass{"standard": {Name: "standard", ReadBW: netsim.GBps(2), WriteBW: netsim.GBps(1.5)}},
		ingressHost: "ingress." + name,
		cursor:      make(map[string]int),
		ExtraProps:  map[string]any{},
	}
	c.startDeploymentController()
	c.startScheduler()
	c.startServiceProxy()
	c.startIngressController()
	c.startPVController()
	c.startNodeController()
	return c
}

// Store exposes the API object database (kubectl).
func (c *Cluster) Store() *Store { return c.store }

// AddNode joins a worker node; its kubelet starts immediately.
func (c *Cluster) AddNode(n *hw.Node) {
	c.nodes = append(c.nodes, n)
	kl := newKubelet(c, n)
	c.kubelets[n.Name] = kl
}

// Nodes lists the cluster's nodes.
func (c *Cluster) Nodes() []*hw.Node { return c.nodes }

// AddStorageClass registers a provisionable storage class.
func (c *Cluster) AddStorageClass(sc StorageClass) { c.classes[sc.Name] = sc }

// --- kubectl-style convenience API -------------------------------------

// ApplyDeployment creates or updates a deployment.
func (c *Cluster) ApplyDeployment(d *Deployment) {
	if d.Spec.Replicas <= 0 {
		d.Spec.Replicas = 1
	}
	c.store.Apply(KindDeployment, d.Meta.NamespacedName(), d)
}

// DeleteDeployment removes a deployment and its pods.
func (c *Cluster) DeleteDeployment(namespace, name string) {
	d := ObjectMeta{Namespace: namespace, Name: name}
	c.store.Delete(KindDeployment, d.NamespacedName())
	for _, obj := range c.store.List(KindPod) {
		if pod := obj.(*Pod); pod.ownedBy(d) {
			c.store.Delete(KindPod, pod.Meta.NamespacedName())
		}
	}
}

// ApplyService creates or updates a service.
func (c *Cluster) ApplyService(s *Service) {
	c.store.Apply(KindService, s.Meta.NamespacedName(), s)
}

// ApplyIngress creates or updates an ingress route.
func (c *Cluster) ApplyIngress(ing *Ingress) {
	c.store.Apply(KindIngress, ing.Meta.NamespacedName(), ing)
}

// ApplyPVC creates a claim (dynamically provisioned by class).
func (c *Cluster) ApplyPVC(pvc *PersistentVolumeClaim) {
	c.store.Apply(KindPVC, pvc.Meta.NamespacedName(), pvc)
}

// Pods lists pods, optionally filtered by a label selector.
func (c *Cluster) Pods(selector map[string]string) []*Pod {
	var out []*Pod
	for _, obj := range c.store.List(KindPod) {
		pod := obj.(*Pod)
		if selector == nil || labelsMatch(selector, pod.Meta.Labels) {
			out = append(out, pod)
		}
	}
	return out
}

// ReadyPods returns running+ready pods matching the selector.
func (c *Cluster) ReadyPods(selector map[string]string) []*Pod {
	var out []*Pod
	for _, p := range c.Pods(selector) {
		if p.Status.Phase == PodRunning && p.Status.Ready {
			out = append(out, p)
		}
	}
	return out
}

// PodContainer returns the live container backing a running pod's main
// container (nil when not running) — a simulation hook for reaching the
// application instance (engine metrics, fault injection).
func (c *Cluster) PodContainer(namespace, name string) *cruntime.Container {
	key := (ObjectMeta{Namespace: namespace, Name: name}).NamespacedName()
	pod, ok := c.store.Get(KindPod, key).(*Pod)
	if !ok || pod == nil {
		return nil
	}
	kl := c.kubelets[pod.Status.NodeName]
	if kl == nil {
		return nil
	}
	w := kl.pods[key]
	if w == nil {
		return nil
	}
	return w.ctr
}

// --- Deployment controller ----------------------------------------------

func (c *Cluster) startDeploymentController() {
	reconcile := func(key string) {
		obj := c.store.Get(KindDeployment, key)
		if obj == nil {
			return
		}
		d := obj.(*Deployment)
		var live []*Pod
		for _, p := range c.Pods(nil) {
			if !p.ownedBy(d.Meta) {
				continue
			}
			switch p.Status.Phase {
			case PodFailed:
				d.Status.ReplicaFailure = "pod " + p.Meta.Name + ": " + p.Status.Message
				fallthrough
			case PodSucceeded:
				// Replace terminal pods: delete and let the next pass recreate.
				c.store.Delete(KindPod, p.Meta.NamespacedName())
			default:
				live = append(live, p)
			}
		}
		for len(live) < d.Spec.Replicas {
			c.podSeq++
			labels := map[string]string{"k8s.deployment": d.Meta.Name}
			for k, v := range d.Spec.Template.Meta.Labels {
				labels[k] = v
			}
			pod := &Pod{
				Meta: ObjectMeta{
					Name:      fmt.Sprintf("%s-%05d", d.Meta.Name, c.podSeq),
					Namespace: d.Meta.Namespace,
					Labels:    labels,
				},
				Spec:   d.Spec.Template.Spec,
				Status: PodStatus{Phase: PodPending},
			}
			c.store.Create(KindPod, pod.Meta.NamespacedName(), pod)
			live = append(live, pod)
		}
		for len(live) > d.Spec.Replicas {
			victim := live[len(live)-1]
			live = live[:len(live)-1]
			c.store.Delete(KindPod, victim.Meta.NamespacedName())
		}
	}
	c.store.Watch(KindDeployment, func(ev Event) {
		if ev.Type == Deleted {
			return
		}
		reconcile(ev.Key)
	})
	// Pod churn (failures, deletes) re-triggers the owning deployment.
	c.store.Watch(KindPod, func(ev Event) {
		pod, ok := ev.Obj.(*Pod)
		if !ok {
			return
		}
		if owner := pod.Meta.Labels["k8s.deployment"]; owner != "" {
			ns := pod.Meta.Namespace
			reconcile((ObjectMeta{Namespace: ns, Name: owner}).NamespacedName())
		}
	})
}

// --- Scheduler ------------------------------------------------------------

// gpuCommitted sums GPU requests of non-terminal pods assigned to node.
func (c *Cluster) gpuCommitted(nodeName string) int {
	total := 0
	for _, p := range c.Pods(nil) {
		if p.Status.NodeName != nodeName || p.Status.Phase == PodFailed || p.Status.Phase == PodSucceeded {
			continue
		}
		for _, ctr := range p.Spec.Containers {
			_, n := ctr.Resources.GPURequest()
			total += n
		}
	}
	return total
}

func (c *Cluster) podGPURequest(p *Pod) (string, int) {
	for _, ctr := range p.Spec.Containers {
		if res, n := ctr.Resources.GPURequest(); n > 0 {
			return res, n
		}
	}
	return "", 0
}

func (c *Cluster) startScheduler() {
	var schedule func(pod *Pod)
	schedule = func(pod *Pod) {
		if pod.Status.NodeName != "" || pod.Status.Phase != PodPending {
			return
		}
		res, want := c.podGPURequest(pod)
		var best *hw.Node
		bestFree := -1
		for _, n := range c.nodes {
			if !n.Up() {
				continue
			}
			if want > 0 {
				if len(n.GPUs) == 0 || n.GPUs[0].Model.Vendor.DeviceResource() != res {
					continue
				}
				free := len(n.GPUs) - c.gpuCommitted(n.Name)
				if free < want {
					continue
				}
				if free > bestFree {
					best, bestFree = n, free
				}
				continue
			}
			if bestFree < 0 {
				best, bestFree = n, 0
			}
		}
		if best == nil {
			pod.Status.Message = "0/" + fmt.Sprint(len(c.nodes)) + " nodes available: insufficient GPU"
			c.store.Update(KindPod, pod.Meta.NamespacedName(), pod)
			// Retry while the pod still exists; a periodic nudge suffices.
			c.eng.Schedule(5*time.Second, func() {
				if c.store.Get(KindPod, pod.Meta.NamespacedName()) == pod {
					schedule(pod)
				}
			})
			return
		}
		pod.Status.NodeName = best.Name
		pod.Status.Message = ""
		c.store.Update(KindPod, pod.Meta.NamespacedName(), pod)
	}
	c.store.Watch(KindPod, func(ev Event) {
		if ev.Type == Deleted {
			return
		}
		pod := ev.Obj.(*Pod)
		if pod.Status.NodeName == "" && pod.Status.Phase == PodPending && pod.Status.Message == "" {
			schedule(pod)
		}
	})
}

// --- Service proxy -------------------------------------------------------------

// ServiceHost is a Service's cluster name, <name>.<namespace>.svc.<cluster>
// (vllm.ai.svc.cee). A request to it reaches one of the Service's ready
// pods on the request's port.
func (c *Cluster) ServiceHost(namespace, name string) string {
	return name + "." + (ObjectMeta{Namespace: namespace}).namespace() + ".svc." + c.Name
}

// startServiceProxy resolves each Service's cluster name through pick on
// every request, as kube-proxy's DNAT does, so no proxy hop is added.
func (c *Cluster) startServiceProxy() {
	c.store.Watch(KindService, func(ev Event) {
		svc := ev.Obj.(*Service)
		host := c.ServiceHost(svc.Meta.Namespace, svc.Meta.Name)
		if ev.Type == Deleted {
			c.net.RemoveAlias(host)
			delete(c.cursor, ev.Key)
			return
		}
		c.net.Alias(host, func() string { return c.pick(ev.Key) })
	})
}

// pick chooses the pod that serves one request to the Service stored at
// key: of the pods its selector matches that are running and ready when the
// request arrives, the next on the Service's cursor. It returns the pod's
// address, or "" when the Service is gone or has no ready pod.
func (c *Cluster) pick(key string) string {
	svc, ok := c.store.Get(KindService, key).(*Service)
	if !ok {
		return ""
	}
	pods := c.ReadyPods(svc.Spec.Selector)
	if len(pods) == 0 {
		return ""
	}
	i := c.cursor[key] % len(pods)
	c.cursor[key]++
	return pods[i].Status.PodIP
}

// --- Ingress controller ------------------------------------------------------

func (c *Cluster) startIngressController() {
	// The ingress router terminates every Ingress host and forwards to the
	// pod its Service's pick returns.
	router := vhttp.ServiceFunc(func(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
		var match *Ingress
		for _, obj := range c.store.List(KindIngress) {
			ing := obj.(*Ingress)
			if ing.Spec.Host == req.Host {
				match = ing
				break
			}
		}
		if match == nil {
			return vhttp.Text(404, "default backend - 404 (no ingress for host "+req.Host+")")
		}
		backend := c.pick((ObjectMeta{Namespace: match.Meta.Namespace, Name: match.Spec.ServiceName}).NamespacedName())
		if backend == "" {
			return vhttp.Text(503, "no endpoints available for service "+match.Spec.ServiceName)
		}
		inner := req.ProxyTo(req.ProxyURL(fmt.Sprintf("http://%s:%d", backend, match.Spec.ServicePort)))
		client := &vhttp.Client{Net: c.net, From: c.ingressHost}
		resp, err := client.Do(p, &inner)
		if err != nil {
			return vhttp.Text(502, "bad gateway: "+err.Error())
		}
		return resp
	})
	for _, port := range []int{80, 443, 8000} {
		c.net.Listen(c.ingressHost, port, router, vhttp.ListenOptions{})
	}
	toRouter := func() string { return c.ingressHost }
	c.store.Watch(KindIngress, func(ev Event) {
		ing := ev.Obj.(*Ingress)
		switch ev.Type {
		case Added, Modified:
			c.net.Alias(ing.Spec.Host, toRouter)
		case Deleted:
			c.net.RemoveAlias(ing.Spec.Host)
		}
	})
}

// --- PV controller -------------------------------------------------------------

func (c *Cluster) startPVController() {
	c.store.Watch(KindPVC, func(ev Event) {
		if ev.Type == Deleted {
			return
		}
		pvc := ev.Obj.(*PersistentVolumeClaim)
		if pvc.Status.Phase == ClaimBound {
			return
		}
		className := pvc.Spec.StorageClassName
		if className == "" {
			className = "standard"
		}
		class, ok := c.classes[className]
		if !ok {
			pvc.Status.Phase = ClaimPending
			c.store.Update(KindPVC, pvc.Meta.NamespacedName(), pvc)
			return
		}
		var capacity int64
		if v := pvc.Spec.Resources.Requests["storage"]; v != "" {
			capacity = parseQuantity(v)
		}
		c.volSeq++
		pvName := fmt.Sprintf("pv-%s-%04d", className, c.volSeq)
		fs := fsim.New(c.fabric, fsim.Config{
			Name: c.Name + ":" + pvName, Capacity: capacity,
			ReadBW: class.ReadBW, WriteBW: class.WriteBW, Networked: class.Networked,
		})
		pv := &PersistentVolume{
			Meta: ObjectMeta{Name: pvName}, Capacity: capacity,
			Class: className, FS: fs, ClaimRef: pvc.Meta.NamespacedName(),
		}
		c.store.Create(KindPV, pvName, pv)
		pvc.Status.Phase = ClaimBound
		pvc.Status.VolumeName = pvName
		c.store.Update(KindPVC, pvc.Meta.NamespacedName(), pvc)
	})
}

// parseQuantity understands the subset "100Gi", "500Mi", "2Ti", plain bytes.
func parseQuantity(s string) int64 {
	var n int64
	var unit string
	fmt.Sscanf(s, "%d%s", &n, &unit)
	switch strings.TrimSpace(unit) {
	case "Ki":
		return n << 10
	case "Mi":
		return n << 20
	case "Gi":
		return n << 30
	case "Ti":
		return n << 40
	}
	return n
}

// VolumeFS resolves a bound claim to its backing filesystem.
func (c *Cluster) VolumeFS(namespace, claimName string) (*fsim.FS, error) {
	key := (ObjectMeta{Namespace: namespace, Name: claimName}).NamespacedName()
	obj := c.store.Get(KindPVC, key)
	if obj == nil {
		return nil, fmt.Errorf("k8s: pvc %s not found", key)
	}
	pvc := obj.(*PersistentVolumeClaim)
	if pvc.Status.Phase != ClaimBound {
		return nil, fmt.Errorf("k8s: pvc %s not bound", key)
	}
	pv := c.store.Get(KindPV, pvc.Status.VolumeName).(*PersistentVolume)
	return pv.FS, nil
}

// --- Node controller ---------------------------------------------------------

func (c *Cluster) startNodeController() {
	var tick func()
	tick = func() {
		for _, n := range c.nodes {
			if n.Up() {
				continue
			}
			for _, p := range c.Pods(nil) {
				if p.Status.NodeName == n.Name && p.Status.Phase != PodFailed && p.Status.Phase != PodSucceeded {
					if kl := c.kubelets[n.Name]; kl != nil {
						kl.stopPod(p.Meta.NamespacedName())
					}
					p.Status.Phase = PodFailed
					p.Status.Ready = false
					p.Status.Message = "node " + n.Name + " is NotReady"
					c.store.Update(KindPod, p.Meta.NamespacedName(), p)
				}
			}
		}
		c.eng.Schedule(10*time.Second, tick)
	}
	c.eng.Schedule(10*time.Second, tick)
}
