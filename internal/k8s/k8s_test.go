package k8s

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cruntime"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/oci"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/vhttp"
)

type fixture struct {
	eng     *sim.Engine
	fabric  *netsim.Fabric
	net     *vhttp.Net
	host    *cruntime.Host
	cluster *Cluster
}

// webApp is a configurable test program: serves text over its pod IP, and
// optionally crashes after CrashAfter.
type webApp struct {
	CrashAfter time.Duration
	Body       string
	InitWrites string // when set, behaves as an init job writing a file
}

func (a *webApp) Run(ctx *cruntime.ExecContext) error {
	if a.InitWrites != "" {
		// Init-container behaviour: write a marker into the first mount.
		if len(ctx.Mounts) == 0 {
			return fmt.Errorf("no volume to write")
		}
		m := ctx.Mounts[0]
		if _, err := m.FS.WriteContent(m.HostPath+"/"+a.InitWrites, []byte("ready"), ctx.Proc.Now()); err != nil {
			return err
		}
		return nil // exits successfully
	}
	port := 8000
	body := a.Body
	if len(ctx.Mounts) > 0 {
		if f := ctx.Mounts[0].FS.Stat("/marker"); f != nil {
			body += "+marker"
		}
	}
	svc := vhttp.ServiceFunc(func(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
		text := body + " from " + ctx.Hostname
		if len(req.Query) > 0 {
			text += " ?" + req.Query.Encode()
		}
		return vhttp.Text(200, text)
	})
	if err := ctx.Net.Listen(ctx.Hostname, port, svc, vhttp.ListenOptions{}); err != nil {
		return err
	}
	defer ctx.Net.Unlisten(ctx.Hostname, port)
	ctx.SetReady(true)
	if a.CrashAfter > 0 {
		ctx.Proc.Sleep(a.CrashAfter)
		return fmt.Errorf("memory leak bug: OOM after %s", a.CrashAfter)
	}
	ctx.Proc.Sleep(1000 * time.Hour)
	return nil
}

func newFixture(t *testing.T, nodes int) *fixture {
	t.Helper()
	eng := sim.NewEngine(1)
	fabric := netsim.New(eng)
	net := vhttp.NewNet(fabric)
	reg := registry.New(fabric, registry.Config{Name: "quay", EgressBW: 1e15})
	reg.UnpackBW = 0
	reg.Push(&oci.Image{
		Repository: "apps/web", Tag: "v1", Arch: "cpu",
		Layers: []oci.Layer{oci.NewLayer("web", 1000)},
		Config: oci.Config{Entrypoint: []string{"/web"}, WorkingDir: "/"},
	})
	reg.Push(&oci.Image{
		Repository: "apps/init", Tag: "v1", Arch: "cpu",
		Layers: []oci.Layer{oci.NewLayer("init", 500)},
		Config: oci.Config{Entrypoint: []string{"/init"}},
	})
	reg.Push(&oci.Image{
		Repository: "apps/gpu", Tag: "v1", Arch: "cuda",
		Layers: []oci.Layer{oci.NewLayer("gpu", 500)},
		Config: oci.Config{Entrypoint: []string{"/gpu"}},
	})
	progs := cruntime.NewPrograms()
	host := cruntime.NewHost(eng, net, fabric, progs, reg)
	cluster := NewCluster(eng, net, fabric, host, "goodall")
	for i := 0; i < nodes; i++ {
		cluster.AddNode(hw.NewNode(fabric, hw.NodeSpec{
			Name: fmt.Sprintf("goodall%02d", i+1), Cluster: "goodall",
			GPUModel: hw.H100NVL, GPUCount: 2,
		}))
	}
	return &fixture{eng: eng, fabric: fabric, net: net, host: host, cluster: cluster}
}

func webDeployment(name string, replicas int) *Deployment {
	return &Deployment{
		Meta: ObjectMeta{Name: name, Namespace: "ai"},
		Spec: DeploymentSpec{
			Replicas: replicas,
			Template: PodTemplate{
				Meta: ObjectMeta{Labels: map[string]string{"app": name}},
				Spec: PodSpec{
					Containers: []Container{{
						Name: "web", Image: "apps/web:v1",
						Ports: []ContainerPort{{ContainerPort: 8000}},
					}},
				},
			},
		},
	}
}

// TestDeploymentEndToEnd: a two-pod Deployment serves through its Service's
// cluster name and through its Ingress host, and both go through the one
// pick, so consecutive requests alternate over the two pods whichever name
// they use, and reach them with their query string. With no ready pod the
// Service name is refused and the Ingress answers 503.
func TestDeploymentEndToEnd(t *testing.T) {
	f := newFixture(t, 2)
	f.host.Programs.Register("apps/web", func() cruntime.Program { return &webApp{Body: "hello"} })
	f.cluster.ApplyDeployment(webDeployment("web", 2))
	f.cluster.ApplyService(&Service{
		Meta: ObjectMeta{Name: "web", Namespace: "ai"},
		Spec: ServiceSpec{Selector: map[string]string{"app": "web"}, Ports: []ServicePort{{Port: 8000}}},
	})
	f.cluster.ApplyIngress(&Ingress{
		Meta: ObjectMeta{Name: "web", Namespace: "ai"},
		Spec: IngressSpec{Host: "web.apps.example.gov", ServiceName: "web", ServicePort: 8000},
	})
	f.eng.RunFor(2 * time.Minute)

	pods := f.cluster.ReadyPods(map[string]string{"app": "web"})
	if len(pods) != 2 {
		for _, p := range f.cluster.Pods(nil) {
			t.Logf("pod %s: %s ready=%v msg=%s", p.Meta.Name, p.Status.Phase, p.Status.Ready, p.Status.Message)
		}
		t.Fatalf("ready pods = %d, want 2", len(pods))
	}
	svcURL := "http://" + f.cluster.ServiceHost("ai", "web") + ":8000/query"
	if svcURL != "http://web.ai.svc.goodall:8000/query" {
		t.Fatalf("service URL = %s", svcURL)
	}
	ingURL := "http://web.apps.example.gov/query"
	c := &vhttp.Client{Net: f.net, From: "laptop"}
	var bodies []string
	f.eng.Go("client", func(p *sim.Proc) {
		for _, url := range []string{svcURL, ingURL, svcURL, ingURL} {
			resp, err := c.Get(p, url+"?id=abc")
			if err != nil || resp.Status != 200 {
				t.Errorf("GET %s: %v %v", url, err, resp)
				return
			}
			bodies = append(bodies, string(resp.Body))
		}
	})
	f.eng.RunFor(time.Second)
	one, two := "hello from pod-web-00001.goodall ?id=abc", "hello from pod-web-00002.goodall ?id=abc"
	if got, want := strings.Join(bodies, ","), strings.Join([]string{one, two, one, two}, ","); got != want {
		t.Fatalf("served %q, want %q", got, want)
	}

	// No ready pod: the Service name refuses, the Ingress answers 503.
	f.cluster.DeleteDeployment("ai", "web")
	f.eng.RunFor(time.Second)
	var svcErr error
	ingStatus := 0
	f.eng.Go("client", func(p *sim.Proc) {
		_, svcErr = c.Get(p, svcURL)
		if resp, err := c.Get(p, ingURL); err == nil {
			ingStatus = resp.Status
		}
	})
	f.eng.RunFor(time.Second)
	if ce, ok := svcErr.(*vhttp.ConnError); !ok || ce.Reason != "connection refused" {
		t.Fatalf("service name with no ready pod: err = %v, want connection refused", svcErr)
	}
	if ingStatus != 503 {
		t.Fatalf("ingress with no ready pod = %d, want 503", ingStatus)
	}
}

func TestCrashRestartAndIngressRecovery(t *testing.T) {
	// §3.3: "If vLLM containers crash (e.g., due to a memory leak bug) ...
	// Kubernetes automatically takes care of restarting the container and
	// updating the ingress routes."
	f := newFixture(t, 1)
	f.host.Programs.Register("apps/web", func() cruntime.Program {
		return &webApp{Body: "v", CrashAfter: 30 * time.Minute}
	})
	f.cluster.ApplyDeployment(webDeployment("web", 1))
	f.cluster.ApplyService(&Service{
		Meta: ObjectMeta{Name: "web", Namespace: "ai"},
		Spec: ServiceSpec{Selector: map[string]string{"app": "web"}, Ports: []ServicePort{{Port: 8000}}},
	})
	f.cluster.ApplyIngress(&Ingress{
		Meta: ObjectMeta{Name: "web", Namespace: "ai"},
		Spec: IngressSpec{Host: "web.example.gov", ServiceName: "web", ServicePort: 8000},
	})
	f.eng.RunFor(time.Minute)
	pods := f.cluster.ReadyPods(map[string]string{"app": "web"})
	if len(pods) != 1 {
		t.Fatal("pod not ready initially")
	}
	// Let it crash (30 min) and restart (10 s backoff).
	f.eng.RunFor(31 * time.Minute)
	pod := f.cluster.Pods(map[string]string{"app": "web"})[0]
	if pod.Status.Restarts < 1 {
		t.Fatalf("restarts = %d, want ≥ 1 (msg=%s)", pod.Status.Restarts, pod.Status.Message)
	}
	// After backoff the pod is ready again and ingress routes to it.
	f.eng.RunFor(2 * time.Minute)
	var status int
	f.eng.Go("client", func(p *sim.Proc) {
		c := &vhttp.Client{Net: f.net, From: "laptop"}
		resp, err := c.Get(p, "http://web.example.gov/")
		if err == nil {
			status = resp.Status
		}
	})
	f.eng.RunFor(time.Second)
	if status != 200 {
		t.Fatalf("ingress after restart = %d, want 200", status)
	}
}

func TestGPUSchedulingAndOversubscription(t *testing.T) {
	f := newFixture(t, 2) // 2 nodes × 2 GPUs
	f.host.Programs.Register("apps/gpu", func() cruntime.Program { return &webApp{Body: "gpu"} })
	d := webDeployment("gpu", 3)
	d.Spec.Template.Spec.Containers[0].Image = "apps/gpu:v1"
	d.Spec.Template.Spec.Containers[0].Resources.Limits = map[string]string{"nvidia.com/gpu": "2"}
	f.cluster.ApplyDeployment(d)
	f.eng.RunFor(2 * time.Minute)
	running, pending := 0, 0
	for _, p := range f.cluster.Pods(map[string]string{"app": "gpu"}) {
		switch p.Status.Phase {
		case PodRunning:
			running++
		case PodPending:
			pending++
		}
	}
	if running != 2 || pending != 1 {
		t.Fatalf("running=%d pending=%d, want 2 running (4 GPUs total) and 1 pending", running, pending)
	}
	// Each node hosts exactly one 2-GPU pod.
	seen := map[string]int{}
	for _, p := range f.cluster.Pods(map[string]string{"app": "gpu"}) {
		if p.Status.Phase == PodRunning {
			seen[p.Status.NodeName]++
		}
	}
	for node, n := range seen {
		if n != 1 {
			t.Fatalf("node %s hosts %d pods, want 1", node, n)
		}
	}
}

func TestGPUVendorMatching(t *testing.T) {
	f := newFixture(t, 1)
	// Add an AMD node; a pod requesting nvidia.com/gpu must not land there.
	f.cluster.AddNode(hw.NewNode(f.fabric, hw.NodeSpec{
		Name: "amd01", GPUModel: hw.MI300A, GPUCount: 4,
	}))
	f.host.Programs.Register("apps/gpu", func() cruntime.Program { return &webApp{Body: "gpu"} })
	d := webDeployment("gpu", 1)
	d.Spec.Template.Spec.Containers[0].Image = "apps/gpu:v1"
	d.Spec.Template.Spec.Containers[0].Resources.Limits = map[string]string{"nvidia.com/gpu": "2"}
	f.cluster.ApplyDeployment(d)
	f.eng.RunFor(time.Minute)
	pod := f.cluster.Pods(map[string]string{"app": "gpu"})[0]
	if pod.Status.NodeName != "goodall01" {
		t.Fatalf("pod scheduled to %s, want the NVIDIA node", pod.Status.NodeName)
	}
}

func TestNodeFailureReschedulesPods(t *testing.T) {
	f := newFixture(t, 2)
	f.host.Programs.Register("apps/web", func() cruntime.Program { return &webApp{Body: "x"} })
	f.cluster.ApplyDeployment(webDeployment("web", 1))
	f.eng.RunFor(time.Minute)
	pod := f.cluster.Pods(map[string]string{"app": "web"})[0]
	firstNode := pod.Status.NodeName
	// Kill the node.
	for _, n := range f.cluster.Nodes() {
		if n.Name == firstNode {
			n.SetUp(false)
		}
	}
	f.eng.RunFor(2 * time.Minute)
	pods := f.cluster.ReadyPods(map[string]string{"app": "web"})
	if len(pods) != 1 {
		t.Fatalf("ready pods after node failure = %d", len(pods))
	}
	if pods[0].Status.NodeName == firstNode {
		t.Fatalf("replacement pod landed on the dead node %s", firstNode)
	}
}

func TestPVCProvisioningAndInitContainer(t *testing.T) {
	// The vLLM Helm chart pattern: a PVC, an init container populating it,
	// and a main container consuming it.
	f := newFixture(t, 1)
	f.host.Programs.Register("apps/web", func() cruntime.Program { return &webApp{Body: "serve"} })
	f.host.Programs.Register("apps/init", func() cruntime.Program { return &webApp{InitWrites: "marker"} })
	f.cluster.ApplyPVC(&PersistentVolumeClaim{
		Meta: ObjectMeta{Name: "model-storage", Namespace: "ai"},
		Spec: func() PVCSpec {
			var s PVCSpec
			s.StorageClassName = "standard"
			s.Resources.Requests = map[string]string{"storage": "300Gi"}
			return s
		}(),
	})
	d := webDeployment("vllm", 1)
	d.Spec.Template.Spec.Volumes = []Volume{{
		Name: "data", PersistentVolumeClaim: &PVCSource{ClaimName: "model-storage"},
	}}
	d.Spec.Template.Spec.InitContainers = []Container{{
		Name: "fetch-model", Image: "apps/init:v1",
		VolumeMounts: []VolumeMount{{Name: "data", MountPath: "/data"}},
	}}
	d.Spec.Template.Spec.Containers[0].VolumeMounts = []VolumeMount{{Name: "data", MountPath: "/data"}}
	f.cluster.ApplyDeployment(d)
	f.eng.RunFor(2 * time.Minute)

	pods := f.cluster.ReadyPods(map[string]string{"app": "vllm"})
	if len(pods) != 1 {
		for _, p := range f.cluster.Pods(nil) {
			t.Logf("pod %s: %s msg=%s", p.Meta.Name, p.Status.Phase, p.Status.Message)
		}
		t.Fatal("pod with PVC+init not ready")
	}
	fs, err := f.cluster.VolumeFS("ai", "model-storage")
	if err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/marker") {
		t.Fatal("init container's write missing from PVC")
	}
	if fs.Capacity != 300<<30 {
		t.Fatalf("capacity = %d", fs.Capacity)
	}
	// The main container saw the marker written by the init container.
	var body string
	f.eng.Go("probe", func(p *sim.Proc) {
		c := &vhttp.Client{Net: f.net, From: "x"}
		resp, err := c.Get(p, "http://"+pods[0].Status.PodIP+":8000/")
		if err == nil {
			body = string(resp.Body)
		}
	})
	f.eng.RunFor(time.Second)
	if !strings.Contains(body, "+marker") {
		t.Fatalf("main container did not observe init write: %q", body)
	}
}

func TestScaleUpDown(t *testing.T) {
	f := newFixture(t, 2)
	f.host.Programs.Register("apps/web", func() cruntime.Program { return &webApp{Body: "x"} })
	d := webDeployment("web", 1)
	f.cluster.ApplyDeployment(d)
	f.eng.RunFor(time.Minute)
	if got := len(f.cluster.ReadyPods(map[string]string{"app": "web"})); got != 1 {
		t.Fatalf("ready = %d", got)
	}
	d.Spec.Replicas = 3
	f.cluster.ApplyDeployment(d)
	f.eng.RunFor(time.Minute)
	if got := len(f.cluster.ReadyPods(map[string]string{"app": "web"})); got != 3 {
		t.Fatalf("after scale-up ready = %d", got)
	}
	d.Spec.Replicas = 1
	f.cluster.ApplyDeployment(d)
	f.eng.RunFor(time.Minute)
	if got := len(f.cluster.Pods(map[string]string{"app": "web"})); got != 1 {
		t.Fatalf("after scale-down pods = %d", got)
	}
}

func TestDeleteDeploymentRemovesPods(t *testing.T) {
	f := newFixture(t, 2)
	f.host.Programs.Register("apps/web", func() cruntime.Program { return &webApp{Body: "x"} })
	f.cluster.ApplyDeployment(webDeployment("web", 2))
	f.eng.RunFor(time.Minute)
	f.cluster.DeleteDeployment("ai", "web")
	f.eng.RunFor(time.Minute)
	if got := len(f.cluster.Pods(map[string]string{"app": "web"})); got != 0 {
		t.Fatalf("pods after delete = %d", got)
	}
	// GPUs/containers released on every node.
	for _, n := range f.cluster.Nodes() {
		if len(n.FreeGPUs()) != len(n.GPUs) {
			t.Fatalf("GPUs leaked on %s", n.Name)
		}
	}
}

// TestSameNameDeploymentsInTwoNamespaces: Deployments with one name in two
// namespaces each get a pod of their own, and deleting one leaves the
// other's pod.
func TestSameNameDeploymentsInTwoNamespaces(t *testing.T) {
	f := newFixture(t, 2)
	f.host.Programs.Register("apps/web", func() cruntime.Program { return &webApp{Body: "x"} })
	other := webDeployment("web", 1)
	other.Meta.Namespace = "other"
	f.cluster.ApplyDeployment(webDeployment("web", 1))
	f.cluster.ApplyDeployment(other)
	pods := func() string {
		var keys []string
		for _, p := range f.cluster.Pods(nil) {
			keys = append(keys, p.Meta.NamespacedName())
		}
		return strings.Join(keys, ",")
	}
	f.eng.RunFor(time.Minute)
	if got, want := pods(), "ai/web-00001,other/web-00002"; got != want {
		t.Fatalf("pods = %q, want %q", got, want)
	}
	f.cluster.DeleteDeployment("other", "web")
	f.eng.RunFor(time.Minute)
	if got, want := pods(), "ai/web-00001"; got != want {
		t.Fatalf("pods after deleting other/web = %q, want %q", got, want)
	}
}

func TestParseQuantity(t *testing.T) {
	cases := map[string]int64{
		"300Gi": 300 << 30,
		"512Mi": 512 << 20,
		"2Ti":   2 << 40,
		"1024":  1024,
		"8Ki":   8 << 10,
	}
	for in, want := range cases {
		if got := parseQuantity(in); got != want {
			t.Errorf("parseQuantity(%q) = %d, want %d", in, got, want)
		}
	}
}

func TestStoreWatchDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewStore(eng)
	var events []Event
	s.Watch("Thing", func(ev Event) { events = append(events, ev) })
	s.Create("Thing", "a", 1)
	s.Update("Thing", "a", 2)
	s.Delete("Thing", "a")
	if len(events) != 0 {
		t.Fatal("watch events must be asynchronous")
	}
	eng.Run()
	if len(events) != 3 || events[0].Type != Added || events[1].Type != Modified || events[2].Type != Deleted {
		t.Fatalf("events = %+v", events)
	}
	if err := s.Create("Thing", "b", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("Thing", "b", 1); err == nil {
		t.Fatal("duplicate create should fail")
	}
	if err := s.Update("Thing", "ghost", 1); err == nil {
		t.Fatal("update of missing object should fail")
	}
}
