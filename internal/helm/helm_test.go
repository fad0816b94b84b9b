package helm

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cruntime"
	"repro/internal/hw"
	"repro/internal/k8s"
	"repro/internal/netsim"
	"repro/internal/oci"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/vhttp"
)

// scoutValues are the values of a Scout TP4 release with an ingress.
func scoutValues() *Values {
	v := &Values{Replicas: 1, Port: 8000, IngressHost: "scout.apps.goodall.example.gov"}
	v.Image.Repository, v.Image.Tag = "vllm/vllm-openai", "v0.9.1"
	v.Image.Command = []string{
		"vllm", "serve", "/data/",
		"--host", "0.0.0.0", "--port", "8000",
		"--served-model-name", "meta-llama/Llama-4-Scout-17B-16E-Instruct",
		"--tensor-parallel-size=4",
		"--disable-log-requests",
		"--max-model-len=65536",
	}
	v.Env = []k8s.EnvVar{{Name: "HF_HOME", Value: "/data"}, {Name: "HOME", Value: "/data"}}
	v.Resources.GPUResource, v.Resources.GPUs = "nvidia.com/gpu", 4
	v.Storage.Size, v.Storage.Class = "500Gi", "standard"
	v.Model.Bucket, v.Model.Path = "huggingface.co", "meta-llama/Llama-4-Scout-17B-16E-Instruct"
	v.S3.Endpoint, v.S3.AccessKey, v.S3.SecretKey = "http://s3.example.gov:9000", "AK", "SK"
	return v
}

// TestRenderValidation: the chart refuses an empty model.path and applies
// nothing, and with the ingress off it builds no Ingress.
func TestRenderValidation(t *testing.T) {
	_, cluster, _ := newK8sFixture(t)
	v := scoutValues()
	v.Model.Path = ""
	if _, err := Install(cluster, "x", "ai", v); err == nil || !strings.Contains(err.Error(), "model.path") {
		t.Fatalf("err = %v, want required-value failure", err)
	}
	if got := cluster.Store().List(k8s.KindDeployment); len(got) != 0 {
		t.Fatalf("refused install applied %v", got)
	}
	v = scoutValues()
	v.IngressHost = ""
	rel, err := Install(cluster, "x", "ai", v)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Objects) != 3 || cluster.Store().Get(k8s.KindIngress, "ai/x") != nil {
		t.Fatalf("release objects = %v, want 3 without an ingress", rel.Objects)
	}
}

func newK8sFixture(t *testing.T) (*sim.Engine, *k8s.Cluster, *cruntime.Host) {
	t.Helper()
	eng := sim.NewEngine(1)
	fabric := netsim.New(eng)
	net := vhttp.NewNet(fabric)
	reg := registry.New(fabric, registry.Config{Name: "quay", EgressBW: 1e15})
	reg.UnpackBW = 0
	for _, im := range oci.Catalog() {
		reg.Push(im)
	}
	progs := cruntime.NewPrograms()
	host := cruntime.NewHost(eng, net, fabric, progs, reg)
	cluster := k8s.NewCluster(eng, net, fabric, host, "goodall")
	for i := 0; i < 2; i++ {
		cluster.AddNode(hw.NewNode(fabric, hw.NodeSpec{
			Name: fmt.Sprintf("goodall%02d", i+1), GPUModel: hw.H100NVL, GPUCount: 2,
		}))
	}
	return eng, cluster, host
}

func TestInstallCreatesObjects(t *testing.T) {
	eng, cluster, host := newK8sFixture(t)
	// Stub programs so pods can exist (they'll fail on missing S3, which is
	// fine for object-level assertions).
	host.Programs.Register("amazon/aws-cli", func() cruntime.Program {
		return cruntime.ProgramFunc(func(ctx *cruntime.ExecContext) error { return nil })
	})
	host.Programs.Register("vllm/vllm-openai", func() cruntime.Program {
		return cruntime.ProgramFunc(func(ctx *cruntime.ExecContext) error {
			ctx.SetReady(true)
			ctx.Proc.Sleep(1000 * time.Hour)
			return nil
		})
	})
	v := scoutValues()
	v.Resources.GPUs = 2
	rel, err := Install(cluster, "scout", "ai", v)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Objects) != 4 {
		t.Fatalf("release objects = %v", rel.Objects)
	}
	eng.RunFor(2 * time.Minute)
	if cluster.Store().Get(k8s.KindDeployment, "ai/scout") == nil {
		t.Fatal("deployment missing")
	}
	if cluster.Store().Get(k8s.KindService, "ai/scout") == nil {
		t.Fatal("service missing")
	}
	if _, err := cluster.VolumeFS("ai", "scout-storage"); err != nil {
		t.Fatalf("pvc not bound: %v", err)
	}
	pods := cluster.ReadyPods(map[string]string{"app": "scout"})
	if len(pods) != 1 {
		for _, p := range cluster.Pods(nil) {
			t.Logf("pod %s: %s %s", p.Meta.Name, p.Status.Phase, p.Status.Message)
		}
		t.Fatalf("ready pods = %d", len(pods))
	}
	// Uninstall removes everything.
	Uninstall(cluster, rel)
	eng.RunFor(time.Minute)
	if got := len(cluster.Pods(map[string]string{"app": "scout"})); got != 0 {
		t.Fatalf("pods after uninstall = %d", got)
	}
	if cluster.Store().Get(k8s.KindService, "ai/scout") != nil {
		t.Fatal("service survived uninstall")
	}
}
