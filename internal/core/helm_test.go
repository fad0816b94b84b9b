package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/helm"
	"repro/internal/k8s"
	"repro/internal/llm"
)

// appliedObject is one object as the cluster's store saw it added.
type appliedObject struct {
	Kind string
	Meta k8s.ObjectMeta
	Spec any
}

// installGoodallPlan installs the bundled chart into Goodall with the
// values a Goodall plan of cfg passes it, after edit has changed them,
// and returns the release, the objects the store saw added, in the order
// they were applied, and the install error.
func installGoodallPlan(t *testing.T, cfg DeployConfig, edit func(values *helm.Values)) (*helm.Release, []appliedObject, error) {
	t.Helper()
	s, d := newSite(t)
	pkg := VLLMPackage()
	tg, err := d.check(pkg, PlatformGoodall, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	var added []appliedObject
	for _, kind := range []string{k8s.KindDeployment, k8s.KindIngress, k8s.KindPVC, k8s.KindService} {
		tg.cluster.Store().Watch(kind, func(ev k8s.Event) {
			if ev.Type != k8s.Added {
				return
			}
			switch o := ev.Obj.(type) {
			case *k8s.Deployment:
				added = append(added, appliedObject{ev.Kind, o.Meta, o.Spec})
			case *k8s.Ingress:
				added = append(added, appliedObject{ev.Kind, o.Meta, o.Spec})
			case *k8s.PersistentVolumeClaim:
				added = append(added, appliedObject{ev.Kind, o.Meta, o.Spec})
			case *k8s.Service:
				added = append(added, appliedObject{ev.Kind, o.Meta, o.Spec})
			}
		})
	}
	values := d.helmValues(pkg, tg.image, cfg)
	edit(values)
	rel, err := helm.Install(tg.cluster, pkg.Name, "ai", values)
	s.Eng.RunFor(time.Second) // deliver the store's watch events
	return rel, added, err
}

// TestHelmInstallGoodallPlan: the bundled chart, installed with the values
// a Goodall plan passes it, applies the Deployment (an `s3 sync` init
// container, then the vLLM container), the Ingress when the plan names an
// ingress host, the PVC and the Service, in that order, and records each
// in the release. An empty model.path is refused before anything is
// applied.
func TestHelmInstallGoodallPlan(t *testing.T) {
	const (
		name  = "vllm"
		host  = "scout.apps.goodall.example.gov"
		model = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"
	)
	cfg := DeployConfig{Model: llm.ScoutW4A16, TensorParallel: 2, MaxModelLen: 65536, Offline: true}
	meta := k8s.ObjectMeta{Name: name, Namespace: "ai"}
	app := map[string]string{"app": name}
	mounts := []k8s.VolumeMount{{Name: "data", MountPath: "/data"}}
	deployment := k8s.DeploymentSpec{Replicas: 1, Template: k8s.PodTemplate{
		Meta: k8s.ObjectMeta{Labels: app},
		Spec: k8s.PodSpec{
			Volumes: []k8s.Volume{{Name: "data", PersistentVolumeClaim: &k8s.PVCSource{ClaimName: name + "-storage"}}},
			InitContainers: []k8s.Container{{
				Name:  "fetch-model",
				Image: "amazon/aws-cli:latest",
				Args:  []string{"s3", "sync", "s3://huggingface.co/" + model, "/data"},
				Env: []k8s.EnvVar{
					{Name: "AWS_ENDPOINT_URL", Value: "http://s3.abq.example.gov:9000"},
					{Name: "AWS_ACCESS_KEY_ID", Value: "SITEKEY"},
					{Name: "AWS_SECRET_ACCESS_KEY", Value: "SITESECRET"},
					{Name: "AWS_REQUEST_CHECKSUM_CALCULATION", Value: "when_required"},
					{Name: "AWS_MAX_ATTEMPTS", Value: "10"},
				},
				VolumeMounts: mounts,
			}},
			Containers: []k8s.Container{{
				Name:  "vllm",
				Image: "vllm/vllm-openai:v0.9.1",
				Command: []string{"vllm", "serve", "/data/", "--host", "0.0.0.0", "--port", "8000",
					"--served-model-name", model, "--tensor-parallel-size=2",
					"--disable-log-requests", "--max-model-len=65536"},
				Env: []k8s.EnvVar{
					{Name: "DO_NOT_TRACK", Value: "1"},
					{Name: "HF_DATASETS_OFFLINE", Value: "1"},
					{Name: "HF_HOME", Value: "/data"},
					{Name: "HF_HUB_DISABLE_TELEMETRY", Value: "1"},
					{Name: "HF_HUB_ENABLE_HF_TRANSFER", Value: "0"},
					{Name: "HF_HUB_OFFLINE", Value: "1"},
					{Name: "HOME", Value: "/data"},
					{Name: "OMP_NUM_THREADS", Value: "1"},
					{Name: "TRANSFORMERS_OFFLINE", Value: "1"},
					{Name: "VLLM_DISABLE_COMPILE_CACHE", Value: "1"},
					{Name: "VLLM_NO_USAGE_STATS", Value: "1"},
				},
				Ports:        []k8s.ContainerPort{{ContainerPort: 8000}},
				Resources:    k8s.ResourceRequirements{Limits: map[string]string{"nvidia.com/gpu": "2"}},
				VolumeMounts: mounts,
			}},
		},
	}}
	pvc := k8s.PVCSpec{StorageClassName: "standard"}
	pvc.Resources.Requests = map[string]string{"storage": "160Gi"}
	metaWithApp := meta
	metaWithApp.Labels = app

	for _, tc := range []struct {
		name, host string
		want       []appliedObject
	}{
		{"ingress", host, []appliedObject{
			{k8s.KindDeployment, metaWithApp, deployment},
			{k8s.KindIngress, meta, k8s.IngressSpec{Host: host, ServiceName: name, ServicePort: 8000}},
			{k8s.KindPVC, k8s.ObjectMeta{Name: name + "-storage", Namespace: "ai"}, pvc},
			{k8s.KindService, meta, k8s.ServiceSpec{Selector: app, Ports: []k8s.ServicePort{{Port: 8000}}}},
		}},
		{"no-ingress", "", []appliedObject{
			{k8s.KindDeployment, metaWithApp, deployment},
			{k8s.KindPVC, k8s.ObjectMeta{Name: name + "-storage", Namespace: "ai"}, pvc},
			{k8s.KindService, meta, k8s.ServiceSpec{Selector: app, Ports: []k8s.ServicePort{{Port: 8000}}}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cfg
			cfg.IngressHost = tc.host
			rel, added, err := installGoodallPlan(t, cfg, func(*helm.Values) {})
			if err != nil {
				t.Fatal(err)
			}
			if len(added) != len(tc.want) {
				t.Fatalf("applied %d objects, want %d:\n%+v", len(added), len(tc.want), added)
			}
			var objects [][2]string
			for i, want := range tc.want {
				if !reflect.DeepEqual(added[i], want) {
					t.Errorf("applied object %d:\n got %+v\nwant %+v", i, added[i], want)
				}
				objects = append(objects, [2]string{want.Kind, want.Meta.NamespacedName()})
			}
			if !reflect.DeepEqual(rel.Objects, objects) {
				t.Errorf("release objects %v, want %v", rel.Objects, objects)
			}
		})
	}

	t.Run("no-model-path", func(t *testing.T) {
		rel, added, err := installGoodallPlan(t, cfg, func(values *helm.Values) {
			values.Model.Path = ""
		})
		if err == nil || !strings.Contains(err.Error(), "model.path") {
			t.Fatalf("err = %v, want a refusal naming model.path", err)
		}
		if rel != nil || len(added) != 0 {
			t.Fatalf("refused install returned %v and applied %+v", rel, added)
		}
	})
}
