package helm

import (
	"errors"
	"fmt"

	"repro/internal/k8s"
	"repro/internal/yamlite"
)

// VLLMChart returns the bundled vLLM chart, mirroring the upstream project's
// Helm chart as described in §3.2: a PersistentVolumeClaim for model
// storage, an init container that downloads the model from site object
// storage with the AWS client container (same image as Figure 3), the vLLM
// server container itself (Figure 6 values), a Service, and an optional
// Ingress for secure external routing.
func VLLMChart() *Chart {
	return &Chart{
		Name: "vllm",
		Values: map[string]any{
			"image": map[string]any{
				"repository": "vllm/vllm-openai",
				"tag":        "v0.9.1",
				"command": []any{
					"vllm", "serve", "/data/",
					"--host", "0.0.0.0", "--port", "8000",
				},
			},
			"replicas": int64(1),
			"port":     int64(8000),
			"env": []any{
				map[string]any{"name": "HOME", "value": "/data"},
				map[string]any{"name": "HF_HOME", "value": "/data"},
				map[string]any{"name": "HF_HUB_DISABLE_TELEMETRY", "value": "1"},
				map[string]any{"name": "HF_HUB_OFFLINE", "value": "1"},
				map[string]any{"name": "TRANSFORMERS_OFFLINE", "value": "1"},
				map[string]any{"name": "VLLM_NO_USAGE_STATS", "value": "1"},
				map[string]any{"name": "DO_NOT_TRACK", "value": "1"},
			},
			"resources": map[string]any{
				"gpuResource": "nvidia.com/gpu",
				"gpus":        int64(4),
			},
			"storage": map[string]any{
				"size":  "500Gi",
				"class": "standard",
			},
			"model": map[string]any{
				"bucket": "huggingface.co",
				"path":   "",
			},
			"s3": map[string]any{
				"endpoint":  "",
				"accessKey": "",
				"secretKey": "",
			},
			"ingress": map[string]any{
				"enabled": false,
				"host":    "",
			},
			"initImage": "amazon/aws-cli:latest",
		},
		Build: vllmObjects,
	}
}

// vllmObjects builds the vLLM chart's objects from its merged values: a
// Deployment whose pods fetch the model from object storage onto the
// release's PVC with an `s3 sync` init container, then serve it from the
// vLLM container; an Ingress routing ingress.host to the Service when
// ingress.enabled is set; the PVC; and the Service over the pods. A value
// reads as a template prints it, and the chart refuses an empty model.path.
func vllmObjects(release, namespace string, values map[string]any) (*Objects, error) {
	get := func(path string) any { return yamlite.Get(values, path) }
	str := func(path string) string { return text(get(path)) }
	modelPath := str("model.path")
	if modelPath == "" {
		return nil, errors.New("required value: model.path is required")
	}
	port, _ := get("port").(int64)
	replicas, _ := get("replicas").(int64)
	var command []string
	for _, arg := range list(get("image.command")) {
		command = append(command, text(arg))
	}
	var env []k8s.EnvVar
	for _, e := range list(get("env")) {
		env = append(env, k8s.EnvVar{Name: text(yamlite.Get(e, "name")), Value: text(yamlite.Get(e, "value"))})
	}

	meta := k8s.ObjectMeta{Name: release, Namespace: namespace}
	app := map[string]string{"app": release}
	claim := release + "-storage"
	mounts := []k8s.VolumeMount{{Name: "data", MountPath: "/data"}}
	dep := &k8s.Deployment{Meta: meta, Spec: k8s.DeploymentSpec{
		Replicas: int(replicas),
		Template: k8s.PodTemplate{Meta: k8s.ObjectMeta{Labels: app}, Spec: k8s.PodSpec{
			Volumes: []k8s.Volume{{Name: "data", PersistentVolumeClaim: &k8s.PVCSource{ClaimName: claim}}},
			InitContainers: []k8s.Container{{
				Name:  "fetch-model",
				Image: str("initImage"),
				Args:  []string{"s3", "sync", "s3://" + str("model.bucket") + "/" + modelPath, "/data"},
				Env: []k8s.EnvVar{
					{Name: "AWS_ENDPOINT_URL", Value: str("s3.endpoint")},
					{Name: "AWS_ACCESS_KEY_ID", Value: str("s3.accessKey")},
					{Name: "AWS_SECRET_ACCESS_KEY", Value: str("s3.secretKey")},
					{Name: "AWS_REQUEST_CHECKSUM_CALCULATION", Value: "when_required"},
					{Name: "AWS_MAX_ATTEMPTS", Value: "10"},
				},
				VolumeMounts: mounts,
			}},
			Containers: []k8s.Container{{
				Name:         "vllm",
				Image:        str("image.repository") + ":" + str("image.tag"),
				Command:      command,
				Env:          env,
				Ports:        []k8s.ContainerPort{{ContainerPort: int(port)}},
				Resources:    k8s.ResourceRequirements{Limits: map[string]string{str("resources.gpuResource"): str("resources.gpus")}},
				VolumeMounts: mounts,
			}},
		}},
	}}
	dep.Meta.Labels = app
	dep.Spec.Selector.MatchLabels = app
	pvc := &k8s.PersistentVolumeClaim{
		Meta: k8s.ObjectMeta{Name: claim, Namespace: namespace},
		Spec: k8s.PVCSpec{StorageClassName: str("storage.class")},
	}
	pvc.Spec.Resources.Requests = map[string]string{"storage": str("storage.size")}
	objs := &Objects{Deployment: dep, PVC: pvc, Service: &k8s.Service{Meta: meta, Spec: k8s.ServiceSpec{
		Selector: app,
		Ports:    []k8s.ServicePort{{Port: int(port), TargetPort: int(port)}},
	}}}
	if on, _ := get("ingress.enabled").(bool); on {
		objs.Ingress = &k8s.Ingress{Meta: meta, Spec: k8s.IngressSpec{
			Host: str("ingress.host"), ServiceName: release, ServicePort: int(port),
		}}
	}
	return objs, nil
}

// text prints a value as a template does, nil as nothing.
func text(v any) string {
	if v == nil {
		return ""
	}
	return fmt.Sprint(v)
}

// list returns a sequence value's items (none for anything else).
func list(v any) []any {
	items, _ := v.([]any)
	return items
}
