// Package helm implements the Helm workflow the paper migrated to for
// Kubernetes deployments (§3.2, Fig 6): a release's values, the typed form
// of the values file a plan shows, build the bundled vLLM chart's
// Kubernetes objects, and the release installs them into a simulated
// Kubernetes cluster and uninstalls them as a unit.
package helm

import (
	"errors"
	"strconv"
	"strings"

	"repro/internal/k8s"
	"repro/internal/yamlite"
)

// Values are a vLLM chart release's settings: the values file of Fig 6.
type Values struct {
	Image struct {
		Repository, Tag string
		Command         []string // the vLLM container's command
	}
	Replicas  int
	Port      int
	Env       []k8s.EnvVar // the vLLM container's environment
	Resources struct {
		GPUResource string // the device resource name, e.g. nvidia.com/gpu
		GPUs        int
	}
	Storage struct{ Size, Class string }  // the model PVC's request
	Model   struct{ Bucket, Path string } // where the init container fetches weights from
	S3      struct{ Endpoint, AccessKey, SecretKey string }
	// IngressHost is the external host an Ingress routes to the Service;
	// empty installs no Ingress.
	IngressHost string
}

// initImage is the init container's image: the AWS client container of
// Figure 3, which syncs the model from site object storage onto the PVC.
const initImage = "amazon/aws-cli:latest"

// YAML writes the values file (`helm install ... -f values.yaml`), with the
// ingress block only when an ingress host is set. It is the one place the
// chart's value keys are spelled.
func (v *Values) YAML() []byte {
	command := make([]any, len(v.Image.Command))
	for i, arg := range v.Image.Command {
		command[i] = arg
	}
	env := make([]any, len(v.Env))
	for i, e := range v.Env {
		env[i] = map[string]any{"name": e.Name, "value": e.Value}
	}
	tree := map[string]any{
		"image":     map[string]any{"repository": v.Image.Repository, "tag": v.Image.Tag, "command": command},
		"replicas":  v.Replicas,
		"port":      v.Port,
		"env":       env,
		"resources": map[string]any{"gpuResource": v.Resources.GPUResource, "gpus": v.Resources.GPUs},
		"storage":   map[string]any{"size": v.Storage.Size, "class": v.Storage.Class},
		"model":     map[string]any{"bucket": v.Model.Bucket, "path": v.Model.Path},
		"s3":        map[string]any{"endpoint": v.S3.Endpoint, "accessKey": v.S3.AccessKey, "secretKey": v.S3.SecretKey},
	}
	if v.IngressHost != "" {
		tree["ingress"] = map[string]any{"enabled": true, "host": v.IngressHost}
	}
	return yamlite.Marshal(tree)
}

// Release is an installed chart instance.
type Release struct {
	Name      string
	Namespace string
	// Objects tracks what was applied, as (kind, key) pairs for uninstall.
	Objects [][2]string
}

// Install builds the vLLM chart's objects from the values, mirroring the
// upstream chart (§3.2): a Deployment whose pods fetch the model from
// object storage onto the release's PVC with an `s3 sync` init container,
// then serve it from the vLLM container; an Ingress routing the ingress
// host to the Service; the PVC; and the Service over the pods. It applies
// them in that order (`helm install NAME ./charts/vllm -f values.yaml -n
// NS`). Values without a model path are refused before anything is
// applied.
func Install(cluster *k8s.Cluster, release, namespace string, v *Values) (*Release, error) {
	if v.Model.Path == "" {
		return nil, errors.New("helm: chart vllm: required value: model.path is required")
	}
	meta := k8s.ObjectMeta{Name: release, Namespace: namespace}
	app := map[string]string{"app": release}
	claim := release + "-storage"
	mounts := []k8s.VolumeMount{{Name: "data", MountPath: "/data"}}
	dep := &k8s.Deployment{Meta: meta, Spec: k8s.DeploymentSpec{
		Replicas: v.Replicas,
		Template: k8s.PodTemplate{Meta: k8s.ObjectMeta{Labels: app}, Spec: k8s.PodSpec{
			Volumes: []k8s.Volume{{Name: "data", PersistentVolumeClaim: &k8s.PVCSource{ClaimName: claim}}},
			InitContainers: []k8s.Container{{
				Name:  "fetch-model",
				Image: initImage,
				Args:  []string{"s3", "sync", "s3://" + v.Model.Bucket + "/" + v.Model.Path, "/data"},
				Env: []k8s.EnvVar{
					{Name: "AWS_ENDPOINT_URL", Value: v.S3.Endpoint},
					{Name: "AWS_ACCESS_KEY_ID", Value: v.S3.AccessKey},
					{Name: "AWS_SECRET_ACCESS_KEY", Value: v.S3.SecretKey},
					{Name: "AWS_REQUEST_CHECKSUM_CALCULATION", Value: "when_required"},
					{Name: "AWS_MAX_ATTEMPTS", Value: "10"},
				},
				VolumeMounts: mounts,
			}},
			Containers: []k8s.Container{{
				Name:         "vllm",
				Image:        v.Image.Repository + ":" + v.Image.Tag,
				Command:      v.Image.Command,
				Env:          v.Env,
				Ports:        []k8s.ContainerPort{{ContainerPort: v.Port}},
				Resources:    k8s.ResourceRequirements{Limits: map[string]string{v.Resources.GPUResource: strconv.Itoa(v.Resources.GPUs)}},
				VolumeMounts: mounts,
			}},
		}},
	}}
	dep.Meta.Labels = app
	pvc := &k8s.PersistentVolumeClaim{
		Meta: k8s.ObjectMeta{Name: claim, Namespace: namespace},
		Spec: k8s.PVCSpec{StorageClassName: v.Storage.Class},
	}
	pvc.Spec.Resources.Requests = map[string]string{"storage": v.Storage.Size}
	svc := &k8s.Service{Meta: meta, Spec: k8s.ServiceSpec{
		Selector: app,
		Ports:    []k8s.ServicePort{{Port: v.Port}},
	}}

	rel := &Release{Name: release, Namespace: namespace}
	applied := func(kind string, meta k8s.ObjectMeta) {
		rel.Objects = append(rel.Objects, [2]string{kind, meta.NamespacedName()})
	}
	cluster.ApplyDeployment(dep)
	applied(k8s.KindDeployment, dep.Meta)
	if v.IngressHost != "" {
		cluster.ApplyIngress(&k8s.Ingress{Meta: meta, Spec: k8s.IngressSpec{
			Host: v.IngressHost, ServiceName: release, ServicePort: v.Port,
		}})
		applied(k8s.KindIngress, meta)
	}
	cluster.ApplyPVC(pvc)
	applied(k8s.KindPVC, pvc.Meta)
	cluster.ApplyService(svc)
	applied(k8s.KindService, svc.Meta)
	return rel, nil
}

// Uninstall deletes every object the release created.
func Uninstall(cluster *k8s.Cluster, rel *Release) {
	for _, obj := range rel.Objects {
		switch obj[0] {
		case k8s.KindDeployment:
			parts := strings.SplitN(obj[1], "/", 2)
			cluster.DeleteDeployment(parts[0], parts[1])
		default:
			cluster.Store().Delete(obj[0], obj[1])
		}
	}
	rel.Objects = nil
}
