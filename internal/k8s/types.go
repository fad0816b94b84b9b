// Package k8s simulates a Kubernetes cluster in the style of the paper's
// OpenShift platforms (Goodall, CEE): a declarative object store with
// watches, a Deployment controller, a GPU-aware scheduler, per-node kubelets
// that pull images and run containers with CRI semantics, Services, ingress
// routing, and dynamically provisioned persistent volumes.
//
// A Service's cluster name, <name>.<namespace>.svc.<cluster>, resolves per
// request to one of its ready pods, round-robin and with no proxy hop, as
// kube-proxy's DNAT does; the Ingress forwards through the same pick. So
// when a vLLM container crashes or a node drains, the pod is restarted or
// replaced and requests reach whichever pods are ready, without operator
// action (§3.3).
package k8s

import (
	"fmt"

	"repro/internal/fsim"
)

// ObjectMeta is shared object metadata.
type ObjectMeta struct {
	Name      string
	Namespace string
	Labels    map[string]string
}

// NamespacedName keys an object within a kind.
func (m ObjectMeta) NamespacedName() string { return m.namespace() + "/" + m.Name }

// namespace is m's namespace, "default" when unset.
func (m ObjectMeta) namespace() string {
	if m.Namespace == "" {
		return "default"
	}
	return m.Namespace
}

// EnvVar is one container environment entry.
type EnvVar struct {
	Name  string
	Value string
}

// ContainerPort declares a served port.
type ContainerPort struct {
	ContainerPort int
}

// ResourceRequirements carries limits; the only schedulable extended
// resources in this simulation are GPUs (nvidia.com/gpu, amd.com/gpu).
type ResourceRequirements struct {
	Limits map[string]string
}

// GPURequest extracts the GPU count and vendor resource name from limits.
func (r ResourceRequirements) GPURequest() (resource string, count int) {
	for _, res := range []string{"nvidia.com/gpu", "amd.com/gpu", "gpu.intel.com/i915"} {
		if v, ok := r.Limits[res]; ok {
			fmt.Sscanf(v, "%d", &count)
			return res, count
		}
	}
	return "", 0
}

// VolumeMount binds a pod volume into a container path.
type VolumeMount struct {
	Name      string
	MountPath string
}

// Container is one container in a pod.
type Container struct {
	Name         string
	Image        string
	Command      []string
	Args         []string
	Env          []EnvVar
	Ports        []ContainerPort
	Resources    ResourceRequirements
	VolumeMounts []VolumeMount
}

// EnvMap converts Env to a map.
func (c Container) EnvMap() map[string]string {
	m := map[string]string{}
	for _, e := range c.Env {
		m[e.Name] = e.Value
	}
	return m
}

// Volume declares a pod volume: a claim's volume, or scratch space that
// lives with the pod when PersistentVolumeClaim is nil.
type Volume struct {
	Name                  string
	PersistentVolumeClaim *PVCSource
}

// PVCSource references a claim.
type PVCSource struct {
	ClaimName string
}

// PodSpec is the pod's desired state.
type PodSpec struct {
	Containers     []Container
	InitContainers []Container
	Volumes        []Volume
}

// PodPhase is the pod lifecycle phase.
type PodPhase string

const (
	PodPending   PodPhase = "Pending"
	PodRunning   PodPhase = "Running"
	PodSucceeded PodPhase = "Succeeded"
	PodFailed    PodPhase = "Failed"
)

// PodStatus is the observed state.
type PodStatus struct {
	Phase    PodPhase
	NodeName string
	PodIP    string // virtual hostname programs listen on
	Ready    bool
	Restarts int
	Message  string
}

// Pod is the schedulable unit.
type Pod struct {
	Meta   ObjectMeta
	Spec   PodSpec
	Status PodStatus
}

// ownedBy reports whether the Deployment d owns the pod: the pod's
// k8s.deployment label names d, and the pod is in d's namespace.
func (p *Pod) ownedBy(d ObjectMeta) bool {
	return p.Meta.Labels["k8s.deployment"] == d.Name && p.Meta.namespace() == d.namespace()
}

// PodTemplate is a pod stamped out by a controller.
type PodTemplate struct {
	Meta ObjectMeta
	Spec PodSpec
}

// DeploymentSpec declares replicas of a template. The controller finds its
// pods by the k8s.deployment label it stamps on each.
type DeploymentSpec struct {
	Replicas int
	Template PodTemplate
}

// Deployment manages identical pods.
type Deployment struct {
	Meta   ObjectMeta
	Spec   DeploymentSpec
	Status struct {
		// ReplicaFailure names the last pod the controller replaced because
		// it failed, with that pod's status message; "" while none has.
		// Kubernetes reports this kind of status in its ReplicaFailure
		// condition.
		ReplicaFailure string
	}
}

// ServicePort is a port the Service serves; a request to the Service's
// name reaches a pod on the same port.
type ServicePort struct {
	Port int
}

// ServiceSpec selects backend pods.
type ServiceSpec struct {
	Selector map[string]string
	Ports    []ServicePort
}

// Service is a stable name over ready pods (Cluster.ServiceHost).
type Service struct {
	Meta ObjectMeta
	Spec ServiceSpec
}

// IngressSpec routes an external host to a service.
type IngressSpec struct {
	Host        string
	ServiceName string
	ServicePort int
}

// Ingress exposes a service at an external URL.
type Ingress struct {
	Meta ObjectMeta
	Spec IngressSpec
}

// PVCSpec requests storage.
type PVCSpec struct {
	StorageClassName string
	Resources        struct {
		Requests map[string]string
	}
}

// PVCPhase tracks claim binding.
type PVCPhase string

const (
	ClaimPending PVCPhase = "Pending"
	ClaimBound   PVCPhase = "Bound"
)

// PersistentVolumeClaim requests a volume.
type PersistentVolumeClaim struct {
	Meta   ObjectMeta
	Spec   PVCSpec
	Status struct {
		Phase      PVCPhase
		VolumeName string
	}
}

// PersistentVolume is provisioned storage backed by a simulated filesystem.
type PersistentVolume struct {
	Meta     ObjectMeta
	Capacity int64
	Class    string
	FS       *fsim.FS
	ClaimRef string
}

// Kind names for the object store.
const (
	KindPod        = "Pod"
	KindDeployment = "Deployment"
	KindService    = "Service"
	KindIngress    = "Ingress"
	KindPVC        = "PersistentVolumeClaim"
	KindPV         = "PersistentVolume"
)
