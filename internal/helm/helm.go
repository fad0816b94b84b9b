// Package helm implements the Helm workflow the paper migrated to for
// Kubernetes deployments (§3.2, Fig 6): a chart's default values are
// layered under a release's values file, the chart builds its Kubernetes
// objects from the merged values, and the release installs them into a
// simulated Kubernetes cluster and uninstalls them as a unit.
package helm

import (
	"fmt"
	"strings"

	"repro/internal/k8s"
	"repro/internal/yamlite"
)

// Chart is a named chart: its default values and the function that builds
// a release's objects from the merged values.
type Chart struct {
	Name   string
	Values map[string]any // defaults (values.yaml)
	Build  func(release, namespace string, values map[string]any) (*Objects, error)
}

// Objects are the Kubernetes objects one release applies. Ingress is nil
// when the values leave it off.
type Objects struct {
	Deployment *k8s.Deployment
	Ingress    *k8s.Ingress
	PVC        *k8s.PersistentVolumeClaim
	Service    *k8s.Service
}

// Release is an installed chart instance.
type Release struct {
	Name      string
	Namespace string
	// Objects tracks what was applied, as (kind, key) pairs for uninstall.
	Objects [][2]string
}

// Install deep-merges the override values onto the chart's defaults,
// builds the chart's objects from them and applies the Deployment, the
// Ingress when there is one, the PVC and the Service, in that order
// (`helm install NAME CHART -f values.yaml -n NS`). A chart that refuses
// its values applies nothing.
func Install(cluster *k8s.Cluster, chart *Chart, releaseName, namespace string, overrides map[string]any) (*Release, error) {
	values, _ := yamlite.Merge(chart.Values, overrides).(map[string]any)
	objs, err := chart.Build(releaseName, namespace, values)
	if err != nil {
		return nil, fmt.Errorf("helm: chart %s: %w", chart.Name, err)
	}
	rel := &Release{Name: releaseName, Namespace: namespace}
	applied := func(kind string, meta k8s.ObjectMeta) {
		rel.Objects = append(rel.Objects, [2]string{kind, meta.NamespacedName()})
	}
	cluster.ApplyDeployment(objs.Deployment)
	applied(k8s.KindDeployment, objs.Deployment.Meta)
	if ing := objs.Ingress; ing != nil {
		cluster.ApplyIngress(ing)
		applied(k8s.KindIngress, ing.Meta)
	}
	cluster.ApplyPVC(objs.PVC)
	applied(k8s.KindPVC, objs.PVC.Meta)
	cluster.ApplyService(objs.Service)
	applied(k8s.KindService, objs.Service.Meta)
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
