package k8s

import (
	"fmt"
	"time"

	"repro/internal/cruntime"
	"repro/internal/fsim"
	"repro/internal/hw"
	"repro/internal/sim"
)

// kubelet runs pods bound to one node: image pulls, init containers, main
// containers with CRI execution semantics, readiness reporting, restart
// backoff (CrashLoopBackOff), and teardown.
type kubelet struct {
	cluster *Cluster
	node    *hw.Node
	pods    map[string]*podWorker
}

type podWorker struct {
	key      string
	pod      *Pod
	proc     *sim.Proc
	ctr      *cruntime.Container
	stopping bool
	backoff  time.Duration
}

func newKubelet(c *Cluster, n *hw.Node) *kubelet {
	kl := &kubelet{cluster: c, node: n, pods: make(map[string]*podWorker)}
	c.store.Watch(KindPod, func(ev Event) {
		pod, ok := ev.Obj.(*Pod)
		if !ok {
			return
		}
		key := pod.Meta.NamespacedName()
		switch ev.Type {
		case Deleted:
			if pod.Status.NodeName == n.Name {
				kl.stopPod(key)
			}
		default:
			if pod.Status.NodeName == n.Name && kl.pods[key] == nil && pod.Status.Phase == PodPending {
				kl.startPod(pod)
			}
		}
	})
	return kl
}

func (kl *kubelet) startPod(pod *Pod) {
	key := pod.Meta.NamespacedName()
	w := &podWorker{key: key, pod: pod, backoff: 10 * time.Second}
	kl.pods[key] = w
	w.proc = kl.cluster.eng.Go("kubelet:"+key, func(p *sim.Proc) {
		kl.runPod(p, w)
	})
}

func (kl *kubelet) stopPod(key string) {
	w := kl.pods[key]
	if w == nil {
		return
	}
	w.stopping = true
	if w.ctr != nil {
		w.ctr.Stop()
	}
	if w.proc != nil {
		w.proc.Kill()
	}
	delete(kl.pods, key)
	kl.cluster.net.Unlisten(podIP(kl.cluster, w.pod), podPort(w.pod))
}

func podIP(c *Cluster, pod *Pod) string {
	return fmt.Sprintf("pod-%s.%s", pod.Meta.Name, c.Name)
}

func podPort(pod *Pod) int {
	for _, ctr := range pod.Spec.Containers {
		for _, p := range ctr.Ports {
			return p.ContainerPort
		}
	}
	return 8000
}

func (kl *kubelet) failPod(pod *Pod, msg string) {
	pod.Status.Phase = PodFailed
	pod.Status.Ready = false
	pod.Status.Message = msg
	kl.cluster.store.Update(KindPod, pod.Meta.NamespacedName(), pod)
	delete(kl.pods, pod.Meta.NamespacedName())
}

// resolveMounts maps pod volumes into container mounts.
func (kl *kubelet) resolveMounts(p *sim.Proc, pod *Pod, ctr Container) ([]cruntime.Mount, error) {
	byName := map[string]*fsim.FS{}
	for _, vol := range pod.Spec.Volumes {
		switch {
		case vol.PersistentVolumeClaim != nil:
			// Wait briefly for the PV controller to bind.
			var fs *fsim.FS
			var err error
			for i := 0; i < 50; i++ {
				fs, err = kl.cluster.VolumeFS(pod.Meta.Namespace, vol.PersistentVolumeClaim.ClaimName)
				if err == nil {
					break
				}
				p.Sleep(200 * time.Millisecond)
			}
			if err != nil {
				return nil, fmt.Errorf("volume %s: %w", vol.Name, err)
			}
			byName[vol.Name] = fs
		default: // scratch space (emptyDir)
			byName[vol.Name] = fsim.New(kl.cluster.fabric, fsim.Config{
				Name:   fmt.Sprintf("%s:%s:%s", kl.cluster.Name, pod.Meta.Name, vol.Name),
				ReadBW: 3e9, WriteBW: 2e9,
			})
		}
	}
	var mounts []cruntime.Mount
	for _, vm := range ctr.VolumeMounts {
		fs := byName[vm.Name]
		if fs == nil {
			return nil, fmt.Errorf("container %s references unknown volume %q", ctr.Name, vm.Name)
		}
		mounts = append(mounts, cruntime.Mount{FS: fs, HostPath: "/", CtrPath: vm.MountPath})
	}
	return mounts, nil
}

// containerSpec converts a k8s Container into the runtime-agnostic spec.
func (kl *kubelet) containerSpec(pod *Pod, ctr Container, mounts []cruntime.Mount) cruntime.Spec {
	_, gpus := ctr.Resources.GPURequest()
	spec := cruntime.Spec{
		Name:   pod.Meta.Name + "/" + ctr.Name,
		Image:  ctr.Image,
		Env:    ctr.EnvMap(),
		Mounts: mounts,
		GPUs:   cruntime.GPURequest{Count: gpus},
		Props:  kl.cluster.ExtraProps,
	}
	// The Helm-chart convention puts the full command in `command`.
	if len(ctr.Command) > 0 {
		spec.Entrypoint = []string{ctr.Command[0]}
		spec.Args = append(append([]string{}, ctr.Command[1:]...), ctr.Args...)
	} else {
		spec.Args = ctr.Args
	}
	return spec
}

// runContainer launches one container with CRI semantics (root user,
// isolated env, writable overlay, GPUs via device plugin).
func (kl *kubelet) runContainer(p *sim.Proc, pod *Pod, ctr Container, mounts []cruntime.Mount) (*cruntime.Container, error) {
	spec := kl.containerSpec(pod, ctr, mounts)
	cfg, arch, err := kl.cluster.host.ResolveImage(p, kl.node, spec)
	if err != nil {
		return nil, err
	}
	entry := cfg.Entrypoint
	if len(spec.Entrypoint) > 0 {
		entry = spec.Entrypoint
	}
	_, gpus := ctr.Resources.GPURequest()
	ctx := &cruntime.ExecContext{
		Node:           kl.node,
		Env:            cruntime.MergeEnv(cfg.Env, spec.Env, map[string]string{"HOME": "/root"}),
		User:           "root",
		Home:           "/root",
		HomeWritable:   true,
		RootFSWritable: true,
		WorkingDir:     cfg.WorkingDir,
		Mounts:         mounts,
		Args:           spec.Args,
		Entrypoint:     entry,
		GPUVisible:     gpus > 0,
		Hostname:       podIP(kl.cluster, pod),
		ImageArch:      arch,
		Props:          kl.cluster.ExtraProps,
		Net:            kl.cluster.net,
		Fabric:         kl.cluster.fabric,
	}
	return kl.cluster.host.Launch(kl.node, spec, ctx, "k8s")
}

// runPod drives the pod lifecycle: init containers, main container,
// restart-on-crash with exponential backoff.
func (kl *kubelet) runPod(p *sim.Proc, w *podWorker) {
	pod := w.pod
	store := kl.cluster.store
	key := pod.Meta.NamespacedName()

	// Init containers run to completion, in order.
	for _, ic := range pod.Spec.InitContainers {
		mounts, err := kl.resolveMounts(p, pod, ic)
		if err != nil {
			kl.failPod(pod, err.Error())
			return
		}
		c, err := kl.runContainer(p, pod, ic, mounts)
		if err != nil {
			kl.failPod(pod, fmt.Sprintf("init container %s: %v", ic.Name, err))
			return
		}
		p.Wait(c.Done())
		if c.ExitErr != nil {
			kl.failPod(pod, fmt.Sprintf("init container %s failed: %v", ic.Name, c.ExitErr))
			return
		}
	}

	if len(pod.Spec.Containers) == 0 {
		kl.failPod(pod, "no containers in pod spec")
		return
	}
	main := pod.Spec.Containers[0]
	mounts, err := kl.resolveMounts(p, pod, main)
	if err != nil {
		kl.failPod(pod, err.Error())
		return
	}

	for {
		if w.stopping {
			return
		}
		startAt := p.Now()
		c, err := kl.runContainer(p, pod, main, mounts)
		if err != nil {
			kl.failPod(pod, fmt.Sprintf("container %s: %v", main.Name, err))
			return
		}
		w.ctr = c
		pod.Status.Phase = PodRunning
		pod.Status.PodIP = podIP(kl.cluster, pod)
		pod.Status.Message = ""
		store.Update(KindPod, key, pod)
		// Propagate readiness into the pod status (readiness probe).
		c.ReadySignal().OnFire(func() {
			if w.ctr == c && !w.stopping && pod.Status.Phase == PodRunning {
				pod.Status.Ready = true
				store.Update(KindPod, key, pod)
			}
		})
		p.Wait(c.Done())
		if w.stopping {
			return
		}
		pod.Status.Ready = false
		ranFor := p.Now().Sub(startAt)
		if c.ExitErr == nil && c.State == cruntime.StateExited {
			pod.Status.Phase = PodSucceeded
			store.Update(KindPod, key, pod)
			delete(kl.pods, key)
			return
		}
		msg := "container exited"
		if c.ExitErr != nil {
			msg = c.ExitErr.Error()
		}
		// CrashLoopBackOff: exponential, reset after 10 minutes of health.
		if ranFor > 10*time.Minute {
			w.backoff = 10 * time.Second
		}
		pod.Status.Restarts++
		pod.Status.Message = fmt.Sprintf("CrashLoopBackOff: %s (restart in %s)", msg, w.backoff)
		store.Update(KindPod, key, pod)
		p.Sleep(w.backoff)
		if w.backoff < 5*time.Minute {
			w.backoff *= 2
		}
	}
}
