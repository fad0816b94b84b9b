// Package cruntime models container runtimes and the execution environments
// they present to containerized applications.
//
// The same OCI image runs under multiple runtimes — Podman, Apptainer, and
// (via internal/k8s) kubelet — but each runtime has different *default
// semantics*: who the process runs as, whether $HOME is mapped in, whether the
// host environment leaks through, whether the root filesystem is writable,
// and how GPUs become visible. The paper's case study (§3.2) shows vLLM
// crashing under Apptainer defaults and the flag set that fixes it (Fig 5);
// this package reproduces those semantics so the crash and the fix are
// testable behaviours.
//
// Containerized applications are Programs registered per image repository;
// a runtime launches the image's Program inside an ExecContext describing
// exactly the environment that runtime would have constructed.
package cruntime

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/fsim"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/oci"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/vhttp"
)

// Mount binds a host filesystem path into the container.
type Mount struct {
	FS       *fsim.FS
	HostPath string
	CtrPath  string
	ReadOnly bool
}

// GPURequest asks for accelerators. All=true requests every GPU on the node
// (the `--device nvidia.com/gpu=all` form); otherwise Count GPUs.
type GPURequest struct {
	All   bool
	Count int
}

func (g GPURequest) wanted(node *hw.Node) int {
	if g.All {
		return len(node.GPUs)
	}
	return g.Count
}

// Spec is the runtime-agnostic description of a containerized workload:
// what to run, not how a particular runtime runs it.
type Spec struct {
	Name  string
	Image string // reference resolved against a registry
	// FlattenedFile points at a single-file (SIF/SquashFS) image on a
	// filesystem instead of a registry pull.
	FlattenedFile *Mount

	Env         map[string]string
	Mounts      []Mount
	WorkingDir  string
	Entrypoint  []string // override; nil keeps the image entrypoint
	Args        []string
	GPUs        GPURequest
	NetworkHost bool
	IPCHost     bool
	Port        int // primary service port, 0 if none

	// Props is a simulation seam: handles to simulated substrates the
	// program needs (e.g. "ray.cluster" for multi-node inference,
	// "hub" for the git-clone program). Real containers would reach these
	// over the network; the bag keeps the wiring explicit and typed at the
	// consumer.
	Props map[string]any
}

// State is a container lifecycle state.
type State string

const (
	StateStarting State = "starting"
	StateRunning  State = "running"
	StateExited   State = "exited"
	StateFailed   State = "failed"
	StateKilled   State = "killed"
)

// ExecContext is everything a Program can observe about its environment.
// Runtimes construct it according to their semantics.
type ExecContext struct {
	Proc *sim.Proc
	Node *hw.Node
	GPUs []*hw.GPU

	Env            map[string]string
	User           string // "root" or the calling user
	Home           string
	HomeWritable   bool
	RootFSWritable bool
	WorkingDir     string
	Mounts         []Mount
	Args           []string
	Entrypoint     []string
	GPUVisible     bool

	NetworkHost bool
	IPCHost     bool

	// Hostname is the network identity programs Listen on: the node name
	// under host networking, or a pod-scoped name assigned by kubelet.
	Hostname string
	// ImageArch is the accelerator flavor the image was built for
	// ("cuda", "rocm", "cpu"); programs may refuse mismatched hardware.
	ImageArch string
	Props     map[string]any

	Net    *vhttp.Net
	Fabric *netsim.Fabric

	container *Container
}

// Getenv returns the named environment variable ("" when unset).
func (c *ExecContext) Getenv(key string) string { return c.Env[key] }

// LookupMount resolves a container path to its backing mount, preferring the
// longest matching prefix. ok is false for paths inside the container rootfs.
func (c *ExecContext) LookupMount(ctrPath string) (m Mount, rel string, ok bool) {
	bestLen := -1
	for _, cand := range c.Mounts {
		p := strings.TrimSuffix(cand.CtrPath, "/")
		if (ctrPath == p || strings.HasPrefix(ctrPath, p+"/")) && len(p) > bestLen {
			m, ok, bestLen = cand, true, len(p)
			rel = strings.TrimPrefix(ctrPath, p)
		}
	}
	return m, rel, ok
}

// PathWritable reports whether the program can write at ctrPath: inside a
// writable mount, inside a writable home, or anywhere when the rootfs is
// writable.
func (c *ExecContext) PathWritable(ctrPath string) bool {
	if m, _, ok := c.LookupMount(ctrPath); ok {
		return !m.ReadOnly
	}
	if c.Home != "" && (ctrPath == c.Home || strings.HasPrefix(ctrPath, c.Home+"/")) {
		return c.HomeWritable
	}
	return c.RootFSWritable
}

// Logf appends a timestamped line to the container log.
func (c *ExecContext) Logf(format string, args ...any) {
	c.container.appendLog(fmt.Sprintf(format, args...))
}

// SetReady flips the container's readiness (used by probes and deploy waits).
func (c *ExecContext) SetReady(ready bool) {
	c.container.ready = ready
	if ready && c.container.readySig != nil {
		c.container.readySig.Fire()
	}
}

// Program is a simulated containerized application. Run executes on the
// container's process and returns when the program exits; a non-nil error is
// a crash.
type Program interface {
	Run(ctx *ExecContext) error
}

// ProgramFunc adapts a function to Program.
type ProgramFunc func(ctx *ExecContext) error

// Run implements Program.
func (f ProgramFunc) Run(ctx *ExecContext) error { return f(ctx) }

// Programs maps image repositories to the applications they contain.
type Programs struct {
	factories map[string]func() Program
}

// NewPrograms returns an empty program registry.
func NewPrograms() *Programs {
	return &Programs{factories: make(map[string]func() Program)}
}

// Register binds repo (e.g. "vllm/vllm-openai") to a program factory.
func (ps *Programs) Register(repo string, factory func() Program) {
	ps.factories[repo] = factory
}

// Lookup builds a fresh Program for an image reference.
func (ps *Programs) Lookup(ref string) (Program, error) {
	repo, _ := oci.ParseRef(ref)
	f := ps.factories[repo]
	if f == nil {
		return nil, fmt.Errorf("cruntime: no program registered for image %q", repo)
	}
	return f(), nil
}

// Container is a running (or finished) container instance.
type Container struct {
	ID    string
	Spec  Spec
	Node  *hw.Node
	State State
	// Program is the application instance running inside (for simulation
	// introspection: fault injection, engine metrics).
	Program Program
	// ExitErr is the program's crash error (nil for clean exit or kill).
	ExitErr error

	StartedAt time.Time
	ExitedAt  time.Time

	ready    bool
	readySig *sim.Signal
	done     *sim.Signal
	proc     *sim.Proc
	gpus     []*hw.GPU
	logs     []string
	eng      *sim.Engine
}

// Ready reports application-level readiness (e.g. vLLM finished loading).
func (c *Container) Ready() bool { return c.State == StateRunning && c.ready }

// ReadySignal fires the first time the program reports ready.
func (c *Container) ReadySignal() *sim.Signal { return c.readySig }

// Done fires when the container exits for any reason.
func (c *Container) Done() *sim.Signal { return c.done }

// Logs returns the captured log lines.
func (c *Container) Logs() []string { return append([]string(nil), c.logs...) }

func (c *Container) appendLog(line string) {
	c.logs = append(c.logs, fmt.Sprintf("[%s] %s", c.eng.Now().Format("15:04:05"), line))
}

// Stop kills the container; GPUs release and Done fires.
func (c *Container) Stop() {
	if c.State == StateExited || c.State == StateFailed || c.State == StateKilled {
		return
	}
	c.State = StateKilled
	c.ready = false
	if c.proc != nil {
		c.proc.Kill()
	}
	c.eng.Schedule(0, func() {
		c.release()
		c.done.Fire()
	})
}

func (c *Container) release() {
	if c.Node != nil {
		c.Node.ReleaseGPUs(c.ID)
	}
}

// Runtime launches containers on nodes. Implementations differ in the
// ExecContext semantics they construct — that difference is the point.
type Runtime interface {
	Name() string
	// Run pulls/locates the image and starts the program. It returns once
	// the container has begun executing (state running); use the container's
	// signals to wait for readiness or exit.
	Run(p *sim.Proc, node *hw.Node, spec Spec) (*Container, error)
}

// Host holds per-node runtime state shared by runtimes: the image layer
// cache and the registries images resolve from.
type Host struct {
	Eng      *sim.Engine
	Net      *vhttp.Net
	Fabric   *netsim.Fabric
	Programs *Programs
	Registry *registry.Registry
	Caches   map[string]*registry.LayerCache // node name → layer cache
	// HostEnv simulates the user's login environment (module-loaded paths
	// etc.) that Apptainer passes through by default.
	HostEnv map[string]string
	// CallingUser is the username deploying containers on HPC platforms.
	CallingUser string
	seq         int
}

// NewHost wires shared runtime state.
func NewHost(eng *sim.Engine, net *vhttp.Net, fabric *netsim.Fabric, programs *Programs, reg *registry.Registry) *Host {
	return &Host{
		Eng: eng, Net: net, Fabric: fabric, Programs: programs, Registry: reg,
		Caches:      make(map[string]*registry.LayerCache),
		HostEnv:     map[string]string{"PATH": "/usr/bin", "USER": "jdoe", "PYTHONPATH": "/opt/site/python3.9/site-packages", "LD_LIBRARY_PATH": "/opt/site/lib"},
		CallingUser: "jdoe",
	}
}

func (h *Host) cacheFor(node *hw.Node) *registry.LayerCache {
	c := h.Caches[node.Name]
	if c == nil {
		c = registry.NewLayerCache()
		h.Caches[node.Name] = c
	}
	return c
}

// ResolveImage pulls the image (or reads its flattened file) for spec onto
// node and returns its OCI config and accelerator arch.
func (h *Host) ResolveImage(p *sim.Proc, node *hw.Node, spec Spec) (oci.Config, string, error) {
	if spec.FlattenedFile != nil {
		m := spec.FlattenedFile
		f := m.FS.Stat(m.HostPath)
		if f == nil {
			return oci.Config{}, "", fmt.Errorf("cruntime: flattened image %s not found on %s", m.HostPath, m.FS.Name)
		}
		// Reading the single file streams from the FS through the node NIC.
		h.Fabric.Transfer(p, float64(f.Size), m.FS.ReadRoute(node.NIC), netsim.StartOptions{})
		// The image config travels with the SIF; resolve from the registry
		// by ref for metadata (offline fallback: zero config).
		if im := h.Registry.Resolve(spec.Image); im != nil {
			return im.Config, im.Arch, nil
		}
		return oci.Config{WorkingDir: "/", Env: map[string]string{}}, "", nil
	}
	im, err := h.Registry.Pull(p, spec.Image, node.NIC, h.cacheFor(node))
	if err != nil {
		return oci.Config{}, "", err
	}
	return im.Config, im.Arch, nil
}

// MergeEnv layers environment maps left to right (later wins) into a
// fresh map.
func MergeEnv(layers ...map[string]string) map[string]string {
	out := map[string]string{}
	for _, l := range layers {
		for k, v := range l {
			out[k] = v
		}
	}
	return out
}

// Launch starts spec's program on node with the ExecContext a runtime built
// for it (Podman's, Apptainer's or the kubelet's CRI semantics), on its own
// process, and manages its lifecycle: the container's ID (idPrefix and a
// host-wide sequence number), GPU allocation and release, and exit state.
func (h *Host) Launch(node *hw.Node, spec Spec, ctx *ExecContext, idPrefix string) (*Container, error) {
	prog, err := h.Programs.Lookup(spec.Image)
	if err != nil {
		return nil, err
	}
	h.seq++
	id := fmt.Sprintf("%s-%d", idPrefix, h.seq)
	c := &Container{
		ID: id, Spec: spec, Node: node, State: StateStarting,
		Program:  prog,
		readySig: h.Eng.NewSignal(), done: h.Eng.NewSignal(),
		eng: h.Eng, StartedAt: h.Eng.Now(),
	}
	ctx.container = c
	want := spec.GPUs.wanted(node)
	if want > 0 {
		gpus, err := node.AllocGPUs(id, want)
		if err != nil {
			return nil, err
		}
		c.gpus = gpus
		ctx.GPUs = gpus
	}
	c.proc = h.Eng.Go("container:"+id, func(p *sim.Proc) {
		ctx.Proc = p
		c.State = StateRunning
		err := prog.Run(ctx)
		c.ExitedAt = h.Eng.Now()
		c.ready = false
		if c.State == StateKilled {
			return // Stop() handles release + done
		}
		if err != nil {
			c.State = StateFailed
			c.ExitErr = err
			c.appendLog("FATAL: " + err.Error())
		} else {
			c.State = StateExited
		}
		c.release()
		c.done.Fire()
	})
	return c, nil
}

// NewDetachedContainer creates a container record not managed by any
// runtime: a harness for driving Programs directly in tests.
func NewDetachedContainer(eng *sim.Engine) *Container {
	return &Container{
		ID: "detached", State: StateRunning,
		readySig: eng.NewSignal(), done: eng.NewSignal(),
		eng: eng, StartedAt: eng.Now(),
	}
}

// BindContext links an ExecContext to a container so SetReady and Logf work
// when a Program runs outside Host.launch (tests, exec-style invocations).
func BindContext(ctx *ExecContext, c *Container) { ctx.container = c }

// envString renders env for CLI output, sorted for determinism.
func envString(env map[string]string, flag string) []string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s \"%s=%s\"", flag, k, env[k]))
	}
	return out
}
