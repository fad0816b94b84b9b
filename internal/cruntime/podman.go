package cruntime

import (
	"fmt"
	"strings"

	"repro/internal/hw"
	"repro/internal/sim"
)

// Podman is a rootless-daemonless OCI runtime with cloud-native defaults:
// the process runs as root inside an isolated user namespace, the container
// filesystem has a writable copy-on-write layer, only image + explicit
// environment is visible, and no host directories are mapped unless bound.
// GPUs require an explicit --device request (CDI).
type Podman struct {
	Host *Host
	// DeviceGPUs mirrors `--device nvidia.com/gpu=all`; without it the
	// container sees no accelerators even on a GPU node.
	DeviceGPUs bool
}

// Name implements Runtime.
func (pd *Podman) Name() string { return "podman" }

// Run implements Runtime with Podman default semantics.
func (pd *Podman) Run(p *sim.Proc, node *hw.Node, spec Spec) (*Container, error) {
	h := pd.Host
	cfg, arch, err := h.ResolveImage(p, node, spec)
	if err != nil {
		return nil, err
	}
	entry := cfg.Entrypoint
	if len(spec.Entrypoint) > 0 {
		entry = spec.Entrypoint
	}
	workdir := cfg.WorkingDir
	if spec.WorkingDir != "" {
		workdir = spec.WorkingDir
	}
	ctx := &ExecContext{
		Node: node,
		// Isolated environment: image env, then explicit -e flags. HOME is
		// root's because the container user is root.
		Env:            MergeEnv(cfg.Env, spec.Env, map[string]string{"HOME": "/root"}),
		User:           "root",
		Home:           "/root",
		HomeWritable:   true,
		RootFSWritable: true, // copy-on-write upper layer
		WorkingDir:     workdir,
		Mounts:         spec.Mounts,
		Args:           spec.Args,
		Entrypoint:     entry,
		GPUVisible:     pd.DeviceGPUs && spec.GPUs.wanted(node) > 0,
		NetworkHost:    spec.NetworkHost,
		IPCHost:        spec.IPCHost,
		Hostname:       node.Name,
		ImageArch:      arch,
		Props:          spec.Props,
		Net:            h.Net,
		Fabric:         h.Fabric,
	}
	return h.Launch(node, spec, ctx, "podman")
}

// Render returns the equivalent `podman run` command line, mirroring the
// paper's Figure 4. It is what cmd/genaictl prints for HPC deployments.
func (pd *Podman) Render(spec Spec) string {
	var b strings.Builder
	b.WriteString("podman run \\\n  --rm \\\n")
	fmt.Fprintf(&b, "  --name=%s \\\n", spec.Name)
	if spec.NetworkHost {
		b.WriteString("  --network=host \\\n")
	}
	if spec.IPCHost {
		b.WriteString("  --ipc=host \\\n")
	}
	if len(spec.Entrypoint) > 0 {
		fmt.Fprintf(&b, "  --entrypoint=%s \\\n", spec.Entrypoint[0])
	}
	if spec.GPUs.All {
		b.WriteString("  --device nvidia.com/gpu=all \\\n")
	} else if spec.GPUs.Count > 0 {
		for i := 0; i < spec.GPUs.Count; i++ {
			fmt.Fprintf(&b, "  --device nvidia.com/gpu=%d \\\n", i)
		}
	}
	for _, e := range envString(spec.Env, "-e") {
		fmt.Fprintf(&b, "  %s \\\n", e)
	}
	for _, m := range spec.Mounts {
		suffix := ""
		if m.ReadOnly {
			suffix = ":ro"
		}
		fmt.Fprintf(&b, "  --volume=%s:%s%s \\\n", m.HostPath, m.CtrPath, suffix)
	}
	if spec.WorkingDir != "" {
		fmt.Fprintf(&b, "  --workdir=%s \\\n", spec.WorkingDir)
	}
	b.WriteString("  " + spec.Image)
	for _, a := range spec.Args {
		b.WriteString(" \\\n    " + a)
	}
	return b.String()
}
