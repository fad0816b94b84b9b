package cruntime

import (
	"fmt"
	"strings"

	"repro/internal/hw"
	"repro/internal/sim"
)

// Apptainer is the HPC-native runtime. Its defaults differ from Podman in
// exactly the ways that crash the vLLM container (§3.2):
//
//   - the process runs as the *calling user*, not root;
//   - the user's home directory is bind-mounted and $HOME points at it;
//   - the host environment is passed through (module paths, PYTHONPATH);
//   - the container filesystem is read-only;
//   - GPUs are invisible without --nv (NVIDIA) or --rocm (AMD).
//
// The flag set from the paper's Figure 5 (--fakeroot --writable-tmpfs
// --cleanenv --no-home --nv) restores Podman-like semantics.
type Apptainer struct {
	Host *Host

	FakeRoot      bool // --fakeroot: appear as root inside
	WritableTmpfs bool // --writable-tmpfs: ephemeral writable overlay
	CleanEnv      bool // --cleanenv: do not pass the host environment
	NoHome        bool // --no-home: do not bind the caller's $HOME
	NV            bool // --nv: expose NVIDIA GPUs
	ROCm          bool // --rocm: expose AMD GPUs
	Cwd           string
}

// Name implements Runtime.
func (ap *Apptainer) Name() string { return "apptainer" }

// Run implements Runtime with Apptainer semantics.
func (ap *Apptainer) Run(p *sim.Proc, node *hw.Node, spec Spec) (*Container, error) {
	h := ap.Host
	cfg, arch, err := h.ResolveImage(p, node, spec)
	if err != nil {
		return nil, err
	}
	entry := cfg.Entrypoint
	if len(spec.Entrypoint) > 0 {
		entry = spec.Entrypoint
	}
	user := h.CallingUser
	home := "/home/" + user
	homeWritable := !ap.NoHome
	if ap.FakeRoot {
		user = "root"
		home = "/root"
		homeWritable = ap.WritableTmpfs // /root lives in the (ro) rootfs
	}
	layers := []map[string]string{}
	if !ap.CleanEnv {
		layers = append(layers, h.HostEnv) // host env passes through
	}
	layers = append(layers, cfg.Env, spec.Env, map[string]string{"HOME": home})
	gpuVisible := false
	if spec.GPUs.wanted(node) > 0 && len(node.GPUs) > 0 {
		switch node.GPUs[0].Model.Vendor {
		case hw.NVIDIA:
			gpuVisible = ap.NV
		case hw.AMD:
			gpuVisible = ap.ROCm
		}
	}
	workdir := cfg.WorkingDir
	if ap.Cwd != "" {
		workdir = ap.Cwd
	} else if spec.WorkingDir != "" {
		workdir = spec.WorkingDir
	}
	ctx := &ExecContext{
		Node:           node,
		Env:            MergeEnv(layers...),
		User:           user,
		Home:           home,
		HomeWritable:   homeWritable,
		RootFSWritable: ap.WritableTmpfs,
		WorkingDir:     workdir,
		Mounts:         spec.Mounts,
		Args:           spec.Args,
		Entrypoint:     entry,
		GPUVisible:     gpuVisible,
		NetworkHost:    true, // apptainer shares the host network namespace
		IPCHost:        true,
		Hostname:       node.Name,
		ImageArch:      arch,
		Props:          spec.Props,
		Net:            h.Net,
		Fabric:         h.Fabric,
	}
	return h.Launch(node, spec, ctx, "apptainer")
}

// Render returns the equivalent `apptainer exec` command line, mirroring the
// paper's Figure 5.
func (ap *Apptainer) Render(spec Spec) string {
	var b strings.Builder
	b.WriteString("apptainer exec \\\n")
	if ap.FakeRoot {
		b.WriteString("  --fakeroot \\\n")
	}
	if ap.WritableTmpfs {
		b.WriteString("  --writable-tmpfs \\\n")
	}
	if ap.CleanEnv {
		b.WriteString("  --cleanenv \\\n")
	}
	if ap.NoHome {
		b.WriteString("  --no-home \\\n")
	}
	if ap.NV {
		b.WriteString("  --nv \\\n")
	}
	if ap.ROCm {
		b.WriteString("  --rocm \\\n")
	}
	for _, e := range envString(spec.Env, "-e") {
		fmt.Fprintf(&b, "  %s \\\n", e)
	}
	for _, m := range spec.Mounts {
		fmt.Fprintf(&b, "  --bind %s:%s \\\n", m.HostPath, m.CtrPath)
	}
	cwd := ap.Cwd
	if cwd == "" {
		cwd = spec.WorkingDir
	}
	if cwd != "" {
		fmt.Fprintf(&b, "  --cwd %s \\\n", cwd)
	}
	image := spec.Image
	if spec.FlattenedFile != nil {
		image = spec.FlattenedFile.HostPath
	}
	b.WriteString("  " + image)
	if len(spec.Entrypoint) > 0 {
		b.WriteString(" " + strings.Join(spec.Entrypoint, " "))
	}
	for _, a := range spec.Args {
		b.WriteString(" \\\n    " + a)
	}
	return b.String()
}
