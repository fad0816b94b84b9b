// Package hw describes the simulated hardware inventory: GPU models, compute
// nodes, NICs, and the per-node wiring into the netsim fabric.
//
// The catalog covers the accelerators the paper's platforms use: NVIDIA H100
// 80 GiB SXM (Hops), AMD MI300A 128 GiB (El Dorado), NVIDIA H100 NVL 94 GiB
// (Goodall), and NVIDIA A100 80 GiB (CEE-OpenShift).
package hw

import (
	"fmt"
	"time"

	"repro/internal/netsim"
)

// Vendor identifies a GPU vendor, which determines which container image
// variant (CUDA vs ROCm vs OneAPI) a workload needs — one of the paper's
// "computing platform differences".
type Vendor string

const (
	NVIDIA Vendor = "nvidia"
	AMD    Vendor = "amd"
	Intel  Vendor = "intel"
)

// DeviceResource returns the Kubernetes extended-resource name for the vendor.
func (v Vendor) DeviceResource() string {
	switch v {
	case AMD:
		return "amd.com/gpu"
	case Intel:
		return "gpu.intel.com/i915"
	default:
		return "nvidia.com/gpu"
	}
}

// GiB is 2^30 bytes.
const GiB = int64(1) << 30

// GPUModel describes an accelerator SKU.
type GPUModel struct {
	Name     string
	Vendor   Vendor
	MemBytes int64
	// HBMBandwidth is peak memory bandwidth in bytes/second; decode-phase
	// token rates are bandwidth-bound, so this is the first-order quantity.
	HBMBandwidth float64
	// BF16TFLOPS is dense peak compute. The perf model does not read it:
	// prefill cost is the calibrated or bandwidth-derived Tpf
	// (internal/vllm/perf.go).
	BF16TFLOPS float64
}

// The accelerator catalog. Bandwidth/compute figures are public datasheet
// numbers; the perf model applies per-(model,platform) efficiency factors on
// top (see internal/vllm/perf.go).
var (
	H100SXM = GPUModel{Name: "H100-SXM-80GB", Vendor: NVIDIA, MemBytes: 80 * GiB, HBMBandwidth: 3.35e12, BF16TFLOPS: 989}
	H100NVL = GPUModel{Name: "H100-NVL-94GB", Vendor: NVIDIA, MemBytes: 94 * GiB, HBMBandwidth: 3.9e12, BF16TFLOPS: 835}
	MI300A  = GPUModel{Name: "MI300A-128GB", Vendor: AMD, MemBytes: 128 * GiB, HBMBandwidth: 5.3e12, BF16TFLOPS: 980}
	A100    = GPUModel{Name: "A100-80GB", Vendor: NVIDIA, MemBytes: 80 * GiB, HBMBandwidth: 2.0e12, BF16TFLOPS: 312}
)

// GPU is one physical accelerator instance in a node.
type GPU struct {
	Index   int
	Model   GPUModel
	busyBy  string // owner tag, "" when free
	memUsed int64
}

// Allocated reports whether the GPU is claimed.
func (g *GPU) Allocated() bool { return g.busyBy != "" }

// Node is one compute, service, or login node.
type Node struct {
	Name     string
	Cluster  string
	CPUs     int
	MemBytes int64
	GPUs     []*GPU

	// NIC is this node's network interface into the cluster fabric.
	NIC *netsim.Link
	// IB is the high-speed fabric interface (InfiniBand), nil if absent.
	IB *netsim.Link

	up bool
}

// NodeSpec configures NewNode.
type NodeSpec struct {
	Name     string
	Cluster  string
	CPUs     int
	MemBytes int64
	GPUModel GPUModel
	GPUCount int
	NICBW    float64 // bytes/second Ethernet
	IBBW     float64 // bytes/second InfiniBand, 0 = none
	Latency  time.Duration
}

// NewNode creates a node and registers its NIC links on the fabric.
func NewNode(fabric *netsim.Fabric, spec NodeSpec) *Node {
	if spec.CPUs == 0 {
		spec.CPUs = 64
	}
	if spec.MemBytes == 0 {
		spec.MemBytes = 512 * GiB
	}
	if spec.NICBW == 0 {
		spec.NICBW = netsim.Gbps(25)
	}
	n := &Node{
		Name:     spec.Name,
		Cluster:  spec.Cluster,
		CPUs:     spec.CPUs,
		MemBytes: spec.MemBytes,
		up:       true,
	}
	for i := 0; i < spec.GPUCount; i++ {
		n.GPUs = append(n.GPUs, &GPU{Index: i, Model: spec.GPUModel})
	}
	n.NIC = fabric.AddLink(fmt.Sprintf("nic:%s", spec.Name), spec.NICBW, spec.Latency)
	if spec.IBBW > 0 {
		n.IB = fabric.AddLink(fmt.Sprintf("ib:%s", spec.Name), spec.IBBW, spec.Latency/4)
	}
	return n
}

// Up reports whether the node is healthy.
func (n *Node) Up() bool { return n.up }

// SetUp marks the node healthy or failed (maintenance, crash).
func (n *Node) SetUp(up bool) { n.up = up }

// FreeGPUs returns the unallocated GPUs.
func (n *Node) FreeGPUs() []*GPU {
	var free []*GPU
	for _, g := range n.GPUs {
		if !g.Allocated() {
			free = append(free, g)
		}
	}
	return free
}

// AllocGPUs claims count GPUs for owner, returning them; it fails if fewer
// are free. Pass count = len(n.GPUs) for whole-node allocation.
func (n *Node) AllocGPUs(owner string, count int) ([]*GPU, error) {
	free := n.FreeGPUs()
	if len(free) < count {
		return nil, fmt.Errorf("hw: %s: want %d GPUs, %d free", n.Name, count, len(free))
	}
	out := free[:count]
	for _, g := range out {
		g.busyBy = owner
	}
	return out, nil
}

// ReleaseGPUs releases every GPU held by owner.
func (n *Node) ReleaseGPUs(owner string) {
	for _, g := range n.GPUs {
		if g.busyBy == owner {
			g.busyBy = ""
			g.memUsed = 0
		}
	}
}
