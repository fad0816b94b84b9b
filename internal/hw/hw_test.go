package hw

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func testNode(t *testing.T, spec NodeSpec) *Node {
	t.Helper()
	e := sim.NewEngine(1)
	fb := netsim.New(e)
	return NewNode(fb, spec)
}

func TestNodeDefaults(t *testing.T) {
	n := testNode(t, NodeSpec{Name: "hops01", Cluster: "hops", GPUModel: H100SXM, GPUCount: 4})
	if n.CPUs != 64 || n.MemBytes != 512*GiB {
		t.Fatalf("defaults not applied: cpus=%d mem=%d", n.CPUs, n.MemBytes)
	}
	if len(n.GPUs) != 4 {
		t.Fatalf("gpus = %d, want 4", len(n.GPUs))
	}
	if n.NIC == nil {
		t.Fatal("no NIC link")
	}
	if !n.Up() {
		t.Fatal("new node should be up")
	}
}

func TestGPUAllocation(t *testing.T) {
	n := testNode(t, NodeSpec{Name: "n", GPUModel: H100SXM, GPUCount: 4})
	got, err := n.AllocGPUs("job-1", 2)
	if err != nil || len(got) != 2 {
		t.Fatalf("alloc: %v %v", got, err)
	}
	if len(n.FreeGPUs()) != 2 {
		t.Fatalf("free = %d, want 2", len(n.FreeGPUs()))
	}
	if _, err := n.AllocGPUs("job-2", 3); err == nil {
		t.Fatal("over-allocation should fail")
	}
	// A failed allocation must not claim anything.
	if len(n.FreeGPUs()) != 2 {
		t.Fatalf("free after failed alloc = %d, want 2", len(n.FreeGPUs()))
	}
	n.ReleaseGPUs("job-1")
	if len(n.FreeGPUs()) != 4 {
		t.Fatalf("free after release = %d, want 4", len(n.FreeGPUs()))
	}
}

func TestReleaseOnlyOwner(t *testing.T) {
	n := testNode(t, NodeSpec{Name: "n", GPUModel: MI300A, GPUCount: 4})
	if _, err := n.AllocGPUs("a", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AllocGPUs("b", 2); err != nil {
		t.Fatal(err)
	}
	n.ReleaseGPUs("a")
	free := n.FreeGPUs()
	if len(free) != 2 {
		t.Fatalf("free = %d, want 2", len(free))
	}
	for _, g := range n.GPUs {
		if g.busyBy == "a" {
			t.Fatal("owner a still holds a GPU")
		}
	}
}

func TestVendorDeviceResource(t *testing.T) {
	cases := map[Vendor]string{
		NVIDIA: "nvidia.com/gpu",
		AMD:    "amd.com/gpu",
		Intel:  "gpu.intel.com/i915",
	}
	for v, want := range cases {
		if got := v.DeviceResource(); got != want {
			t.Errorf("%s → %s, want %s", v, got, want)
		}
	}
}

func TestCatalogSanity(t *testing.T) {
	// The capacity relationships the paper's deployments depend on.
	if H100SXM.MemBytes != 80*GiB || H100NVL.MemBytes != 94*GiB || MI300A.MemBytes != 128*GiB {
		t.Fatal("catalog memory sizes wrong")
	}
	if MI300A.HBMBandwidth <= H100SXM.HBMBandwidth {
		t.Fatal("MI300A datasheet bandwidth should exceed H100 (efficiency factors live in the perf model)")
	}
	if H100NVL.HBMBandwidth <= H100SXM.HBMBandwidth {
		t.Fatal("H100 NVL HBM3 bandwidth should exceed SXM")
	}
}
