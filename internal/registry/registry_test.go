package registry

import (
	"testing"
	"time"

	"repro/internal/fsim"
	"repro/internal/netsim"
	"repro/internal/oci"
	"repro/internal/sim"
)

func testSetup(t *testing.T, egressBW float64) (*sim.Engine, *netsim.Fabric, *Registry) {
	t.Helper()
	e := sim.NewEngine(1)
	fb := netsim.New(e)
	r := New(fb, Config{Name: "gitlab", EgressBW: egressBW})
	return e, fb, r
}

func smallImage(name string, layerBytes int64) *oci.Image {
	return &oci.Image{
		Repository: "team/" + name, Tag: "v1", Arch: "cpu",
		Layers: []oci.Layer{oci.NewLayer(name+"-base", layerBytes), oci.NewLayer(name+"-app", layerBytes)},
	}
}

func TestPushResolve(t *testing.T) {
	_, _, r := testSetup(t, 1000)
	im := smallImage("app", 100)
	r.Push(im)
	if got := r.Resolve("team/app:v1"); got != im {
		t.Fatal("Resolve by ref failed")
	}
	if got := r.Resolve("team/app"); got != nil {
		t.Fatal("default tag should be latest, not v1")
	}
	if got := r.Resolve("team/missing:v1"); got != nil {
		t.Fatal("missing image resolved")
	}
	if len(r.images) != 1 {
		t.Fatalf("images = %v", r.images)
	}
}

func TestPullTransfersMissingLayersOnly(t *testing.T) {
	e, fb, r := testSetup(t, 100) // 100 B/s egress
	r.UnpackBW = 0                // isolate network time
	im := smallImage("app", 500)  // 1000 B total
	r.Push(im)
	nic := fb.AddLink("nic", 1e9, 0)
	cache := NewLayerCache()
	var first, second time.Duration
	e.Go("puller", func(p *sim.Proc) {
		start := p.Now()
		if _, err := r.Pull(p, "team/app:v1", nic, cache); err != nil {
			t.Errorf("pull 1: %v", err)
		}
		first = p.Now().Sub(start)
		start = p.Now()
		if _, err := r.Pull(p, "team/app:v1", nic, cache); err != nil {
			t.Errorf("pull 2: %v", err)
		}
		second = p.Now().Sub(start)
	})
	e.Run()
	if got := first.Seconds(); got < 9.9 || got > 10.2 {
		t.Fatalf("cold pull took %.2fs, want ~10s", got)
	}
	if second > 10*time.Millisecond {
		t.Fatalf("warm pull took %v, want ~0 (layers cached)", second)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache has %d layers, want 2", cache.Len())
	}
}

func TestSharedBaseLayerDedup(t *testing.T) {
	e, fb, r := testSetup(t, 1000)
	r.UnpackBW = 0
	shared := oci.NewLayer("shared-base", 1000)
	a := &oci.Image{Repository: "t/a", Tag: "v1", Layers: []oci.Layer{shared, oci.NewLayer("a", 10)}}
	b := &oci.Image{Repository: "t/b", Tag: "v1", Layers: []oci.Layer{shared, oci.NewLayer("b", 10)}}
	r.Push(a)
	r.Push(b)
	nic := fb.AddLink("nic", 1e9, 0)
	cache := NewLayerCache()
	var secondDur time.Duration
	e.Go("puller", func(p *sim.Proc) {
		if _, err := r.Pull(p, "t/a:v1", nic, cache); err != nil {
			t.Error(err)
		}
		start := p.Now()
		if _, err := r.Pull(p, "t/b:v1", nic, cache); err != nil {
			t.Error(err)
		}
		secondDur = p.Now().Sub(start)
	})
	e.Run()
	// Second pull only needs the 10-byte unique layer: 10/1000 s = 10ms.
	if secondDur > 100*time.Millisecond {
		t.Fatalf("second pull took %v; shared layer not deduped", secondDur)
	}
}

func TestConcurrentPullBottleneck(t *testing.T) {
	// §2.3: N nodes pulling the same image serialize on registry egress.
	e, fb, r := testSetup(t, 1000)
	r.UnpackBW = 0
	im := smallImage("vllm", 2000) // 4000 B
	r.Push(im)
	const n = 4
	var last time.Duration
	for i := 0; i < n; i++ {
		nic := fb.AddLink("nic-"+string(rune('0'+i)), 1e9, 0)
		e.Go("node", func(p *sim.Proc) {
			if _, err := r.Pull(p, "team/vllm:v1", nic, NewLayerCache()); err != nil {
				t.Error(err)
			}
			if d := e.Since(sim.Epoch); d > last {
				last = d
			}
		})
	}
	e.Run()
	want := float64(n) * 4000 / 1000 // 16 s
	if got := last.Seconds(); got < want*0.95 || got > want*1.1 {
		t.Fatalf("last pull at %.2fs, want ~%.0fs (egress-serialized)", got, want)
	}
}

func TestUnpackTimeAdds(t *testing.T) {
	e, fb, r := testSetup(t, 1e12) // effectively infinite network
	r.UnpackBW = 100               // 100 B/s unpack
	im := smallImage("app", 500)   // 1000 B
	r.Push(im)
	nic := fb.AddLink("nic", 1e12, 0)
	var dur time.Duration
	e.Go("p", func(p *sim.Proc) {
		start := p.Now()
		r.Pull(p, "team/app:v1", nic, NewLayerCache())
		dur = p.Now().Sub(start)
	})
	e.Run()
	if got := dur.Seconds(); got < 9.9 || got > 10.2 {
		t.Fatalf("unpack-bound pull took %.2fs, want ~10s", got)
	}
}

func TestScanOnPush(t *testing.T) {
	e := sim.NewEngine(1)
	fb := netsim.New(e)
	quay := New(fb, Config{Name: "quay", Scanner: true})
	im := smallImage("app", 100)
	quay.Push(im)
	rep := quay.Scan("team/app:v1")
	if rep == nil {
		t.Fatal("no scan report")
	}
	if rep.Findings < 1 || rep.Digest != im.Digest() {
		t.Fatalf("report = %+v", rep)
	}
	// Determinism: same image, same report.
	quay2 := New(fb, Config{Name: "quay2", Scanner: true})
	quay2.Push(im)
	if rep2 := quay2.Scan("team/app:v1"); rep2.Findings != rep.Findings || rep2.Critical != rep.Critical {
		t.Fatal("scan results not deterministic")
	}
}

func TestMirror(t *testing.T) {
	e := sim.NewEngine(1)
	fb := netsim.New(e)
	gitlab := New(fb, Config{Name: "gitlab", EgressBW: 1000})
	quay := New(fb, Config{Name: "quay", EgressBW: 1000, Scanner: true})
	im := smallImage("app", 500)
	gitlab.Push(im)
	var err error
	e.Go("mirror", func(p *sim.Proc) {
		err = quay.Mirror(p, gitlab, "team/app:v1")
	})
	e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if quay.Resolve("team/app:v1") == nil {
		t.Fatal("mirrored image missing")
	}
	if quay.Scan("team/app:v1") == nil {
		t.Fatal("mirror should trigger scan-on-push")
	}
	// Mirroring an unknown ref errors.
	e.Go("mirror2", func(p *sim.Proc) {
		if err := quay.Mirror(p, gitlab, "team/nope:v1"); err == nil {
			t.Error("mirror of missing ref should fail")
		}
	})
	e.Run()
}

func TestFlattenTo(t *testing.T) {
	e, fb, r := testSetup(t, 1e12)
	r.UnpackBW = 1e12
	im := smallImage("vllm", 500)
	r.Push(im)
	lustre := fsim.New(fb, fsim.Config{Name: "lustre", ReadBW: 1e9, WriteBW: 1e9})
	nic := fb.AddLink("builder-nic", 1e12, 0)
	var flat *oci.Flattened
	var err error
	e.Go("builder", func(p *sim.Proc) {
		flat, err = r.FlattenTo(p, "team/vllm:v1", "sif", lustre, "/images/vllm.sif", nic)
	})
	e.Run()
	if err != nil {
		t.Fatal(err)
	}
	f := lustre.Stat("/images/vllm.sif")
	if f == nil || f.Size != flat.Size {
		t.Fatalf("flattened file on FS = %+v, want size %d", f, flat.Size)
	}
	if flat.Size != int64(float64(im.Size())*0.9) {
		t.Fatalf("flat size = %d", flat.Size)
	}
}

func TestFlattenedPullAvoidsBottleneck(t *testing.T) {
	// Ablation core: N nodes reading a flattened image from the parallel FS
	// (high aggregate bandwidth) beat N nodes pulling from registry egress.
	e := sim.NewEngine(1)
	fb := netsim.New(e)
	reg := New(fb, Config{Name: "reg", EgressBW: 1000})
	reg.UnpackBW = 0
	im := smallImage("vllm", 2000) // 4000 B
	reg.Push(im)
	lustre := fsim.New(fb, fsim.Config{Name: "lustre", ReadBW: 100000, WriteBW: 100000})
	lustre.WriteMeta("/images/vllm.sif", 3600, time.Time{})

	const n = 4
	var lastReg, lastFS time.Duration
	for i := 0; i < n; i++ {
		nic := fb.AddLink("nA-"+string(rune('0'+i)), 1e9, 0)
		e.Go("pull", func(p *sim.Proc) {
			reg.Pull(p, "team/vllm:v1", nic, NewLayerCache())
			if d := e.Since(sim.Epoch); d > lastReg {
				lastReg = d
			}
		})
	}
	e.Run()

	e2 := sim.NewEngine(1)
	fb2 := netsim.New(e2)
	lustre2 := fsim.New(fb2, fsim.Config{Name: "lustre", ReadBW: 100000})
	for i := 0; i < n; i++ {
		nic := fb2.AddLink("nB-"+string(rune('0'+i)), 1e9, 0)
		e2.Go("read", func(p *sim.Proc) {
			fb2.Transfer(p, 3600, lustre2.ReadRoute(nic), netsim.StartOptions{})
			if d := e2.Since(sim.Epoch); d > lastFS {
				lastFS = d
			}
		})
	}
	e2.Run()
	if lastFS*4 > lastReg {
		t.Fatalf("flattened read (%v) should be ≫ faster than registry pull (%v)", lastFS, lastReg)
	}
}
