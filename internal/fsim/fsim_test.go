package fsim

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func newTestFS(t *testing.T, capacity int64) (*sim.Engine, *netsim.Fabric, *FS) {
	t.Helper()
	e := sim.NewEngine(1)
	fb := netsim.New(e)
	fs := New(fb, Config{Name: "t", Capacity: capacity, ReadBW: 100, WriteBW: 100})
	return e, fb, fs
}

func TestWriteStatRemove(t *testing.T) {
	_, _, fs := newTestFS(t, 0)
	if _, err := fs.WriteMeta("/models/a.bin", 100, time.Time{}); err != nil {
		t.Fatal(err)
	}
	f := fs.Stat("models/a.bin") // path cleaning: leading slash optional
	if f == nil || f.Size != 100 {
		t.Fatalf("Stat = %+v", f)
	}
	if f.Digest == "" {
		t.Fatal("no synthesized digest")
	}
	if err := fs.Remove("/models/a.bin"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/models/a.bin") {
		t.Fatal("file still exists after Remove")
	}
	if err := fs.Remove("/models/a.bin"); err == nil {
		t.Fatal("double remove should error")
	}
}

func TestCapacityEnforced(t *testing.T) {
	_, _, fs := newTestFS(t, 150)
	if _, err := fs.WriteMeta("/a", 100, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteMeta("/b", 100, time.Time{}); err == nil {
		t.Fatal("write past capacity should fail")
	}
	// Overwrite with a smaller file frees space.
	if _, err := fs.WriteMeta("/a", 10, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteMeta("/b", 100, time.Time{}); err != nil {
		t.Fatalf("write after shrink failed: %v", err)
	}
	if fs.used != 110 {
		t.Fatalf("used = %d, want 110", fs.used)
	}
}

func TestContentDigestStable(t *testing.T) {
	_, _, fs := newTestFS(t, 0)
	f1, err := fs.WriteContent("/LICENSE", []byte("Meta Llama Community License"), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := fs.WriteContent("/LICENSE.copy", []byte("Meta Llama Community License"), time.Time{})
	if f1.Digest != f2.Digest {
		t.Fatal("identical content produced different digests")
	}
	if string(fs.Stat("/LICENSE").Content) != "Meta Llama Community License" {
		t.Fatal("content lost")
	}
}

func TestListAndRemoveAll(t *testing.T) {
	_, _, fs := newTestFS(t, 0)
	for _, p := range []string{"/m/x/1", "/m/x/2", "/m/y/1", "/z"} {
		if _, err := fs.WriteMeta(p, 1, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(fs.List("/m")); got != 3 {
		t.Fatalf("List(/m) = %d entries, want 3", got)
	}
	if got := len(fs.List("/")); got != 4 {
		t.Fatalf("List(/) = %d entries, want 4", got)
	}
	ls := fs.List("/m/x")
	if len(ls) != 2 || ls[0].Path != "/m/x/1" || ls[1].Path != "/m/x/2" {
		t.Fatalf("List(/m/x) = %v", ls)
	}
	for _, f := range ls {
		if err := fs.Remove(f.Path); err != nil {
			t.Fatal(err)
		}
	}
	if fs.TotalSize("/") != 2 {
		t.Fatalf("TotalSize = %d, want 2", fs.TotalSize("/"))
	}
}

func TestReadBandwidthContention(t *testing.T) {
	// Two readers share the 100 B/s read link: 500 B each → 10 s total.
	e, fb, fs := newTestFS(t, 0)
	if _, err := fs.WriteMeta("/blob", 500, time.Time{}); err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	for i := 0; i < 2; i++ {
		e.Go("reader", func(p *sim.Proc) {
			fb.Transfer(p, 500, fs.ReadRoute(), netsim.StartOptions{})
			if d := e.Since(sim.Epoch); d > last {
				last = d
			}
		})
	}
	e.Run()
	if got := last.Seconds(); got < 9.9 || got > 10.1 {
		t.Fatalf("two contending readers finished at %.2fs, want ~10s", got)
	}
}

func TestReadRouteComposition(t *testing.T) {
	e := sim.NewEngine(1)
	fb := netsim.New(e)
	fs := New(fb, Config{Name: "lustre", ReadBW: 1000})
	nic := fb.AddLink("nic", 50, 0) // NIC is the bottleneck
	var doneAt time.Duration
	e.Go("reader", func(p *sim.Proc) {
		fb.Transfer(p, 500, fs.ReadRoute(nic), netsim.StartOptions{})
		doneAt = e.Since(sim.Epoch)
	})
	e.Run()
	if got := doneAt.Seconds(); got < 9.9 || got > 10.1 {
		t.Fatalf("NIC-bottlenecked read finished at %.2fs, want ~10s", got)
	}
}

func TestMetadataOnlyFS(t *testing.T) {
	fs := New(nil, Config{Name: "meta"})
	if _, err := fs.WriteMeta("/x", 10, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if fs.read != nil || fs.write != nil {
		t.Fatal("metadata-only FS should have no I/O links")
	}
	if got := fs.ReadRoute(); len(got) != 0 {
		t.Fatalf("ReadRoute on metadata FS = %v, want empty", got)
	}
}
