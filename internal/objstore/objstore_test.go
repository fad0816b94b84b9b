package objstore

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fsim"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/vhttp"
)

type env struct {
	eng    *sim.Engine
	fabric *netsim.Fabric
	net    *vhttp.Net
	server *Server
	client *Client
}

func newEnv(t *testing.T) *env {
	t.Helper()
	eng := sim.NewEngine(1)
	fabric := netsim.New(eng)
	net := vhttp.NewNet(fabric)
	server := NewServer(eng, "s3-abq")
	server.AddCredential(Credential{AccessKey: "AKIA", SecretKey: "SECRET"})
	if err := net.Listen("s3.abq.example.gov", 9000, server, vhttp.ListenOptions{}); err != nil {
		t.Fatal(err)
	}
	client := &Client{
		HTTP:      &vhttp.Client{Net: net, From: "hops01"},
		Endpoint:  "http://s3.abq.example.gov:9000",
		AccessKey: "AKIA", SecretKey: "SECRET",
		Checksums: ChecksumWhenRequired,
	}
	return &env{eng: eng, fabric: fabric, net: net, server: server, client: client}
}

func (ev *env) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	ev.eng.Go("test", fn)
	ev.eng.Run()
}

func TestPutGetListDelete(t *testing.T) {
	ev := newEnv(t)
	ev.run(t, func(p *sim.Proc) {
		if err := ev.client.CreateBucket(p, "huggingface.co"); err != nil {
			t.Fatal(err)
		}
		etag, err := ev.client.PutObject(p, "huggingface.co", "meta-llama/scout/model-00001.safetensors", 4<<30, nil)
		if err != nil {
			t.Fatal(err)
		}
		if etag == "" {
			t.Fatal("no etag")
		}
		if _, err := ev.client.PutObject(p, "huggingface.co", "meta-llama/scout/LICENSE", 0, []byte("llama license")); err != nil {
			t.Fatal(err)
		}
		infos, err := ev.client.ListObjects(p, "huggingface.co", "meta-llama/scout/")
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 2 {
			t.Fatalf("list = %d objects, want 2", len(infos))
		}
		obj, err := ev.client.GetObject(p, "huggingface.co", "meta-llama/scout/LICENSE")
		if err != nil {
			t.Fatal(err)
		}
		if string(obj.Content) != "llama license" {
			t.Fatalf("content = %q", obj.Content)
		}
		big, err := ev.client.GetObject(p, "huggingface.co", "meta-llama/scout/model-00001.safetensors")
		if err != nil {
			t.Fatal(err)
		}
		if big.Size != 4<<30 {
			t.Fatalf("size = %d", big.Size)
		}
		if resp, err := ev.client.do(p, ev.client.newRequest("DELETE", "/huggingface.co/meta-llama/scout/LICENSE", "")); err != nil || resp.Status >= 300 {
			t.Fatalf("delete: %v %+v", err, resp)
		}
		infos, _ = ev.client.ListObjects(p, "huggingface.co", "")
		if len(infos) != 1 {
			t.Fatalf("after delete: %d objects", len(infos))
		}
	})
}

func TestAuthRequired(t *testing.T) {
	ev := newEnv(t)
	ev.run(t, func(p *sim.Proc) {
		bad := *ev.client
		bad.SecretKey = "WRONG"
		if err := bad.CreateBucket(p, "x"); err == nil || !strings.Contains(err.Error(), "AccessDenied") {
			t.Fatalf("err = %v, want AccessDenied", err)
		}
	})
}

func TestChecksumQuirk(t *testing.T) {
	ev := newEnv(t)
	ev.server.LegacyChecksums = true
	ev.run(t, func(p *sim.Proc) {
		// New SDK defaults (when_supported) fail against the legacy server.
		newClient := *ev.client
		newClient.Checksums = ChecksumWhenSupported
		err := newClient.CreateBucket(p, "models")
		if err == nil || !strings.Contains(err.Error(), "when_required") {
			t.Fatalf("err = %v, want checksum rejection hinting at when_required", err)
		}
		// The paper's workaround env var → mode when_required → success.
		if err := ev.client.CreateBucket(p, "models"); err != nil {
			t.Fatalf("when_required should work: %v", err)
		}
	})
}

func TestMissingKeyAndBucketErrors(t *testing.T) {
	ev := newEnv(t)
	ev.run(t, func(p *sim.Proc) {
		if _, err := ev.client.GetObject(p, "nobucket", "k"); err == nil || !strings.Contains(err.Error(), "NoSuchBucket") {
			t.Fatalf("err = %v", err)
		}
		ev.client.CreateBucket(p, "b")
		if _, err := ev.client.GetObject(p, "b", "missing"); err == nil || !strings.Contains(err.Error(), "NoSuchKey") {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestTransferBandwidthMetered(t *testing.T) {
	ev := newEnv(t)
	wire := ev.fabric.AddLink("s3-uplink", 100e6, 0) // 100 MB/s
	ev.net.RouteFn = func(from, to string) []*netsim.Link { return []*netsim.Link{wire} }
	var dur time.Duration
	ev.run(t, func(p *sim.Proc) {
		ev.client.CreateBucket(p, "models")
		start := p.Now()
		if _, err := ev.client.PutObject(p, "models", "w.safetensors", 1e9, nil); err != nil {
			t.Fatal(err)
		}
		dur = p.Now().Sub(start)
	})
	// 1 GB at 100 MB/s = 10 s.
	if got := dur.Seconds(); got < 9.9 || got > 10.5 {
		t.Fatalf("1GB put took %.2fs, want ~10s", got)
	}
}

func TestSyncExcludesAndIdempotence(t *testing.T) {
	ev := newEnv(t)
	fs := fsim.New(ev.fabric, fsim.Config{Name: "scratch"})
	now := time.Time{}
	fs.WriteMeta("/git/models/scout/model-00001.safetensors", 1000, now)
	fs.WriteMeta("/git/models/scout/model-00002.safetensors", 1000, now)
	fs.WriteContent("/git/models/scout/LICENSE", []byte("lic"), now)
	fs.WriteMeta("/git/models/scout/.git/objects/pack/big.pack", 5000, now)
	fs.WriteContent("/git/models/scout/.gitattributes", []byte("*.safetensors lfs"), now)

	ev.run(t, func(p *sim.Proc) {
		ev.client.CreateBucket(p, "huggingface.co")
		stats, err := ev.client.Sync(p, fs, "/git/models/scout", "huggingface.co", "meta-llama/scout", []string{".git*"})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Uploaded != 3 || stats.Excluded != 2 {
			t.Fatalf("stats = %+v, want 3 uploaded / 2 excluded", stats)
		}
		infos, _ := ev.client.ListObjects(p, "huggingface.co", "meta-llama/scout/")
		if len(infos) != 3 {
			t.Fatalf("remote objects = %d", len(infos))
		}
		for _, o := range infos {
			if strings.Contains(o.Key, ".git") {
				t.Fatalf(".git leaked into S3: %s", o.Key)
			}
		}
		// Second sync is a no-op.
		stats2, err := ev.client.Sync(p, fs, "/git/models/scout", "huggingface.co", "meta-llama/scout", []string{".git*"})
		if err != nil {
			t.Fatal(err)
		}
		if stats2.Uploaded != 0 || stats2.Skipped != 3 {
			t.Fatalf("resync stats = %+v, want all skipped", stats2)
		}
		// Changing a file re-uploads just that file.
		fs.WriteMeta("/git/models/scout/model-00002.safetensors", 2000, now)
		stats3, _ := ev.client.Sync(p, fs, "/git/models/scout", "huggingface.co", "meta-llama/scout", []string{".git*"})
		if stats3.Uploaded != 1 || stats3.Skipped != 2 {
			t.Fatalf("delta sync stats = %+v", stats3)
		}
	})
}

func TestSyncDown(t *testing.T) {
	ev := newEnv(t)
	dst := fsim.New(ev.fabric, fsim.Config{Name: "pvc"})
	ev.run(t, func(p *sim.Proc) {
		ev.client.CreateBucket(p, "models")
		ev.client.PutObject(p, "models", "scout/w1.safetensors", 1000, nil)
		ev.client.PutObject(p, "models", "scout/config.json", 0, []byte(`{"arch":"llama4"}`))
		stats, err := ev.client.SyncDown(p, "models", "scout", dst, "/data")
		if err != nil {
			t.Fatal(err)
		}
		if stats.Uploaded != 2 {
			t.Fatalf("downloaded = %d, want 2", stats.Uploaded)
		}
		if f := dst.Stat("/data/w1.safetensors"); f == nil || f.Size != 1000 {
			t.Fatalf("w1 = %+v", f)
		}
		if f := dst.Stat("/data/config.json"); f == nil || string(f.Content) != `{"arch":"llama4"}` {
			t.Fatalf("config = %+v", f)
		}
		// Idempotent.
		stats2, _ := ev.client.SyncDown(p, "models", "scout", dst, "/data")
		if stats2.Uploaded != 0 || stats2.Skipped != 2 {
			t.Fatalf("re-download stats = %+v", stats2)
		}
	})
}

func TestCrossSiteReplication(t *testing.T) {
	ev := newEnv(t)
	livermore := NewServer(ev.eng, "s3-liv")
	livermore.AddCredential(Credential{AccessKey: "AKIA", SecretKey: "SECRET"})
	wan := ev.fabric.AddLink("wan-abq-liv", 1e9, 5*time.Millisecond)
	ev.server.ReplicateTo(livermore, ev.fabric, []*netsim.Link{wan})
	ev.run(t, func(p *sim.Proc) {
		ev.client.CreateBucket(p, "models")
		ev.client.PutObject(p, "models", "scout/w1", 5e9, nil)
	})
	ev.eng.Run() // drain replication
	obj, err := livermore.Get("models", "scout/w1")
	if err != nil {
		t.Fatalf("replica missing: %v", err)
	}
	if obj.Size != 5e9 {
		t.Fatalf("replica size = %d", obj.Size)
	}
	// Replication took delay + transfer (5 GB over 1 GB/s = 5 s) ≥ 35 s.
	if since := ev.eng.Since(sim.Epoch); since < replicationDelay+5*time.Second {
		t.Fatalf("replication finished too fast: %v", since)
	}
}

func TestRetryOn5xxTransport(t *testing.T) {
	// A flaky service that fails twice then succeeds exercises MaxAttempts.
	eng := sim.NewEngine(1)
	fabric := netsim.New(eng)
	net := vhttp.NewNet(fabric)
	fails := 2
	net.Listen("flaky", 80, vhttp.ServiceFunc(func(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
		if fails > 0 {
			fails--
			return vhttp.Text(503, "busy")
		}
		return &vhttp.Response{Status: 200, Header: map[string]string{"ETag": `"ok"`}}
	}), vhttp.ListenOptions{})
	c := &Client{
		HTTP: &vhttp.Client{Net: net}, Endpoint: "http://flaky",
		MaxAttempts: 10, Checksums: ChecksumWhenRequired,
	}
	var etag string
	var err error
	eng.Go("t", func(p *sim.Proc) {
		etag, err = c.PutObject(p, "b", "k", 1, nil)
	})
	eng.Run()
	if err != nil || etag != "ok" {
		t.Fatalf("retry failed: etag=%q err=%v", etag, err)
	}
	// Without retries the same flake fails.
	fails = 2
	c2 := *c
	c2.MaxAttempts = 1
	eng.Go("t2", func(p *sim.Proc) {
		_, err = c2.PutObject(p, "b", "k", 1, nil)
	})
	eng.Run()
	if err == nil {
		t.Fatal("single-attempt client should fail on 503")
	}
}
