package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/ingress"
	"repro/internal/k8s"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/oci"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/vhttp"
	"repro/internal/vllm"
)

// runStartup measures time-to-ready for single-node deployments across
// models, reproducing §3.3's "30 minutes or more for large models".
func runStartup(p *sim.Proc, s *site.Site, d *core.Deployer, opts Options) (*Result, error) {
	res := &Result{ID: "startup", Title: "vLLM time-to-ready by model"}
	rows := [][]string{}
	var bigReady time.Duration
	for _, m := range []struct {
		model *llm.ModelSpec
		tp    int
		pp    int
	}{
		{llm.Llama318B, 1, 1},
		{llm.ScoutW4A16, 2, 1},
		{llm.Scout, 4, 1},
		{llm.Llama31405B, 4, 4},
	} {
		if err := core.SeedModel(p, s.HopsLustre, m.model); err != nil {
			return nil, err
		}
		start := p.Now()
		dp, err := d.Deploy(p, core.VLLMPackage(), core.PlatformHops, core.DeployConfig{
			Model: m.model, TensorParallel: m.tp, PipelineParallel: m.pp,
			MaxModelLen: 32768, Offline: true,
		})
		if err != nil {
			return nil, fmt.Errorf("startup %s: %w", m.model.Short, err)
		}
		ready := p.Now().Sub(start)
		if m.model == llm.Llama31405B {
			bigReady = ready
		}
		rows = append(rows, []string{
			m.model.Short,
			fmt.Sprintf("%d×%d", m.tp, m.pp),
			fmt.Sprintf("%.1f GiB", float64(m.model.WeightBytes())/(1<<30)),
			ready.Round(time.Second).String(),
		})
		res.Series = append(res.Series, metrics.Series{
			Name:   m.model.Short,
			Points: []metrics.Point{{X: float64(m.model.WeightBytes()) / (1 << 30), Y: ready.Seconds()}},
		})
		dp.Stop()
		p.Sleep(time.Minute)
	}
	res.Table = metrics.Table([]string{"model", "TP×PP", "weights", "time to ready"}, rows)
	// The paper gives a lower bound ("30 minutes or more for large
	// models"); the 405B deployment is the large-model case.
	res.Anchors = append(res.Anchors, Anchor{
		Name:  "405B time-to-ready (paper: '30 minutes or more')",
		Paper: 30, Measured: bigReady.Minutes(), Unit: "min",
	})
	return res, nil
}

// runRegPull reproduces the §2.3 bottleneck: N nodes pulling the vLLM OCI
// image from the registry versus reading a flattened SIF from Lustre.
func runRegPull(p *sim.Proc, s *site.Site, d *core.Deployer, opts Options) (*Result, error) {
	res := &Result{ID: "regpull", Title: "Multi-node image distribution: registry vs flattened SIF"}
	image := "vllm/vllm-openai:v0.9.1"
	// Model the registry as the loaded shared service it is in production:
	// ~8 Gbps effective egress during a busy period, faster layer unpack on
	// the NVMe-backed compute nodes.
	s.Fabric.SetCapacity("registry:quay", netsim.Gbps(8))
	s.Quay.UnpackBW = 500e6
	// Flatten once onto Lustre (the recommended optimization).
	flat, err := s.Quay.FlattenTo(p, image, "sif", s.HopsLustre, "/images/vllm-cuda.sif", s.Build.NIC)
	if err != nil {
		return nil, err
	}
	var regSeries, fsSeries metrics.Series
	regSeries.Name = "OCI pull from registry"
	fsSeries.Name = "flattened SIF from Lustre"
	counts := []int{1, 2, 4, 8}
	if !opts.Quick {
		counts = []int{1, 2, 4, 8, 16, 32}
	}
	var reg8, fs8 float64
	for _, n := range counts {
		if n > len(s.HopsNodes) {
			break
		}
		// Registry pulls (cold caches).
		grp := p.Engine().NewGroup()
		start := p.Now()
		var last time.Time
		for i := 0; i < n; i++ {
			node := s.HopsNodes[i]
			grp.Add(1)
			p.Engine().Go("pull", func(wp *sim.Proc) {
				defer grp.Finish()
				if _, err := s.Quay.Pull(wp, image, node.NIC, nil); err == nil {
					if wp.Now().After(last) {
						last = wp.Now()
					}
				}
			})
		}
		grp.WaitAll(p)
		regDur := last.Sub(start)
		regSeries.Add(float64(n), regDur.Seconds(), "")

		// Flattened reads.
		grp2 := p.Engine().NewGroup()
		start = p.Now()
		last = start
		for i := 0; i < n; i++ {
			node := s.HopsNodes[i]
			grp2.Add(1)
			p.Engine().Go("sifread", func(wp *sim.Proc) {
				defer grp2.Finish()
				s.Fabric.Transfer(wp, float64(flat.Size), s.HopsLustre.ReadRoute(node.NIC), netsim.StartOptions{})
				if wp.Now().After(last) {
					last = wp.Now()
				}
			})
		}
		grp2.WaitAll(p)
		fsDur := last.Sub(start)
		fsSeries.Add(float64(n), fsDur.Seconds(), "")
		if n == 8 {
			reg8, fs8 = regDur.Seconds(), fsDur.Seconds()
		}
	}
	res.Series = []metrics.Series{regSeries, fsSeries}
	res.Table = metrics.Table([]string{"distribution", "8-node startup delay"}, [][]string{
		{"OCI pull from registry", fmt.Sprintf("%.1f s", reg8)},
		{"flattened SIF from Lustre", fmt.Sprintf("%.1f s (%.0f× faster)", fs8, reg8/max1(fs8))},
	})
	res.Notes = append(res.Notes, "registry egress serializes concurrent pulls; the parallel filesystem does not (§2.3; the paper reports this qualitatively)")
	return res, nil
}

func max1(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}

// runS3Route reproduces the §2.4 anecdote: a routing change improved
// Hops→S3 bandwidth by an order of magnitude.
func runS3Route(p *sim.Proc, s *site.Site, d *core.Deployer, opts Options) (*Result, error) {
	res := &Result{ID: "s3route", Title: "Hops node → S3 bandwidth before/after routing change"}
	client := s.S3Client(s.HopsNodes[0].Name)
	const objBytes = 50e9
	measure := func() (float64, error) {
		if err := client.CreateBucket(p, "bwtest"); err != nil {
			return 0, err
		}
		start := p.Now()
		if _, err := client.PutObject(p, "bwtest", "blob", int64(objBytes), nil); err != nil {
			return 0, err
		}
		return objBytes / p.Now().Sub(start).Seconds(), nil
	}
	before, err := measure()
	if err != nil {
		return nil, err
	}
	s.FixHopsS3Routing()
	after, err := measure()
	if err != nil {
		return nil, err
	}
	res.Series = []metrics.Series{{Name: "Hops→S3 bandwidth (GB/s)", Points: []metrics.Point{
		{X: 0, Y: before / 1e9, Note: "default route"},
		{X: 1, Y: after / 1e9, Note: "after routing fix"},
	}}}
	res.Table = metrics.Table([]string{"route", "bandwidth"}, [][]string{
		{"default (misconfigured)", fmt.Sprintf("%.2f GB/s", before/1e9)},
		{"after fix", fmt.Sprintf("%.2f GB/s", after/1e9)},
	})
	res.Anchors = append(res.Anchors, Anchor{
		Name:  "bandwidth improvement (paper: 'order of magnitude')",
		Paper: 10, Measured: after / before, Unit: "×",
	})
	return res, nil
}

// runIngressFailover compares recovery after a service crash: Kubernetes'
// control loop vs CaL with a user cron job (§3.3).
func runIngressFailover(p *sim.Proc, s *site.Site, d *core.Deployer, opts Options) (*Result, error) {
	res := &Result{ID: "ingress", Title: "Recovery time after a vLLM crash"}
	model := llm.Llama318B
	if err := core.SeedModel(p, s.HopsLustre, model); err != nil {
		return nil, err
	}
	if err := core.SeedModelToS3(p, d, model); err != nil {
		return nil, err
	}
	cfg := core.DeployConfig{Model: model, TensorParallel: 1, MaxModelLen: 8192, Offline: true}

	// Kubernetes path.
	kcfg := cfg
	kcfg.IngressHost = "llama8b.apps.goodall.example.gov"
	kdp, err := d.Deploy(p, core.VLLMPackage(), core.PlatformGoodall, kcfg)
	if err != nil {
		return nil, err
	}
	defer kdp.Stop()
	kdp.Engine().Crash(fmt.Errorf("memory leak bug: OOM"))
	crashAt := p.Now()
	kRecovered := waitHealthy(p, s, kdp.ExternalURL+"/health", 2*time.Hour)
	kRecovery := kRecovered.Sub(crashAt)

	// CaL path with a 5-minute cron restarter.
	ccfg := cfg
	ccfg.Persistent = true
	cdp, err := d.Deploy(p, core.VLLMPackage(), core.PlatformHops, ccfg)
	if err != nil {
		return nil, err
	}
	defer cdp.Stop()
	cron := &ingress.CronRestarter{
		Net: s.Net, From: site.LoginHops,
		HealthURL: cdp.BaseURL + "/health",
		Interval:  5 * time.Minute,
		// The user re-runs their podman command on the CaL node.
		Redeploy: cdp.Relaunch,
	}
	cron.Start(s.Eng)
	defer cron.Stop()
	cdp.Engine().Crash(fmt.Errorf("memory leak bug: OOM"))
	crashAt = p.Now()
	cRecovered := waitHealthy(p, s, cdp.BaseURL+"/health", 4*time.Hour)
	cRecovery := cRecovered.Sub(crashAt)

	res.Table = metrics.Table([]string{"platform", "mechanism", "recovery time"}, [][]string{
		{"Goodall K8s", "kubelet restart + endpoint update", kRecovery.Round(time.Second).String()},
		{"Hops CaL", "user cron job (5 min poll)", cRecovery.Round(time.Second).String()},
	})
	res.Series = []metrics.Series{{Name: "recovery seconds", Points: []metrics.Point{
		{X: 0, Y: kRecovery.Seconds(), Note: "k8s"},
		{X: 1, Y: cRecovery.Seconds(), Note: "cal+cron"},
	}}}
	if cRecovery <= kRecovery {
		res.Notes = append(res.Notes, "WARNING: expected Kubernetes to recover faster than cron-based CaL")
	} else {
		res.Notes = append(res.Notes, "Kubernetes self-healing beats cron-restart CaL, as §3.3 argues")
	}
	return res, nil
}

// waitHealthy polls a health URL until 200 or deadline, returning the time
// health returned.
func waitHealthy(p *sim.Proc, s *site.Site, url string, limit time.Duration) time.Time {
	client := &vhttp.Client{Net: s.Net, From: "laptop"}
	deadline := p.Now().Add(limit)
	for p.Now().Before(deadline) {
		resp, err := client.Get(p, url)
		if err == nil && resp.Status == 200 {
			return p.Now()
		}
		p.Sleep(15 * time.Second)
	}
	return p.Now()
}

// runParallel is the §3.5 parallelism ablation for 405B: TP within nodes and
// PP between them versus TP spanning nodes.
func runParallel(p *sim.Proc, s *site.Site, d *core.Deployer, opts Options) (*Result, error) {
	res := &Result{ID: "parallel", Title: "405B parallel layout: decode step-time model"}
	rows := [][]string{}
	for _, layout := range []struct {
		tp, pp int
		label  string
	}{
		{4, 4, "TP4×PP4 (paper's layout)"},
		{8, 2, "TP8×PP2 (TP spans 2 nodes)"},
		{16, 1, "TP16 (TP spans 4 nodes)"},
	} {
		params := vllm.LookupParams(llm.Llama31405B, hw.H100SXM, layout.tp, layout.pp, 4)
		single := 1.0 / params.StepTime(1, 0).Seconds()
		batch := float64(256) / params.StepTime(256, 0).Seconds()
		rows = append(rows, []string{
			layout.label,
			fmt.Sprintf("%.1f tok/s", single),
			fmt.Sprintf("%.0f tok/s", batch),
		})
		res.Series = append(res.Series, metrics.Series{Name: layout.label, Points: []metrics.Point{
			{X: 1, Y: single}, {X: 256, Y: batch},
		}})
	}
	res.Table = metrics.Table([]string{"layout", "batch-1", "batch-256"}, rows)
	res.Notes = append(res.Notes,
		"cross-node tensor parallelism pays per-layer all-reduce latency; pipeline parallelism between nodes is the right split (§3.5)")
	return res, nil
}

// runMaxLen sweeps --max-model-len for Scout on 4×H100 and reports the
// capacity gate (§3.2: the 10M default context cannot be served).
func runMaxLen(p *sim.Proc, s *site.Site, d *core.Deployer, opts Options) (*Result, error) {
	res := &Result{ID: "maxlen", Title: "Scout --max-model-len capacity gate on 4×H100"}
	rows := [][]string{}
	var lastOK int
	for _, maxLen := range []int{8192, 65536, 131072, 262144, 1048576, 10_000_000} {
		_, err := vllm.PlanCapacity(vllm.Config{
			Model: llm.Scout, GPU: hw.H100SXM, TensorParallel: 4, MaxModelLen: maxLen,
		})
		status := "OK"
		if err != nil {
			status = "FAILS: " + firstLine(err.Error())
		} else {
			lastOK = maxLen
		}
		rows = append(rows, []string{fmt.Sprintf("%d", maxLen), status})
	}
	res.Table = metrics.Table([]string{"--max-model-len", "startup"}, rows)
	res.Anchors = append(res.Anchors, Anchor{
		Name:  "65536 context serves on one node (paper's deployed value)",
		Paper: 65536, Measured: float64(boolTo(lastOK >= 65536, 65536, 0)), Unit: "tokens",
	})
	res.Notes = append(res.Notes,
		"the 10M-token default context of Llama 4 Scout requires --max-model-len to fit on a single node (§3.2)")
	_ = s
	_ = d
	return res, nil
}

func firstLine(s string) string {
	for i, r := range s {
		if r == '\n' {
			return s[:i]
		}
	}
	if len(s) > 90 {
		return s[:90] + "..."
	}
	return s
}

func boolTo(b bool, t, f int) int {
	if b {
		return t
	}
	return f
}

var _ = oci.ParseRef
var _ = k8s.PodRunning
