package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/ingress"
	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/vllm"
)

// Passes of the traced run, and the set-up-only pass; an untraced
// iteration has pass "".
const (
	passCPU   = "cpu"   // CPU profile and a trace of every request
	passMem   = "mem"   // allocation profile
	passSetup = "setup" // set-up only, timed for setup_s
)

// memProfileRate samples one allocation per 512 bytes allocated in the
// allocation pass; counts are scaled back up the way pprof does. Recording
// every allocation (rate 1) agrees within 0.5% but runs six times slower,
// too slow for the largest workloads to finish within the time a run may
// take.
const memProfileRate = 512

// scenario is one workload's inputs, deployment and load loop.
type scenario interface {
	// generate builds the inputs from it.seed (set-up phase): it sizes
	// it.recs and feeds every input field into the input digest.
	generate(it *iteration, d *digest) error
	// deploy stands the fleet up on the site (set-up phase).
	deploy(it *iteration, p *sim.Proc) error
	// drive sends every request and returns once all have finished.
	drive(it *iteration, p *sim.Proc)
	// finish adds the workload's own metrics and checks.
	finish(it *iteration)
}

// iteration is one set-up plus one measured phase of a workload, in this
// process. The coordinator runs each iteration in a fresh child process.
type iteration struct {
	w    *mix
	sc   scenario
	seed int64
	pass string
	dir  string // traced pass output directory

	site *site.Site
	dep  *core.Deployer
	cl   *client
	recs []record

	// Virtual start and end of the measured phase: first dispatch to last
	// completion.
	start, end time.Time

	// Set-up accounting.
	began     time.Time     // wall: when the iteration began
	seedV     time.Duration // virtual time inside core.SeedModel
	deployV   time.Duration // virtual duration of the deploy call
	coreWall  time.Duration // wall time inside the core calls
	setupSpan [3]time.Time  // virtual: seed start, deploy start, deploy end

	// What the monitor watches.
	deployments []*core.Deployment
	gateways    []*ingress.Gateway
	scalers     []*autoscale.Autoscaler
	engines     []*vllm.Engine
	seen        map[*vllm.Engine]bool

	// Measured-phase counters.
	inflight                           int // requests dispatched, not finished
	events, eventsAtStart, eventsAtEnd int
	queueMax, queueMaxMeasured         int
	routeCalls, routeAtStart           int
	nodeSeconds                        float64
	replicaSeconds                     float64 // autoscaled sets only
	drainSpan                          [2]time.Time

	// Wall-clock results.
	setupWall    time.Duration
	measuredWall time.Duration
	mallocs      uint64
	gcFrac       float64

	inputDigest string
	res         *iterResult
}

// execute runs the iteration end to end and returns its result.
func (it *iteration) execute() (*iterResult, error) {
	it.res = &iterResult{Workload: it.w.name, Seed: it.seed, Pass: it.pass,
		Metrics: map[string]metricValue{}, Layers: map[string]float64{}}
	it.site = site.New(site.Options{Seed: it.seed})
	it.dep = core.NewDeployer(it.site)
	it.seen = map[*vllm.Engine]bool{}
	route := it.site.Net.RouteFn
	it.site.Net.RouteFn = func(from, to string) []*netsim.Link {
		it.routeCalls++
		return route(from, to)
	}
	d := newDigest()
	if err := it.sc.generate(it, d); err != nil {
		return nil, err
	}
	it.markProbes(d)
	it.inputDigest = d.hex()

	eng := it.site.Eng
	go1 := eng.NewSignal()
	var setupErr error
	var ready, measured, settled bool
	eng.Go("benchmark", func(p *sim.Proc) {
		setupErr = it.sc.deploy(it, p)
		ready = true
		if setupErr != nil {
			return
		}
		p.Wait(go1)
		it.start = p.Now()
		eng.Go("benchmark-monitor", func(mp *sim.Proc) { it.monitor(mp, &measured) })
		it.sc.drive(it, p)
		it.end = p.Now()
		measured = true
		// Let every gateway finish a probe round, so the control plane's
		// view of the replicas reflects the drained fleet.
		p.Sleep(2 * probeInterval)
		settled = true
	})
	if err := it.stepUntil(&ready); err != nil {
		return nil, err
	}
	if setupErr != nil {
		return nil, fmt.Errorf("set-up: %w", setupErr)
	}
	// Size the probes' gap buffer up front: growing it by doubling in the
	// measured phase would put a seed-dependent step into the peak RSS.
	gaps := 0
	for i := range it.recs {
		if r := &it.recs[i]; r.probe {
			gaps += max(r.want-1, 0)
		}
	}
	it.cl.itl = make(latency, 0, gaps)
	if it.pass == passCPU {
		it.installTracing()
	}

	// The measured phase: everything between the first dispatch and the
	// last completion, with nothing else running in the process. It starts
	// on a freshly collected heap, so set-up garbage does not land in it.
	it.setupWall = time.Since(it.began)
	if it.pass == passSetup {
		it.res.InputDigest = it.inputDigest
		it.res.Wall.SetupS = it.setupWall.Seconds()
		return it.res, nil
	}
	runtime.GC()
	stopProfile, err := it.startProfile()
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPU()
	it.eventsAtStart, it.routeAtStart, it.queueMax = it.events, it.routeCalls, 0
	go1.Fire()
	wall0 := time.Now()
	if err := it.stepUntil(&measured); err != nil {
		return nil, err
	}
	it.measuredWall = time.Since(wall0)
	it.eventsAtEnd, it.queueMaxMeasured = it.events, it.queueMax
	it.routeCalls -= it.routeAtStart
	runtime.ReadMemStats(&ms1)
	gc1, cpu1 := gcCPU()
	it.mallocs = ms1.Mallocs - ms0.Mallocs
	if cpu1 > cpu0 {
		it.gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	if err := stopProfile(); err != nil {
		return nil, err
	}
	if err := it.stepUntil(&settled); err != nil {
		return nil, err
	}
	it.collect()
	it.sc.finish(it)
	it.commonChecks()
	if it.pass == passCPU {
		if err := it.writeSpans(); err != nil {
			return nil, err
		}
	}
	it.summarize()
	return it.res, nil
}

// markProbes picks the probes, marks the requests that stream, and feeds
// both into the input digest. The probes are a systematic sample of the
// selected requests ordered by output length: every probeEvery-th, so
// they stream the same share of the selected requests' tokens whatever
// the seed, and the streaming cost a run pays does not vary with it.
func (it *iteration) markProbes(d *digest) {
	var sel []int
	for i := range it.recs {
		if it.w.sel(&it.recs[i]) {
			sel = append(sel, i)
		}
	}
	sort.SliceStable(sel, func(a, b int) bool { return it.recs[sel[a]].want < it.recs[sel[b]].want })
	for n, i := range sel {
		it.recs[i].probe = n%it.w.probeEvery == 0
	}
	for i := range it.recs {
		r := &it.recs[i]
		r.stream = it.w.sse || r.probe
		if r.stream {
			d.int(int64(i))
		}
	}
}

// openLoop dispatches requests lo..hi-1 open loop: request i is due at
// base+at[i] and goes out exactly then, on its own process — after the
// signal wait(i) returns, when it returns one (a session's previous turn).
// Each request joins g, which finishes as they complete.
func (it *iteration) openLoop(p *sim.Proc, base time.Time, at []time.Duration, lo, hi int,
	wait func(i int) *sim.Signal, send func(rp *sim.Proc, i int), g *sim.Group) {
	eng := p.Engine()
	for i := lo; i < hi; i++ {
		due := base.Add(at[i])
		if d := due.Sub(p.Now()); d > 0 {
			p.Sleep(d)
		}
		it.recs[i].due = due.Sub(it.start)
		it.inflight++
		g.Add(1)
		eng.Go("request", func(rp *sim.Proc) {
			if wait != nil {
				if s := wait(i); s != nil {
					rp.Wait(s)
				}
			}
			send(rp, i)
			it.inflight--
			g.Finish()
		})
	}
}

// probeInterval is the gateways' health and telemetry probe period (the
// ingress default).
const probeInterval = 15 * time.Second

// stepLimit bounds one phase's events, so a livelocked simulation fails
// the run instead of hanging it.
const stepLimit = 1 << 31

// stepUntil advances the simulation one event at a time until *done,
// counting events and the deepest event queue seen.
func (it *iteration) stepUntil(done *bool) error {
	eng := it.site.Eng
	for n := 0; !*done; n++ {
		if n >= stepLimit || !eng.Step() {
			return fmt.Errorf("simulation stalled after %d events at %s", it.events, eng.Now().Sub(sim.Epoch))
		}
		it.events++
		if q := eng.Pending(); q > it.queueMax {
			it.queueMax = q
		}
	}
	return nil
}

// monitorEvery is the virtual sampling period of the fleet monitor.
const monitorEvery = time.Second

// monitor samples the fleet once per virtual second during the measured
// phase: nodes held (node_s), autoscaled replica counts, and every engine
// that comes up, so replicas that are later drained still count.
func (it *iteration) monitor(p *sim.Proc, stop *bool) {
	last := p.Now()
	nodes, scaled := 0, 0
	for {
		// Each sample holds until the next (a left Riemann sum), and the
		// last interval ends with the measured phase.
		now := p.Now()
		if *stop {
			now = it.end
		}
		dt := now.Sub(last).Seconds()
		it.nodeSeconds += float64(nodes) * dt
		it.replicaSeconds += float64(scaled) * dt
		last = now
		if *stop {
			return
		}
		it.watchEngines()
		nodes, scaled = it.occupancy()
		p.Sleep(monitorEvery)
	}
}

// occupancy counts the nodes the deployments hold (replicas serving,
// launching or draining) and the live replicas of autoscaled sets.
func (it *iteration) occupancy() (nodes, scaled int) {
	for _, dp := range it.deployments {
		if dp.Gateway() == nil {
			nodes++ // a single instance holds its one node
			continue
		}
		nodes += dp.OccupiedReplicas()
		if dp.Autoscaler() != nil {
			scaled += dp.CurrentReplicas()
		}
	}
	return nodes, scaled
}

// watchEngines records every serving engine the deployments expose.
func (it *iteration) watchEngines() {
	for _, dp := range it.deployments {
		for _, r := range dp.Replicas() {
			if e := r.Engine(); e != nil && !it.seen[e] {
				it.seen[e] = true
				it.engines = append(it.engines, e)
			}
		}
	}
}

// watch registers a deployment's gateway and autoscaler with the monitor.
func (it *iteration) watch(dp *core.Deployment) {
	it.deployments = append(it.deployments, dp)
	if gw := dp.Gateway(); gw != nil {
		it.gateways = append(it.gateways, gw)
	}
	if as := dp.Autoscaler(); as != nil {
		it.scalers = append(it.scalers, as)
	}
}

// seedModels stages the models' weights onto the Hops filesystem.
func (it *iteration) seedModels(p *sim.Proc, models ...*llm.ModelSpec) error {
	t0, w0 := p.Now(), time.Now()
	it.setupSpan[0] = t0
	for _, m := range models {
		if err := core.SeedModel(p, it.site.HopsLustre, m); err != nil {
			return err
		}
	}
	it.seedV = p.Now().Sub(t0)
	it.coreWall += time.Since(w0)
	return nil
}

// timedDeploy runs one deploy call, accounting its virtual duration (the
// cold start) and the wall time the deploy stack spent.
func (it *iteration) timedDeploy(p *sim.Proc, deploy func() error) error {
	t0, w0 := p.Now(), time.Now()
	it.setupSpan[1] = t0
	err := deploy()
	it.setupSpan[2] = p.Now()
	it.deployV = p.Now().Sub(t0)
	it.coreWall += time.Since(w0)
	return err
}

// startProfile begins the traced pass's measurement: the CPU profile for
// pass A, a snapshot of the allocation profile for pass B. The returned
// function ends it and attributes what was recorded to layers.
func (it *iteration) startProfile() (func() error, error) {
	switch it.pass {
	case passCPU:
		path := filepath.Join(it.dir, "cpu.pprof")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		return func() error {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				return err
			}
			byLayer, err := cpuByLayer(path)
			if err != nil {
				return err
			}
			it.attribute(byLayer, "cpu_us_per_req", 1e-3)
			var total int64
			for _, ns := range byLayer {
				total += ns
			}
			for _, l := range layers {
				it.res.Layers[l+".cpu_frac"] = ratio(float64(byLayer[l]), float64(total))
			}
			return nil
		}, nil
	case passMem:
		before := memProfile()
		return func() error {
			it.attribute(allocsByLayer(before, memProfile(), runtime.MemProfileRate), "allocs_per_req", 1)
			return nil
		}, nil
	}
	return func() error { return nil }, nil
}

// attribute records a per-layer measurement as <layer>.<name>, per request
// sent, scaled by unit; every layer is reported, zero or not.
func (it *iteration) attribute(byLayer map[string]int64, name string, unit float64) {
	var total int64
	for _, l := range layers {
		total += byLayer[l]
		it.res.Layers[l+"."+name] = float64(byLayer[l]) * unit / float64(len(it.recs))
	}
	it.res.Layers["total."+name] = float64(total) * unit / float64(len(it.recs))
}

// gcCPU reads the runtime's cumulative GC and total CPU estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// collect folds the fleet's accessor counters into the result: the
// per-layer metrics every run prints, from public accessors only.
func (it *iteration) collect() {
	it.watchEngines()
	sent := float64(len(it.recs))
	L := it.res.Layers
	L["sim.events_per_req"] = float64(it.eventsAtEnd-it.eventsAtStart) / sent
	L["sim.queue_len_max"] = float64(it.queueMaxMeasured)
	L["vhttp.calls_per_req"] = float64(it.routeCalls) / sent

	var retries, held, warmups, sketch, spills, sloSheds int
	for _, gw := range it.gateways {
		st := gw.Stats()
		retries += st.Retries
		held += st.Held
		warmups += st.Warmups
		sketch += gw.SketchRoutes()
		spills += gw.SessionSpills()
		if slo, ok := gw.SLO(); ok {
			sloSheds += slo.Sheds
		}
	}
	L["ingress.retries_per_req"] = float64(retries) / sent
	L["ingress.held_frac"] = float64(held) / sent
	L["ingress.warmups_per_req"] = float64(warmups) / sent
	L["sched.sketch_route_frac"] = float64(sketch) / sent
	L["sched.spill_frac"] = float64(spills) / sent
	L["sched.slo_sheds"] = float64(sloSheds)

	span := it.end.Sub(it.start)
	var busy, tw, td, tpf time.Duration
	var prefilled float64 // prompt tokens the engines computed
	var steps, tokens int64
	var hits, misses, cached, evict, demote, promote, drops, preempt, deadline int64
	kvPeak := 0.0
	for _, e := range it.engines {
		st, perf := e.Stats(), e.Perf()
		busy += st.BusyTime
		steps += int64(st.Steps)
		tokens += st.TokensOut
		// The step-time model is D(b, p) = Tw + b·Td + p·Tpf: Tw per step,
		// Td per decode token (every token but the one each prefill
		// completion emits), and the prefill share as the remainder after
		// the host-tier transfers the steps also paid for.
		decodeTokens := st.TokensOut - int64(st.Completed+st.Resumes)
		if decodeTokens < 0 {
			decodeTokens = 0
		}
		stepTw := time.Duration(st.Steps) * perf.Tw
		stepTd := time.Duration(decodeTokens) * perf.Td
		transfer := time.Duration(st.TierPromotions) * time.Duration(e.Config().KVTransferMicros) * time.Microsecond
		tw += stepTw
		td += stepTd
		if rest := st.BusyTime - stepTw - stepTd - transfer; rest > 0 {
			tpf += rest
			prefilled += float64(rest) / float64(perf.Tpf)
		}
		hits += st.PrefixHits
		misses += st.PrefixMisses
		cached += st.CachedTokens
		evict += st.PrefixEvictions
		demote += st.TierDemotions
		promote += st.TierPromotions
		drops += st.HostDrops
		preempt += int64(st.Preemptions)
		deadline += int64(st.DeadlineMisses)
		if f := float64(st.PeakKVBlocks) / float64(e.KV().TotalBlocks()); f > kvPeak {
			kvPeak = f
		}
	}
	if span > 0 && len(it.engines) > 0 {
		L["vllm.busy_frac"] = float64(busy) / float64(span) / float64(len(it.engines))
	}
	L["vllm.tokens_per_step"] = ratio(float64(tokens), float64(steps))
	L["vllm.kv_peak_frac"] = kvPeak
	L["vllm.step_tw_frac"] = ratio(float64(tw), float64(busy))
	L["vllm.step_decode_frac"] = ratio(float64(td), float64(busy))
	L["vllm.step_prefill_frac"] = ratio(float64(tpf), float64(busy))
	L["vllm.prefix_hit_rate"] = ratio(float64(hits), float64(hits+misses))
	// Warm-ups the gateway fires count too: the engine served their
	// prompts like any other.
	L["vllm.cached_token_frac"] = ratio(float64(cached), float64(cached)+prefilled)
	L["vllm.evictions_per_req"] = float64(evict) / sent
	L["vllm.demotions_per_req"] = float64(demote) / sent
	L["vllm.promotions_per_req"] = float64(promote) / sent
	L["vllm.host_drops"] = float64(drops)
	L["vllm.preemptions_per_req"] = float64(preempt) / sent
	L["vllm.deadline_misses"] = float64(deadline)

	var ups, downs int
	for _, as := range it.scalers {
		st := as.Status()
		ups += st.ScaleUps
		downs += st.ScaleDowns
	}
	L["autoscale.scale_ups"] = float64(ups)
	L["autoscale.scale_downs"] = float64(downs)
	if len(it.scalers) > 0 && span > 0 {
		L["autoscale.replicas_mean"] = it.replicaSeconds / span.Seconds()
	}
	L["core.seed_s"] = it.seedV.Seconds()
	L["core.cpu_ms"] = float64(it.coreWall) / float64(time.Millisecond)
	if it.pass == passCPU {
		L["runtime.gc_cpu_frac"] = it.gcFrac
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// check records one correctness check.
func (it *iteration) check(name string, pass bool, format string, args ...any) {
	it.res.Checks = append(it.res.Checks, checkResult{Name: name, OK: pass, Detail: fmt.Sprintf(format, args...)})
}

// commonChecks are the correctness checks every workload runs.
func (it *iteration) commonChecks() {
	// Every request ends exactly one way, per step.
	type tally struct{ sent, done, shed, failed int }
	steps := map[int]*tally{}
	for i := range it.recs {
		r := &it.recs[i]
		t := steps[r.step]
		if t == nil {
			t = &tally{}
			steps[r.step] = t
		}
		t.sent++
		switch r.status {
		case statusOK:
			t.done++
		case statusShed:
			t.shed++
		case statusFailed:
			t.failed++
		}
	}
	keys := make([]int, 0, len(steps))
	for k := range steps {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	partition, detail := true, ""
	for _, k := range keys {
		t := steps[k]
		if t.sent != t.done+t.shed+t.failed {
			partition = false
			detail += fmt.Sprintf(" step %d: %d != %d+%d+%d;", k, t.sent, t.done, t.shed, t.failed)
		}
	}
	it.check("sent = completed + shed + failed", partition, "%d step(s)%s", len(keys), detail)

	// An open loop sends each request when it is due; only a session's
	// later turns may wait (for the turn before them).
	late, maxLate := 0, time.Duration(0)
	for i := range it.recs {
		if r := &it.recs[i]; r.turn == 0 && r.sent != r.due {
			late++
			maxLate = max(maxLate, r.sent-r.due)
		}
	}
	it.check("every turn-0 request is dispatched at its due time", late == 0, "%d late, by up to %s", late, maxLate)

	c := it.cl
	it.check("completions carry the requested token count", c.wrongTokens == 0, "%d wrong", c.wrongTokens)
	it.check("completion text is the synthesized text of that count", c.wrongText == 0, "%d wrong", c.wrongText)
	failedN := 0
	for i := range it.recs {
		if it.recs[i].status == statusFailed {
			failedN++
		}
	}
	it.check("no request failed", failedN == 0, "%d failed %v", failedN, c.errs)

	leaked, inUse := 0, 0
	for _, e := range it.engines {
		leaked += e.Stats().LeakedBlocks
		held := e.KV().UsedBlocks()
		if idx := e.Prefix(); idx != nil {
			held -= idx.Evictable() // resident cache no sequence references
		}
		inUse += held
	}
	it.check("engines leak no KV and hold none after drain", leaked == 0 && inUse == 0,
		"%d engines, %d leaked, %d blocks in use", len(it.engines), leaked, inUse)

	load := 0
	for _, gw := range it.gateways {
		load += gw.Load()
	}
	it.check("gateway load returns to 0", load == 0, "%d gateways, load %d", len(it.gateways), load)
}

// summarize fills the result's counts, digests and wall-clock metrics.
func (it *iteration) summarize() {
	res := it.res
	res.InputDigest = it.inputDigest
	res.OutcomeDigest = outcomeDigest(it.recs)
	for i := range it.recs {
		switch it.recs[i].status {
		case statusOK:
			res.Completed++
		case statusShed:
			res.Shed++
		case statusFailed:
			res.Failed++
		}
	}
	res.Sent = len(it.recs)
	res.Errors = it.cl.errs
	sent := float64(res.Sent)
	res.Wall = wallResult{
		SetupS:       it.setupWall.Seconds(),
		MeasuredS:    it.measuredWall.Seconds(),
		WallUsPerReq: float64(it.measuredWall.Microseconds()) / sent,
		AllocsPerReq: float64(it.mallocs) / sent,
		MaxRSSMB:     maxRSSMB(),
	}
	res.VirtualS = it.end.Sub(it.start).Seconds()
}
