// Scenario harness: table-driven end-to-end tests for multi-model serving.
// Each scenario is pure data — a fleet spec (models, weights, elastic
// ranges, a shared node pool), scripted open-loop load phases, fault
// events, and expected routing/scaling outcomes — executed by one driver
// against a real Router, real per-model Gateways, and real Autoscalers
// drawing from a real Pool. Replicas are fakes by default (instant model
// "engines" with configurable latency and cold-start time) so the suite
// covers the same control-plane topology as examples/multimodel
// deterministically in go test; scenarios asserting engine-level effects
// (prefix-cache hits, prefill-dependent TTFT) set `engine: true` and run
// real vllm.Engine replicas instead.
//
// The file lives in package ingress_test so it can compose internal/ingress
// with internal/autoscale (which imports ingress) without a cycle.
package ingress_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/bench"
	"repro/internal/hw"
	"repro/internal/ingress"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vhttp"
	"repro/internal/vllm"
	"repro/internal/workload"
)

// scenarioModel is one model's row in a scenario's fleet spec.
type scenarioModel struct {
	name    string
	weight  int
	initial int // replicas at t=0
	min     int
	max     int
	// coldStart is how long a fresh fake replica takes to come up.
	coldStart time.Duration
	// latency is the fake engine's per-request base service time.
	latency time.Duration
	// slowdown is the extra service time per request already queued on the
	// replica — a contention model, so overload visibly degrades p95.
	slowdown time.Duration
	// downCooldown is the model's scale-down cooldown; long values force
	// reclaim to happen through pool arbitration rather than self-drain.
	downCooldown time.Duration
	// policy overrides the gateway balancing policy (default least-loaded).
	policy ingress.Policy
	// sloP95 sets the model's p95 latency objective (0 = no SLO admission).
	sloP95 time.Duration
	// sessions > 0 tags the model's requests with that many distinct
	// session keys (round-robin), exercising session-affinity routing.
	sessions int

	// ttft sets the gateway's time-to-first-token objective: requests are
	// stamped with per-class deadline budgets for the engine's deadline
	// scheduler (batch gets a relaxed multiple).
	ttft time.Duration
	// fcfs runs engine replicas on the FCFS baseline scheduler instead of
	// the deadline default (comparison scenarios).
	fcfs bool
	// maxBatched pins the engine's per-step token budget (engine replicas
	// only; 0 = engine default).
	maxBatched int

	// engine replaces the instant fake replicas with real vllm.Engine
	// instances behind vllm.APIServers, so scenarios observe genuine
	// engine-level effects (prefix-cache hits, prefill-dependent TTFT).
	engine bool
	// kvBlocks pins the engine KV size (--num-gpu-blocks-override).
	kvBlocks int
	// maxModelLen is the engine context limit (engine replicas only).
	maxModelLen int
	// offloadBlocks enables the engines' host-memory KV spill tier
	// (--cpu-offload-blocks).
	offloadBlocks int
	// conv > 0 drives that many multi-turn conversations against the
	// model: convTurns sequential turns each, every turn re-sending the
	// whole history plus a fresh convWords-token user message and folding
	// the convReply-token answer back in. Turns across conversations are
	// strictly interleaved (conv 0 turn 0, conv 1 turn 0, …), so replica
	// placement — and with it cache locality — is deterministic per policy.
	conv      int
	convTurns int
	convWords int // tokens per user turn (approximate, 4 chars/token)
	convReply int // max_tokens per answer
	// drainAfterTurn > 0 gracefully drains one replica after that many
	// conversation turn rounds complete — the forced-migration event the
	// cache-aware placement scenarios compare policies under.
	drainAfterTurn int
}

// scenarioPhase is one scripted load segment: per-model mean open-loop
// arrival rates held for dur. rps is interactive-class traffic; batch is
// batch-class traffic (X-Priority: batch), shed first under an SLO breach.
type scenarioPhase struct {
	name  string
	dur   time.Duration
	rps   map[string]float64
	batch map[string]float64
}

// scenarioEvent injects a fault at an offset from the scenario start.
type scenarioEvent struct {
	at    time.Duration
	crash string // model whose newest live replica crashes (endpoint gone)
}

// expect is the scenario's acceptance contract.
type expect struct {
	// maxFailed bounds user-visible interactive-class failures per model
	// (absent = 0): only requests in flight on a crashing replica may be
	// allowed to fail. Batch-class 503 sheds are counted separately.
	maxFailed map[string]int
	// minPeak / maxPeak bound each model's peak replica count (absent =
	// unchecked).
	minPeak map[string]int
	maxPeak map[string]int
	// finalMin bounds each model's replica count at scenario end.
	finalMin map[string]int
	// wantReclaim requires at least one pool-arbitration preemption (a
	// model shrunk below its own policy's target).
	wantReclaim bool
	// probe404, when set, sends a request for this model name after the
	// load and requires a 404 naming every fleet model.
	probe404 string
	// wantHeld requires this model to have held (cold-start-queued) at
	// least one request.
	wantHeld string
	// minShed requires at least this many batch-class 503 sheds per model
	// (the SLO admission path under a burst).
	minShed map[string]int
	// wantAffinity requires every session of this model to have been
	// served by exactly one replica, spread across at least two replicas
	// overall (session-affinity routing with no saturation spill).
	wantAffinity string
}

// scenario is one table entry.
type scenario struct {
	name      string
	poolNodes int // 0 = no shared pool
	models    []scenarioModel
	phases    []scenarioPhase
	events    []scenarioEvent
	expect    expect

	// workload, when set, drives the fleet from a declarative WorkloadSpec
	// (cohorts, diurnal arrival periods, multi-turn sessions) instead of the
	// hand-scripted phase list: the stream is generated deterministically and
	// replayed open-loop through the router via bench.RunWorkload. Per-cohort
	// outcomes land in scenarioResult.workload; per-model counts fold into
	// the rigs so the standard expect contract still applies.
	workload *workload.Spec
	// observeAt, when > 0, fetches the router's /observe FleetSnapshot at
	// that offset into the run (scenarioResult.observed) — for asserting
	// what the fleet telemetry reported mid-load, not just end state.
	observeAt time.Duration
}

// fakeReplica is a controllable model engine endpoint.
type fakeReplica struct {
	model    string
	name     string
	latency  time.Duration
	slowdown time.Duration
	up       bool
	queue    int // in-service requests, reported as running in telemetry
}

func (r *fakeReplica) Serve(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
	switch req.Path {
	case "/health":
		if r.up {
			return vhttp.Text(200, "ok")
		}
		return vhttp.Text(500, "unhealthy")
	case telemetry.Path:
		return vhttp.JSON(200, telemetry.Snapshot{Running: r.queue}.Encode())
	}
	// Service time degrades with the queue already on the engine, so
	// sustained overload shows up in the gateway's rolling p95.
	service := r.latency + time.Duration(r.queue)*r.slowdown
	r.queue++
	p.Sleep(service)
	r.queue--
	if !r.up {
		// Crashed mid-request: the dying engine fails its in-flight work.
		return vhttp.Text(500, `{"error":{"message":"engine dead"}}`)
	}
	body, _ := json.Marshal(map[string]string{"model": r.model, "replica": r.name})
	return vhttp.JSON(200, body)
}

// scenarioScaler is what the harness drives: autoscale.Scaler plus the
// pool-accounting and fault hooks. Implemented by fakeScaler (instant
// latency-model replicas) and engineScaler (real vllm engines).
type scenarioScaler interface {
	autoscale.Scaler
	Occupied() int
	crash()
}

// engineScaler launches real vllm.Engine replicas (behind vllm.APIServer)
// against the model's gateway — the replica shape scenarios use when the
// expected win lives inside the engine (prefix caching, KV pressure).
type engineScaler struct {
	eng       *sim.Engine
	net       *vhttp.Net
	gw        *ingress.Gateway
	model     scenarioModel
	replicas  []*engineReplica
	all       []*vllm.Engine // every engine ever launched (cumulative stats)
	nextID    int
	portBase  int
	launching int
}

type engineReplica struct {
	name   string
	host   string
	port   int
	engine *vllm.Engine
}

func (s *engineScaler) CurrentReplicas() int { return len(s.replicas) }
func (s *engineScaler) Occupied() int        { return len(s.replicas) + s.launching }

func (s *engineScaler) ScaleTo(p *sim.Proc, n int) error {
	for len(s.replicas) < n {
		name := fmt.Sprintf("%s-%d", s.model.name, s.nextID)
		port := s.portBase + s.nextID
		s.nextID++
		s.launching++
		p.Sleep(s.model.coldStart)
		s.launching--
		policy := ""
		if s.model.fcfs {
			policy = vllm.SchedulerFCFS
		}
		eng, err := vllm.New(s.eng, vllm.Config{
			Model: llm.Llama318B, GPU: hw.H100SXM, TensorParallel: 1,
			MaxModelLen:          s.model.maxModelLen,
			NumGPUBlocksOverride: s.model.kvBlocks,
			MaxBatchedTokens:     s.model.maxBatched,
			CPUOffloadBlocks:     s.model.offloadBlocks,
			SchedulerPolicy:      policy,
		})
		if err != nil {
			return err
		}
		eng.Run()
		srv := &vllm.APIServer{Engine: eng, ServedName: s.model.name, Replica: name}
		host := "node-" + name
		up := func() bool { crashed, _ := eng.Crashed(); return !crashed }
		if err := s.net.Listen(host, port, srv, vhttp.ListenOptions{Up: up}); err != nil {
			return err
		}
		r := &engineReplica{name: name, host: host, port: port, engine: eng}
		s.replicas = append(s.replicas, r)
		s.all = append(s.all, eng)
		s.gw.AddBackend(name, host, port)
	}
	for len(s.replicas) > n {
		victim := s.replicas[len(s.replicas)-1]
		s.replicas = s.replicas[:len(s.replicas)-1]
		if sig := s.gw.RemoveBackend(victim.name); sig != nil {
			p.WaitTimeout(sig, 10*time.Minute)
		}
		victim.engine.Stop()
		s.net.Unlisten(victim.host, victim.port)
	}
	return nil
}

func (s *engineScaler) crash() {
	if len(s.replicas) == 0 {
		return
	}
	victim := s.replicas[len(s.replicas)-1]
	s.replicas = s.replicas[:len(s.replicas)-1]
	victim.engine.Crash(fmt.Errorf("scenario: injected crash"))
	s.gw.RemoveBackend(victim.name)
	s.net.Unlisten(victim.host, victim.port)
}

// prefix totals the prefix-cache counters across every engine launched.
func (s *engineScaler) prefix() (hits, misses int64) {
	for _, e := range s.all {
		st := e.Stats()
		hits += st.PrefixHits
		misses += st.PrefixMisses
	}
	return hits, misses
}

// sched totals the deadline-scheduler counters across every engine
// launched: per-class first-token deadline misses, preemptions, resumes.
func (s *engineScaler) sched() (missByClass map[string]int, preempts, resumes int) {
	missByClass = map[string]int{}
	for _, e := range s.all {
		for cls, n := range e.DeadlineMissesByClass() {
			missByClass[cls] += n
		}
		st := e.Stats()
		preempts += st.Preemptions
		resumes += st.Resumes
	}
	return missByClass, preempts, resumes
}

// fakeScaler implements autoscale.Scaler by launching and draining fake
// replicas against the model's gateway, with a simulated cold start.
type fakeScaler struct {
	net       *vhttp.Net
	gw        *ingress.Gateway
	model     scenarioModel
	replicas  []*fakeReplica
	ports     []int
	nextID    int
	portBase  int
	launched  int
	launching int // launches in flight (cold start running)
	reclaimed int
}

func (s *fakeScaler) CurrentReplicas() int { return len(s.replicas) }

// Occupied counts the nodes the scaler holds for pool accounting: live
// replicas plus launches still in their cold start — mirroring
// core.Deployment.OccupiedReplicas, so the pool cannot double-grant a
// node that a cold-starting replica is already loading weights on.
func (s *fakeScaler) Occupied() int { return len(s.replicas) + s.launching }

func (s *fakeScaler) ScaleTo(p *sim.Proc, n int) error {
	for len(s.replicas) < n {
		r := &fakeReplica{
			model:    s.model.name,
			name:     fmt.Sprintf("%s-%d", s.model.name, s.nextID),
			latency:  s.model.latency,
			slowdown: s.model.slowdown,
			up:       true,
		}
		port := s.portBase + s.nextID
		s.nextID++
		s.launching++
		p.Sleep(s.model.coldStart)
		s.launching--
		host := "node-" + r.name
		if err := s.net.Listen(host, port, r, vhttp.ListenOptions{Up: func() bool { return r.up }}); err != nil {
			return err
		}
		s.replicas = append(s.replicas, r)
		s.ports = append(s.ports, port)
		s.gw.AddBackend(r.name, host, port)
		s.launched++
	}
	for len(s.replicas) > n {
		victim := s.replicas[len(s.replicas)-1]
		port := s.ports[len(s.ports)-1]
		s.replicas = s.replicas[:len(s.replicas)-1]
		s.ports = s.ports[:len(s.ports)-1]
		if sig := s.gw.RemoveBackend(victim.name); sig != nil {
			p.WaitTimeout(sig, 10*time.Minute)
		}
		victim.up = false
		s.net.Unlisten("node-"+victim.name, port)
	}
	return nil
}

// crash kills the newest live replica: the endpoint drops (transport
// errors), the control plane notices, and the replica leaves the set — so
// the autoscaler sees the loss and cold-starts a replacement on demand.
func (s *fakeScaler) crash() {
	if len(s.replicas) == 0 {
		return
	}
	victim := s.replicas[len(s.replicas)-1]
	port := s.ports[len(s.ports)-1]
	s.replicas = s.replicas[:len(s.replicas)-1]
	s.ports = s.ports[:len(s.ports)-1]
	victim.up = false
	s.gw.RemoveBackend(victim.name)
	s.net.Unlisten("node-"+victim.name, port)
}

// modelRig is one model's assembled control plane.
type modelRig struct {
	spec   scenarioModel
	gw     *ingress.Gateway
	scaler scenarioScaler
	as     *autoscale.Autoscaler

	sent      int
	failed    int // interactive-class failures (batch sheds tracked apart)
	sentBatch int
	shed      int // batch-class 503s (SLO / queue-depth admission sheds)
	wrong     int // responses served by another model's replica
	peak      int
	held      bool
	preempt   int // pool-arbitration shrinks observed
	sloShrink int // shrinks sampled while the SLO breaker was engaged
	// sessionHits maps session key -> replica names that served it.
	sessionHits map[string]map[string]bool
	// ttft collects per-request time-to-first-token (ms) from the
	// X-Request-Ttft-Micros header (engine-backed conversations).
	ttft metrics.Dist
}

// scenarioResult carries the per-model measurements a comparison test
// reads back (mean TTFT in ms, cumulative prefix-cache block hit rate).
type scenarioResult struct {
	meanTTFT map[string]float64
	hitRate  map[string]float64
	// launches counts replicas ever launched per fake-scaler model: a model
	// that held steady at N shows exactly N launches, while scale-down/up
	// flapping shows relaunches.
	launches map[string]int
	// workload is the per-cohort open-loop breakdown (workload mode only).
	workload *bench.WorkloadResult
	// observed is the mid-run /observe snapshot (observeAt > 0 only).
	observed *telemetry.FleetSnapshot
	// deadlineMiss / preempts / resumes total the engine-side deadline
	// scheduler counters per engine-backed model (miss counts by class).
	deadlineMiss map[string]map[string]int
	preempts     map[string]int
	resumes      map[string]int
	// warmups / sketchRoutes are the gateway's cache-aware placement
	// counters: async prefix warm-up submits fired, and picks placed by
	// sketch membership rather than affinity or load.
	warmups      map[string]int
	sketchRoutes map[string]int
}

// runScenario executes one table entry end to end and returns the
// measurements comparison tests consume.
func runScenario(t *testing.T, sc scenario) *scenarioResult {
	t.Helper()
	eng := sim.NewEngine(1)
	// Every executed event folds into one digest, checked against the
	// scenario's entry in scenarioEventDigests: a change that moves any
	// event's time or order shows up even where every outcome assertion
	// still holds.
	events := fnv.New64a()
	eng.Trace = func(at time.Time, label string) {
		fmt.Fprintf(events, "%d %s\n", at.UnixNano(), label)
	}
	net := vhttp.NewNet(netsim.New(eng))
	result := &scenarioResult{
		meanTTFT:     map[string]float64{},
		hitRate:      map[string]float64{},
		launches:     map[string]int{},
		deadlineMiss: map[string]map[string]int{},
		preempts:     map[string]int{},
		resumes:      map[string]int{},
		warmups:      map[string]int{},
		sketchRoutes: map[string]int{},
	}

	router := &ingress.Router{Net: net, Host: "fleet", Port: 8000}
	if err := router.Start(eng); err != nil {
		t.Fatal(err)
	}
	var pool *autoscale.Pool
	if sc.poolNodes > 0 {
		pool = autoscale.NewPool(sc.poolNodes)
		router.PoolStatus = func() any { return pool.Status() }
	}

	rigs := make([]*modelRig, 0, len(sc.models))
	rigByName := map[string]*modelRig{}
	for i, m := range sc.models {
		if m.downCooldown == 0 {
			m.downCooldown = 2 * time.Minute
		}
		if m.policy == "" {
			m.policy = ingress.PolicyLeastLoaded
		}
		gw := &ingress.Gateway{
			Net: net, Host: "fleet", Model: m.name, Unbound: true,
			Policy: m.policy, SLOTargetP95: m.sloP95, TTFTTarget: m.ttft,
			HealthInterval: 10 * time.Second,
			HoldColdStart:  true, ColdStartWait: 20 * time.Minute,
		}
		var scaler scenarioScaler
		if m.engine {
			scaler = &engineScaler{eng: eng, net: net, gw: gw, model: m, portBase: 9000 + 100*i}
		} else {
			scaler = &fakeScaler{net: net, gw: gw, model: m, portBase: 9000 + 100*i}
		}
		rig := &modelRig{
			spec:        m,
			gw:          gw,
			scaler:      scaler,
			sessionHits: map[string]map[string]bool{},
		}
		rig.as = &autoscale.Autoscaler{
			Gateway: gw, Scaler: rig.scaler, Name: m.name,
			Policy: autoscale.Policy{
				MinReplicas: m.min, MaxReplicas: m.max, TargetQueueDepth: 4,
				Interval: 15 * time.Second, ScaleUpCooldown: 30 * time.Second,
				ScaleDownCooldown: m.downCooldown, ScaleToZeroAfter: 30 * time.Minute,
			},
		}
		if pool != nil {
			// Occupied (live + launching) rather than CurrentReplicas: a
			// cold-starting replica already holds its node, so the pool
			// must not grant it to a competing model mid-launch.
			member, err := pool.Join(m.name, m.weight, 1, m.initial, rig.scaler.Occupied)
			if err != nil {
				t.Fatal(err)
			}
			rig.as.Arbiter = member
		}
		if err := gw.Start(eng); err != nil {
			t.Fatal(err)
		}
		if err := router.AddModel(m.name, gw); err != nil {
			t.Fatal(err)
		}
		rigs = append(rigs, rig)
		rigByName[m.name] = rig
	}

	done := false
	eng.Go("scenario-"+sc.name, func(p *sim.Proc) {
		defer func() { done = true }()

		// Bring up the initial replicas, then hand control to the loops.
		for _, rig := range rigs {
			if err := rig.scaler.ScaleTo(p, rig.spec.initial); err != nil {
				t.Errorf("initial ScaleTo(%s): %v", rig.spec.name, err)
				return
			}
			if err := rig.as.Start(eng); err != nil {
				t.Errorf("autoscaler %s: %v", rig.spec.name, err)
				return
			}
			gw := rig.gw
			gw.AutoscaleStatus = func() any { return rig.as.Status() }
		}

		// Fault events fire on their own processes at fixed offsets.
		for _, ev := range sc.events {
			ev := ev
			eng.Go("event", func(ep *sim.Proc) {
				ep.Sleep(ev.at)
				if ev.crash != "" {
					rigByName[ev.crash].scaler.crash()
				}
			})
		}

		// Sampler: peaks, pool bounds, and pool-arbitration preemptions (a
		// sampled replica-count drop while the controller's last decision
		// was an arbitration cap).
		poolOver := 0
		eng.Go("sampler", func(spr *sim.Proc) {
			prevN := map[string]int{}
			for !done {
				used := 0
				for _, rig := range rigs {
					n := rig.scaler.CurrentReplicas()
					used += n
					if n > rig.peak {
						rig.peak = n
					}
					if prev, ok := prevN[rig.spec.name]; ok && n < prev {
						if strings.Contains(rig.as.Status().Reason, "pool arbitration") {
							rig.preempt++
						}
						// Shrinking while the admission breaker is engaged is
						// the shed-deflated-demand race: shedding lowers load
						// and p95, the controller reads the relief as surplus,
						// and the breach re-triggers. Never legitimate.
						if slo, ok := rig.gw.SLO(); ok && slo.Engaged {
							rig.sloShrink++
						}
					}
					prevN[rig.spec.name] = n
				}
				if pool != nil && used > sc.poolNodes {
					poolOver++
				}
				spr.Sleep(5 * time.Second)
			}
		})

		// Scripted open-loop load. Each phase mixes interactive-class and
		// batch-class arrivals; arrivals pick (model, class) proportionally
		// to the phase rates.
		client := &vhttp.Client{Net: net, From: "user"}
		inflight := eng.NewGroup()
		rng := eng.Rand()

		// Mid-run observability probe: capture the merged FleetSnapshot while
		// the load (and any SLO breach) is still live.
		if sc.observeAt > 0 {
			inflight.Add(1)
			eng.Go("observe-probe", func(op *sim.Proc) {
				defer inflight.Finish()
				op.Sleep(sc.observeAt)
				resp, err := client.Do(op, &vhttp.Request{
					Method: "GET", URL: router.Endpoint() + telemetry.ObservePath,
				})
				if err != nil || resp.Status != 200 {
					t.Errorf("observe probe at %v failed: err=%v resp=%+v", sc.observeAt, err, resp)
					return
				}
				f, ferr := telemetry.DecodeFleet(resp.Body)
				if ferr != nil {
					t.Errorf("observe probe: %v", ferr)
					return
				}
				result.observed = &f
			})
		}

		// Closed-loop multi-turn conversations (engine-backed models) run
		// alongside the phase script on their own process per model.
		for _, rig := range rigs {
			if rig.spec.conv == 0 {
				continue
			}
			rig := rig
			inflight.Add(1)
			eng.Go("conversations-"+rig.spec.name, func(cp *sim.Proc) {
				defer inflight.Finish()
				runConversations(cp, rig, client, router.Endpoint())
			})
		}
		// Workload-engine mode: a declarative WorkloadSpec replaces the
		// hand-scripted phase list. The generated stream is replayed
		// open-loop through the router; cohort outcomes fold into the rigs
		// by model so the expect contract below applies unchanged.
		if sc.workload != nil {
			reqs, err := workload.Generate(*sc.workload)
			if err != nil {
				t.Errorf("workload generate: %v", err)
				return
			}
			wr := bench.RunWorkload(p, &bench.HTTPTarget{
				Client: client, BaseURL: router.Endpoint(),
			}, sc.workload.Name, reqs)
			result.workload = wr
			modelOf := map[string]string{}
			classOf := map[string]string{}
			for _, c := range sc.workload.Cohorts {
				modelOf[c.Name], classOf[c.Name] = c.Model, c.Class
			}
			for _, cr := range wr.Cohorts {
				rig := rigByName[modelOf[cr.Cohort]]
				if rig == nil {
					continue
				}
				if classOf[cr.Cohort] == "batch" {
					rig.sentBatch += cr.Completed + cr.Failed + cr.Shed
				} else {
					rig.sent += cr.Completed + cr.Failed + cr.Shed
				}
				rig.failed += cr.Failed
				rig.shed += cr.Shed
			}
		}
		for _, ph := range sc.phases {
			end := p.Now().Add(ph.dur)
			total := 0.0
			for _, m := range sc.models {
				total += ph.rps[m.name] + ph.batch[m.name]
			}
			if total == 0 {
				p.Sleep(ph.dur)
				continue
			}
			for p.Now().Before(end) {
				gap := time.Duration(rng.ExpFloat64() / total * float64(time.Second))
				p.Sleep(gap)
				if !p.Now().Before(end) {
					break
				}
				pick := rng.Float64() * total
				model := sc.models[0].name
				batch := false
				for _, m := range sc.models {
					if pick < ph.rps[m.name] {
						model = m.name
						break
					}
					pick -= ph.rps[m.name]
					if pick < ph.batch[m.name] {
						model, batch = m.name, true
						break
					}
					pick -= ph.batch[m.name]
				}
				rig := rigByName[model]
				req := map[string]any{
					"model":    model,
					"messages": []map[string]string{{"role": "user", "content": "scripted load"}},
				}
				session := ""
				if n := rig.spec.sessions; n > 0 && !batch {
					session = fmt.Sprintf("%s-session-%d", model, rig.sent%n)
					req["session_id"] = session
				}
				var header map[string]string
				if batch {
					rig.sentBatch++
					header = map[string]string{"X-Priority": "batch"}
				} else {
					rig.sent++
				}
				body, _ := json.Marshal(req)
				inflight.Add(1)
				eng.Go(fmt.Sprintf("user-%s-%d", model, rig.sent+rig.sentBatch), func(rp *sim.Proc) {
					defer inflight.Finish()
					resp, err := client.Do(rp, &vhttp.Request{
						Method: "POST", URL: router.Endpoint() + "/v1/chat/completions",
						Header: header, Body: body,
					})
					switch {
					case err == nil && resp.Status == 503 && batch:
						rig.shed++
						return
					case err != nil || resp.Status != 200:
						rig.failed++
						return
					}
					var out struct {
						Model   string `json:"model"`
						Replica string `json:"replica"`
					}
					if json.Unmarshal(resp.Body, &out) == nil {
						if out.Model != model {
							rig.wrong++
						}
						if session != "" && out.Replica != "" {
							if rig.sessionHits[session] == nil {
								rig.sessionHits[session] = map[string]bool{}
							}
							rig.sessionHits[session][out.Replica] = true
						}
					}
				})
			}
		}
		inflight.WaitAll(p)
		// Every client has its answer: no request may stay held at a
		// gateway or in flight on a replica.
		for _, rig := range rigs {
			obs := rig.gw.Observe(p.Now())
			if obs.Holding != 0 {
				t.Errorf("%s: %d requests still held after every client finished", rig.spec.name, obs.Holding)
			}
			for _, r := range obs.Replicas {
				if r.Inflight != 0 {
					t.Errorf("%s: replica %s has %d requests in flight after every client finished", rig.spec.name, r.Name, r.Inflight)
				}
			}
		}

		// Post-load probes and the acceptance contract.
		if sc.expect.probe404 != "" {
			body, _ := json.Marshal(map[string]any{"model": sc.expect.probe404})
			resp, err := client.Do(p, &vhttp.Request{
				Method: "POST", URL: router.Endpoint() + "/v1/chat/completions", Body: body,
			})
			if err != nil {
				t.Errorf("unknown model %q probe: %v", sc.expect.probe404, err)
			} else if resp.Status != 404 {
				t.Errorf("unknown model %q: status %d, want 404", sc.expect.probe404, resp.Status)
			} else {
				for _, m := range sc.models {
					if !strings.Contains(string(resp.Body), m.name) {
						t.Errorf("404 body does not list %q:\n%s", m.name, resp.Body)
					}
				}
			}
		}

		reclaims := 0
		for _, rig := range rigs {
			name := rig.spec.name
			st := rig.gw.Stats()
			if st.Held > 0 {
				rig.held = true
			}
			if allowed := sc.expect.maxFailed[name]; rig.failed > allowed {
				t.Errorf("%s: %d failed requests (allowed %d); gateway stats %+v",
					name, rig.failed, allowed, st)
			}
			if rig.wrong > 0 {
				t.Errorf("%s: %d responses served by another model's replica", name, rig.wrong)
			}
			if rig.sloShrink > 0 {
				t.Errorf("%s: scaled down %d time(s) while the SLO breaker was engaged (shed-deflated demand must not read as surplus)",
					name, rig.sloShrink)
			}
			if want, ok := sc.expect.minPeak[name]; ok && rig.peak < want {
				t.Errorf("%s: peak %d replicas, want >= %d", name, rig.peak, want)
			}
			if want, ok := sc.expect.maxPeak[name]; ok && rig.peak > want {
				t.Errorf("%s: peak %d replicas, want <= %d", name, rig.peak, want)
			}
			if want, ok := sc.expect.finalMin[name]; ok && rig.scaler.CurrentReplicas() < want {
				t.Errorf("%s: %d replicas at end, want >= %d (status %+v)",
					name, rig.scaler.CurrentReplicas(), want, rig.as.Status())
			}
			if want, ok := sc.expect.minShed[name]; ok {
				slo, _ := rig.gw.SLO()
				if rig.shed < want {
					t.Errorf("%s: %d batch-class sheds, want >= %d (slo %+v, stats %+v)",
						name, rig.shed, want, slo, st)
				}
				if st.Rejected < rig.shed {
					t.Errorf("%s: gateway rejected %d < %d observed sheds", name, st.Rejected, rig.shed)
				}
			}
			if sc.expect.wantAffinity == name {
				replicasUsed := map[string]bool{}
				for session, hits := range rig.sessionHits {
					if len(hits) != 1 {
						t.Errorf("%s: session %s served by %d replicas, want exactly 1 (%v)",
							name, session, len(hits), hits)
					}
					for r := range hits {
						replicasUsed[r] = true
					}
				}
				if len(rig.sessionHits) < rig.spec.sessions {
					t.Errorf("%s: only %d of %d sessions observed", name, len(rig.sessionHits), rig.spec.sessions)
				}
				if len(replicasUsed) < 2 {
					t.Errorf("%s: affinity hashed every session onto %d replica(s); want spread over >= 2",
						name, len(replicasUsed))
				}
			}
			reclaims += rig.preempt
		}
		if sc.expect.wantReclaim && reclaims == 0 {
			t.Error("no pool-arbitration preemption observed; the burst never reclaimed idle capacity")
		}
		if poolOver > 0 {
			t.Errorf("pool capacity exceeded in %d samples", poolOver)
		}
		if m := sc.expect.wantHeld; m != "" && !rigByName[m].held {
			t.Errorf("%s: no request was ever cold-start held", m)
		}

		// Measurements for comparison tests, read while replicas live.
		for _, rig := range rigs {
			result.meanTTFT[rig.spec.name] = rig.ttft.Mean()
			result.warmups[rig.spec.name] = rig.gw.Stats().Warmups
			result.sketchRoutes[rig.spec.name] = rig.gw.SketchRoutes()
			if es, ok := rig.scaler.(*engineScaler); ok {
				if hits, misses := es.prefix(); hits+misses > 0 {
					result.hitRate[rig.spec.name] = float64(hits) / float64(hits+misses)
				}
				miss, pre, res := es.sched()
				result.deadlineMiss[rig.spec.name] = miss
				result.preempts[rig.spec.name] = pre
				result.resumes[rig.spec.name] = res
			}
			if fs, ok := rig.scaler.(*fakeScaler); ok {
				result.launches[rig.spec.name] = fs.launched
			}
		}
	})

	for i := 0; i < 5000 && !done; i++ {
		eng.RunFor(time.Minute)
	}
	if !done {
		t.Fatal("scenario did not finish within the simulated time budget")
	}
	got := fmt.Sprintf("%016x", events.Sum64())
	if want, ok := scenarioEventDigests[sc.name]; !ok {
		t.Errorf("scenario %s has no pinned event digest (this run: %s)", sc.name, got)
	} else if got != want {
		t.Errorf("scenario %s: event digest %s, pinned %s", sc.name, got, want)
	}
	return result
}

// scenarioEventDigests pins each scenario's FNV-64a digest over every
// executed sim event ("<unix nanos> <label>" lines). A change that keeps
// behaviour fixed reproduces every entry; one that declares a behaviour
// change updates the entries it moves in its own diff.
var scenarioEventDigests = map[string]string{
	"model-mix-steady-state":            "88717fe8303a35a1",
	"burst-with-reclaim":                "87d6e3392e38ac4d",
	"unknown-model-name":                "0bd3158f0506f467",
	"slo-shed-under-burst":              "202bd3eda47c63e4",
	"session-affinity-cache-hit":        "64ef539fd8a2dda0",
	"single-replica-crash-during-burst": "a598fd547851ad40",
	"prefix-cache-session":              "dafb0e9c46a6a7f9",
	"prefix-cache-round-robin":          "96b2d45c01a4a085",
	"cache-aware-drain":                 "86917f998de83431",
	"blind-drain":                       "dafce00f606f744a",
	"deadline-sched":                    "79834c51ff7f86b0",
	"fcfs-sched":                        "3c2c7f6f9f7a3f4f",
	"workload-fleet-scale":              "789fa9c2942e5c77",
}

// runConversations drives a model's multi-turn conversations: strictly
// interleaved sequential turns (conv 0, conv 1, … per round), each turn
// re-sending the whole history with a fresh user message and folding the
// assistant's reply back in — the workload where session-affine routing
// turns into engine-level prefix-cache hits.
func runConversations(p *sim.Proc, rig *modelRig, client *vhttp.Client, base string) {
	m := rig.spec
	histories := make([][]vllm.ChatMessage, m.conv)
	for turn := 0; turn < m.convTurns; turn++ {
		if m.drainAfterTurn > 0 && turn == m.drainAfterTurn {
			// Graceful forced migration between turn rounds: the drained
			// replica's sessions rehash elsewhere, and the gateway's prefix
			// warm-up races the conversations back. Scale failures surface
			// as failed requests below.
			_ = rig.scaler.ScaleTo(p, rig.scaler.CurrentReplicas()-1)
		}
		for ci := 0; ci < m.conv; ci++ {
			content := fmt.Sprintf("conversation %d turn %d: ", ci, turn) +
				vllm.SynthesizeText(m.convWords)
			histories[ci] = append(histories[ci], vllm.ChatMessage{Role: "user", Content: content})
			body, _ := json.Marshal(vllm.ChatRequest{
				Model: m.name, Messages: histories[ci], MaxTokens: m.convReply,
				SessionID: fmt.Sprintf("%s-conv-%d", m.name, ci),
			})
			rig.sent++
			resp, err := client.Do(p, &vhttp.Request{
				Method: "POST", URL: base + "/v1/chat/completions", Body: body,
			})
			if err != nil || resp.Status != 200 {
				rig.failed++
				continue
			}
			if us, perr := strconv.ParseInt(resp.Header["X-Request-Ttft-Micros"], 10, 64); perr == nil {
				rig.ttft.Add(float64(us) / 1000) // ms
			}
			var cr vllm.ChatResponse
			if json.Unmarshal(resp.Body, &cr) == nil && len(cr.Choices) > 0 {
				histories[ci] = append(histories[ci], vllm.ChatMessage{
					Role: "assistant", Content: cr.Choices[0].Message.Content,
				})
			}
		}
	}
}

// TestScenarios is the table. Each entry runs the full fleet topology; run
// one by name with -run 'TestScenarios/<name>'.
func TestScenarios(t *testing.T) {
	chat := scenarioModel{
		name: "chat", weight: 2, initial: 1, min: 1, max: 3,
		coldStart: 90 * time.Second, latency: 4 * time.Second,
	}
	code := scenarioModel{
		name: "code", weight: 1, initial: 1, min: 1, max: 3,
		coldStart: 90 * time.Second, latency: 4 * time.Second,
	}

	scenarios := []scenario{
		{
			// Two models under balanced steady load: every request lands on
			// its own model's replicas, nobody scales past need, no failures.
			name:      "model-mix-steady-state",
			poolNodes: 4,
			models:    []scenarioModel{chat, code},
			phases: []scenarioPhase{
				{name: "steady", dur: 30 * time.Minute, rps: map[string]float64{"chat": 0.5, "code": 0.5}},
			},
			expect: expect{
				minPeak:  map[string]int{"chat": 1, "code": 1},
				maxPeak:  map[string]int{"chat": 2, "code": 2},
				finalMin: map[string]int{"chat": 1, "code": 1},
			},
		},
		{
			// The tentpole behaviour: code holds surplus it no longer needs
			// (sticky cooldown), chat bursts, and the pool preempts code's
			// surplus so chat can grow — graceful drains, zero failures.
			name:      "burst-with-reclaim",
			poolNodes: 4,
			models: []scenarioModel{
				func() scenarioModel { m := chat; m.downCooldown = 45 * time.Minute; return m }(),
				func() scenarioModel { m := code; m.downCooldown = 45 * time.Minute; return m }(),
			},
			phases: []scenarioPhase{
				{name: "code-busy", dur: 20 * time.Minute, rps: map[string]float64{"chat": 0.1, "code": 2.0}},
				{name: "chat-burst", dur: 30 * time.Minute, rps: map[string]float64{"chat": 3.0, "code": 0.05}},
			},
			expect: expect{
				minPeak:     map[string]int{"chat": 3, "code": 2},
				wantReclaim: true,
			},
		},
		{
			// A typo'd model name is a clean 404 listing the fleet; the
			// running models are unaffected.
			name:      "unknown-model-name",
			poolNodes: 0,
			models:    []scenarioModel{chat, code},
			phases: []scenarioPhase{
				{name: "light", dur: 5 * time.Minute, rps: map[string]float64{"chat": 0.3, "code": 0.3}},
			},
			expect: expect{
				probe404: "gpt-5",
				finalMin: map[string]int{"chat": 1, "code": 1},
			},
		},
		{
			// SLO-aware admission under a burst: a fixed two-replica set
			// receives mixed interactive and batch traffic past its
			// capacity. Queueing drags the rolling p95 over the model's
			// objective, the SLO breaker engages, and batch-class requests
			// shed with 503 while every interactive request completes —
			// the scarce GPUs serve the latency-sensitive class first.
			name:      "slo-shed-under-burst",
			poolNodes: 0,
			models: []scenarioModel{{
				name: "chat", weight: 1, initial: 2, min: 2, max: 2,
				coldStart: 90 * time.Second, latency: 1500 * time.Millisecond,
				slowdown: 400 * time.Millisecond, sloP95: 4 * time.Second,
			}},
			phases: []scenarioPhase{
				{name: "warm", dur: 8 * time.Minute,
					rps: map[string]float64{"chat": 0.4}, batch: map[string]float64{"chat": 0.2}},
				{name: "burst", dur: 12 * time.Minute,
					rps: map[string]float64{"chat": 2.5}, batch: map[string]float64{"chat": 2.5}},
				{name: "cool", dur: 8 * time.Minute,
					rps: map[string]float64{"chat": 0.3}, batch: map[string]float64{"chat": 0.1}},
			},
			expect: expect{
				minShed:  map[string]int{"chat": 1},
				finalMin: map[string]int{"chat": 2},
			},
		},
		{
			// Session-affinity routing: six multi-turn sessions drive a
			// fixed two-replica set below the spill threshold. Every
			// session must land on exactly one replica for its whole life
			// (KV-cache locality) while the hash spreads the session
			// population across both replicas.
			name:      "session-affinity-cache-hit",
			poolNodes: 0,
			models: []scenarioModel{{
				name: "chat", weight: 1, initial: 2, min: 2, max: 2,
				coldStart: 90 * time.Second, latency: 2 * time.Second,
				policy: ingress.PolicySession, sessions: 6,
			}},
			phases: []scenarioPhase{
				{name: "steady", dur: 20 * time.Minute, rps: map[string]float64{"chat": 1.0}},
			},
			expect: expect{
				wantAffinity: "chat",
				finalMin:     map[string]int{"chat": 2},
			},
		},
		{
			// A single-replica model's only instance crashes while the other
			// model bursts: its requests hold at the gateway through the
			// cold start of the replacement, and the burst is undisturbed.
			// Only requests in flight on the dying replica may fail.
			name:      "single-replica-crash-during-burst",
			poolNodes: 4,
			models:    []scenarioModel{chat, code},
			phases: []scenarioPhase{
				{name: "warm", dur: 10 * time.Minute, rps: map[string]float64{"chat": 0.5, "code": 0.3}},
				{name: "chat-burst", dur: 25 * time.Minute, rps: map[string]float64{"chat": 2.5, "code": 0.3}},
				{name: "settle", dur: 10 * time.Minute, rps: map[string]float64{"chat": 0.3, "code": 0.3}},
			},
			events: []scenarioEvent{
				{at: 15 * time.Minute, crash: "code"},
			},
			expect: expect{
				maxFailed: map[string]int{"code": 3},
				minPeak:   map[string]int{"chat": 2},
				finalMin:  map[string]int{"chat": 1, "code": 1},
				wantHeld:  "code",
			},
		},
	}

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) { runScenario(t, sc) })
	}
}

// TestScenarioPrefixCacheSessionVsRoundRobin runs the same multi-turn
// conversation load twice against real vllm engines — once with
// session-affine routing, once round-robin — and asserts the engine-level
// win session affinity exists for: prefix-cache hits only when
// conversations return to their replica, and a measurably lower mean TTFT
// because cached prompt blocks skip prefill.
//
// The load is deterministic: 11 conversations × 2 strictly interleaved
// turns over 2 replicas. With an odd conversation count, round-robin
// placement alternates every conversation's replica each turn, so its
// second turn always lands where nothing of its history is cached — zero
// hits — while session routing pins it back onto its warm replica.
func TestScenarioPrefixCacheSessionVsRoundRobin(t *testing.T) {
	mkScenario := func(name string, policy ingress.Policy) scenario {
		return scenario{
			name:      name,
			poolNodes: 0,
			models: []scenarioModel{{
				name: "chat", weight: 1, initial: 2, min: 2, max: 2,
				coldStart: 30 * time.Second,
				policy:    policy,
				engine:    true, kvBlocks: 2048, maxModelLen: 4096,
				conv: 11, convTurns: 2, convWords: 800, convReply: 48,
			}},
			expect: expect{finalMin: map[string]int{"chat": 2}},
		}
	}
	session := runScenario(t, mkScenario("prefix-cache-session", ingress.PolicySession))
	rr := runScenario(t, mkScenario("prefix-cache-round-robin", ingress.PolicyRoundRobin))
	t.Logf("hit rate: session %.3f vs round-robin %.3f; mean TTFT: session %.2fms vs round-robin %.2fms",
		session.hitRate["chat"], rr.hitRate["chat"], session.meanTTFT["chat"], rr.meanTTFT["chat"])

	if got := session.hitRate["chat"]; got < 0.25 {
		t.Errorf("session-affine hit rate = %.3f, want >= 0.25 (affinity should land turns on warm replicas)", got)
	}
	if got := rr.hitRate["chat"]; got != 0 {
		t.Errorf("round-robin hit rate = %.3f, want exactly 0 (alternating placement never revisits a warm replica)", got)
	}
	st, rt := session.meanTTFT["chat"], rr.meanTTFT["chat"]
	if st <= 0 || rt <= 0 {
		t.Fatalf("missing TTFT measurements: session %.2fms, round-robin %.2fms", st, rt)
	}
	if st >= 0.95*rt {
		t.Errorf("session mean TTFT %.2fms not measurably below round-robin %.2fms (want < 95%%)", st, rt)
	}
}

// TestScenarioCacheAwareDrainVsBlind forces a mid-run replica drain under
// multi-turn conversation load and compares the cache-aware prefix policy
// against blind round-robin placement on real engines with the host-memory
// KV tier enabled. Three replicas serve 11 conversations; after the first
// turn round one replica drains gracefully, so its sessions must migrate.
// The prefix policy routes returning turns by sketch membership and the
// gateway warm-up re-prefills each moved session's history on its new
// owner, so the migrated conversations keep hitting the prefix cache;
// round-robin scatters every turn, re-prefilling history from scratch.
func TestScenarioCacheAwareDrainVsBlind(t *testing.T) {
	mk := func(name string, policy ingress.Policy) scenario {
		return scenario{
			name: name,
			models: []scenarioModel{{
				name: "chat", weight: 1, initial: 3, min: 2, max: 3,
				coldStart:    30 * time.Second,
				downCooldown: 45 * time.Minute, // only the scripted drain may shrink the set
				policy:       policy,
				engine:       true, kvBlocks: 2048, maxModelLen: 4096, offloadBlocks: 256,
				conv: 11, convTurns: 3, convWords: 700, convReply: 48,
				drainAfterTurn: 1,
			}},
			expect: expect{finalMin: map[string]int{"chat": 2}},
		}
	}
	sc := mk("cache-aware-drain", ingress.PolicyPrefix)
	sc.observeAt = 150 * time.Second // after the drain and the final turn round
	pf := runScenario(t, sc)
	rr := runScenario(t, mk("blind-drain", ingress.PolicyRoundRobin))
	t.Logf("hit rate: prefix %.3f vs round-robin %.3f; mean TTFT: prefix %.2fms vs round-robin %.2fms; warmups %d; sketch routes %d",
		pf.hitRate["chat"], rr.hitRate["chat"], pf.meanTTFT["chat"], rr.meanTTFT["chat"],
		pf.warmups["chat"], pf.sketchRoutes["chat"])

	if got := pf.hitRate["chat"]; got < 0.3 {
		t.Errorf("prefix-policy hit rate = %.3f, want >= 0.3 (sketch routing + warm-up should keep migrated sessions warm)", got)
	}
	if got, blind := pf.hitRate["chat"], rr.hitRate["chat"]; got < blind+0.2 {
		t.Errorf("prefix-policy hit rate %.3f not materially above blind placement %.3f (want +0.2)", got, blind)
	}
	if pf.warmups["chat"] == 0 {
		t.Error("drain fired no prefix warm-ups")
	}
	pt, rt := pf.meanTTFT["chat"], rr.meanTTFT["chat"]
	if pt <= 0 || rt <= 0 {
		t.Fatalf("missing TTFT measurements: prefix %.2fms, round-robin %.2fms", pt, rt)
	}
	if pt >= 0.9*rt {
		t.Errorf("prefix mean TTFT %.2fms not measurably below round-robin %.2fms (want < 90%%)", pt, rt)
	}

	// The cache-aware signals must survive the probe-scrape → /observe
	// merge: every surviving replica publishes its sketch, the windowed
	// hit/miss pair, and the host tier's capacity, and the gateway
	// counters carry the warm-ups.
	if pf.observed == nil {
		t.Fatal("no mid-run /observe snapshot")
	}
	obs := pf.observed.Model("chat")
	if obs == nil {
		t.Fatalf("observe snapshot missing chat model: %+v", pf.observed)
	}
	if obs.Counters.Warmups == 0 {
		t.Errorf("observed gateway counters carry no warmups: %+v", obs.Counters)
	}
	for _, rep := range obs.Replicas {
		s := rep.Snapshot
		if s.WindowPrefixHits+s.WindowPrefixMisses == 0 {
			t.Errorf("replica %s: windowed prefix pair empty in /observe", rep.Name)
		}
		if len(s.PrefixSketch) == 0 {
			t.Errorf("replica %s: no prefix sketch in /observe", rep.Name)
		}
		if s.KVHostBlocksTotal != 256 {
			t.Errorf("replica %s: host tier capacity %d in /observe, want 256", rep.Name, s.KVHostBlocksTotal)
		}
	}
}

// deadlineSpec is the mixed interactive/batch workload for the scheduler
// comparison: small interactive prompts with tight first-token needs
// sharing one engine with long batch prefills, under a quiet/peak/quiet
// arrival schedule whose peak exceeds the engine's prefill capacity.
func deadlineSpec() workload.Spec {
	return workload.Spec{
		Name: "deadline-vs-fcfs",
		Seed: 7,
		Cohorts: []workload.Cohort{
			{Name: "interactive", Model: "chat", Class: "interactive", Weight: 1,
				Clients: 400,
				Prompt:  workload.LengthDist{Mu: 4.0, Sigma: 0.4, Max: 200},
				Output:  workload.LengthDist{Mu: 1.4, Sigma: 0.3, Max: 8}},
			{Name: "batch", Model: "chat", Class: "batch", Weight: 1,
				Clients: 400,
				Prompt:  workload.LengthDist{Mu: 7.4, Sigma: 0.25, Min: 800, Max: 2500},
				Output:  workload.LengthDist{Mu: 1.6, Sigma: 0.3, Max: 8}},
		},
		Arrivals: workload.Arrivals{Periods: []workload.RatePeriod{
			{Dur: 10 * time.Second, StartsPerSec: 6},
			{Dur: 30 * time.Second, StartsPerSec: 24},
			{Dur: 40 * time.Second, StartsPerSec: 4},
		}},
	}
}

// TestScenarioDeadlineVsFCFSSaturated runs the same saturating mixed
// interactive/batch workload twice against a real engine replica — once
// with the deadline scheduler, once with the FCFS baseline — through the
// full router/gateway stack, with the gateway stamping per-class TTFT
// budgets (interactive 350ms, batch a relaxed multiple).
//
// The deadline engine must hold every interactive first token inside its
// target (zero deadline misses) with a p95 TTFT measurably below FCFS,
// where interactive requests queue behind the peak's batch prefill
// backlog. Batch pays for the reordering with bounded regression: same
// completion count, mean E2E within the documented bound.
func TestScenarioDeadlineVsFCFSSaturated(t *testing.T) {
	run := func(name string, fcfs bool) *scenarioResult {
		spec := deadlineSpec()
		return runScenario(t, scenario{
			name: name,
			models: []scenarioModel{{
				name: "chat", weight: 1, initial: 1, min: 1, max: 1,
				coldStart: 10 * time.Second,
				ttft:      350 * time.Millisecond, fcfs: fcfs,
				engine: true, kvBlocks: 4096, maxModelLen: 4096, maxBatched: 512,
			}},
			workload: &spec,
			// maxFailed absent: nothing may fail; no SLO breaker, so nothing
			// may shed either.
		})
	}
	dl := run("deadline-sched", false)
	fc := run("fcfs-sched", true)

	check := func(label string, res *scenarioResult) (inter, batch *bench.CohortResult) {
		t.Helper()
		if res.workload == nil {
			t.Fatalf("%s: no workload result", label)
		}
		inter, batch = res.workload.Cohort("interactive"), res.workload.Cohort("batch")
		if inter == nil || batch == nil {
			t.Fatalf("%s: missing cohorts: %+v", label, res.workload.Cohorts)
		}
		if inter.Failed+inter.Shed+batch.Failed+batch.Shed != 0 {
			t.Fatalf("%s: drops: interactive %d/%d batch %d/%d (failed/shed)",
				label, inter.Failed, inter.Shed, batch.Failed, batch.Shed)
		}
		return inter, batch
	}
	interD, batchD := check("deadline", dl)
	interF, batchF := check("fcfs", fc)

	p95D, p95F := interD.TTFT.Quantile(0.95), interF.TTFT.Quantile(0.95)
	t.Logf("interactive p95 TTFT: deadline %.1fms vs fcfs %.1fms; misses %v vs %v; preempts %d resumes %d",
		p95D, p95F, dl.deadlineMiss["chat"], fc.deadlineMiss["chat"], dl.preempts["chat"], dl.resumes["chat"])
	t.Logf("batch: completed %d vs %d, mean E2E %.0fms vs %.0fms",
		batchD.Completed, batchF.Completed, batchD.E2E.Mean(), batchF.E2E.Mean())

	// The headline win: urgency-ordered admission keeps interactive first
	// tokens inside their budget on the same saturated replica where FCFS
	// parks them behind the batch prefill backlog.
	if n := dl.deadlineMiss["chat"]["interactive"]; n != 0 {
		t.Errorf("deadline scheduler missed %d interactive first-token deadlines, want 0", n)
	}
	if p95D <= 0 || p95F <= 0 {
		t.Fatalf("missing TTFT measurements: %.1fms / %.1fms", p95D, p95F)
	}
	if p95D >= 0.5*p95F {
		t.Errorf("deadline interactive p95 TTFT %.1fms not measurably below fcfs %.1fms (want < 50%%)", p95D, p95F)
	}
	if n := fc.deadlineMiss["chat"]["interactive"]; n == 0 {
		t.Error("fcfs baseline missed no interactive deadlines; the workload is not saturating enough to compare")
	}
	// Batch pays a bounded price: everything still completes, and the mean
	// E2E regression stays within 1.5x of the FCFS baseline.
	if batchD.Completed != batchF.Completed {
		t.Errorf("batch completions diverge: deadline %d vs fcfs %d", batchD.Completed, batchF.Completed)
	}
	if batchD.E2E.Mean() > 1.5*batchF.E2E.Mean() {
		t.Errorf("batch mean E2E %.0fms exceeds 1.5x the fcfs baseline %.0fms", batchD.E2E.Mean(), batchF.E2E.Mean())
	}
}

// fleetScaleSpec is the table-driven workload for the fleet-scale test: two
// huge single-shot cohorts (interactive + batch) on the fake-replica "chat"
// model plus a small sessionful cohort on the engine-backed "assist" model,
// under a diurnal quiet/peak/quiet arrival schedule. The client populations
// sum past 10^5 distinct simulated clients.
func fleetScaleSpec() workload.Spec {
	return workload.Spec{
		Name: "fleet-scale",
		Seed: 42,
		Cohorts: []workload.Cohort{
			{Name: "interactive", Model: "chat", Class: "interactive", Weight: 16,
				Clients: 80000,
				Prompt:  workload.LengthDist{Mu: 4.0, Sigma: 0.5},
				Output:  workload.LengthDist{Mu: 3.5, Sigma: 0.5}},
			{Name: "batch", Model: "chat", Class: "batch", Weight: 10,
				Clients: 50000,
				Prompt:  workload.LengthDist{Mu: 4.5, Sigma: 0.5},
				Output:  workload.LengthDist{Mu: 5.0, Sigma: 0.5}},
			{Name: "assist", Model: "assist", Class: "interactive", Weight: 0.1,
				Clients: 300, Turns: 3, ThinkTime: 12 * time.Second,
				Prompt: workload.LengthDist{Mu: 4.2, Sigma: 0.5},
				Output: workload.LengthDist{Mu: 3.6, Sigma: 0.4}},
		},
		Arrivals: workload.Arrivals{Periods: []workload.RatePeriod{
			{Dur: 90 * time.Second, StartsPerSec: 200},
			{Dur: 150 * time.Second, StartsPerSec: 550},
			{Dur: 90 * time.Second, StartsPerSec: 200},
		}},
	}
}

// TestScenarioWorkloadFleetScale is the workload engine's acceptance test:
// one declarative WorkloadSpec drives >= 10^5 distinct simulated clients —
// multi-cohort, diurnal, sessionful — through the real router + per-model
// gateways in a single scenario, with asserted SLO/shed/prefix-hit
// outcomes, and the recorded trace replays to the identical stream.
//
// The peak period intentionally exceeds the chat model's fixed capacity so
// the SLO breaker engages at MaxReplicas: batch sheds with 503, every
// interactive request completes, the breach surfaces mid-run on /observe as
// slo_breached_at_max, and the autoscaler holds steady at the ceiling
// (exactly max launches ever — no shed-deflated-demand flapping) even
// though its scale-down cooldown expires inside the peak.
func TestScenarioWorkloadFleetScale(t *testing.T) {
	spec := fleetScaleSpec()

	// Record/replay fidelity first: the generated stream written as a JSONL
	// trace and read back must be identical (same per-cohort request counts
	// and arrival times), and the self-describing header must regenerate it.
	reqs, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := workload.WriteTrace(&trace, spec, reqs); err != nil {
		t.Fatal(err)
	}
	traceSpec, replayed, err := workload.ReadTrace(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Identical(reqs, replayed); err != nil {
		t.Fatalf("trace replay differs from recording: %v", err)
	}
	regen, err := workload.Generate(traceSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Identical(reqs, regen); err != nil {
		t.Fatalf("regeneration from trace header differs: %v", err)
	}
	gen, rep := workload.Summarize(reqs), workload.Summarize(replayed)
	for cohort, n := range gen.PerCohort {
		if rep.PerCohort[cohort] != n {
			t.Fatalf("cohort %s: %d recorded vs %d replayed", cohort, n, rep.PerCohort[cohort])
		}
	}
	if gen.Clients < 100000 {
		t.Fatalf("stream carries %d distinct clients, want >= 100000", gen.Clients)
	}
	t.Logf("stream: %d requests, %d sessions, %d clients over %v",
		gen.Requests, gen.Sessions, gen.Clients, gen.Span)

	sc := scenario{
		name: "workload-fleet-scale",
		models: []scenarioModel{
			{
				// Fixed at its ceiling: peak interactive arrivals alone push
				// p95 past the SLO, so the breaker owns recovery at max.
				name: "chat", weight: 1, initial: 8, min: 2, max: 8,
				coldStart: 10 * time.Second,
				latency:   10 * time.Millisecond, slowdown: 20 * time.Millisecond,
				sloP95:       40 * time.Millisecond,
				downCooldown: 3 * time.Minute, // expires mid-peak: only the breach hold prevents a shrink
			},
			{
				name: "assist", weight: 1, initial: 2, min: 2, max: 2,
				coldStart: 10 * time.Second,
				policy:    ingress.PolicySession,
				engine:    true, kvBlocks: 2048, maxModelLen: 4096,
			},
		},
		workload:  &spec,
		observeAt: 200 * time.Second, // mid-peak, well after the breach engages
		expect: expect{
			minPeak: map[string]int{"chat": 8},
			minShed: map[string]int{"chat": 5000},
			// maxFailed absent: zero non-shed failures tolerated anywhere.
		},
	}
	res := runScenario(t, sc)

	wr := res.workload
	if wr == nil {
		t.Fatal("no workload result")
	}
	t.Logf("%s", wr)
	if wr.Requests != len(reqs) {
		t.Fatalf("dispatched %d of %d requests", wr.Requests, len(reqs))
	}
	if wr.Completed+wr.Shed+wr.Failed != wr.Requests {
		t.Fatalf("outcomes don't partition: %d+%d+%d != %d",
			wr.Completed, wr.Shed, wr.Failed, wr.Requests)
	}
	inter, batch, assist := wr.Cohort("interactive"), wr.Cohort("batch"), wr.Cohort("assist")
	if inter == nil || batch == nil || assist == nil {
		t.Fatalf("missing cohort breakdown: %+v", wr.Cohorts)
	}
	// The scarce GPUs serve the latency-sensitive class first: interactive
	// never sheds and never fails, even through the overloaded peak.
	if inter.Shed != 0 || inter.Failed != 0 {
		t.Errorf("interactive cohort: shed=%d failed=%d, want 0/0", inter.Shed, inter.Failed)
	}
	if inter.E2E.N() != inter.Completed || inter.Completed == 0 {
		t.Errorf("interactive E2E samples %d != completions %d", inter.E2E.N(), inter.Completed)
	}
	// Batch absorbs the admission sheds during the peak but completes in the
	// quiet periods.
	if batch.Shed < 5000 {
		t.Errorf("batch cohort shed %d, want >= 5000 (peak overload)", batch.Shed)
	}
	if batch.Completed == 0 {
		t.Error("batch cohort never completed a request (quiet periods should clear)")
	}
	// The sessionful engine-backed cohort completes everything with real
	// TTFT measurements, and session-affine routing turns its growing
	// histories into engine prefix-cache hits.
	if assist.Shed != 0 || assist.Failed != 0 {
		t.Errorf("assist cohort: shed=%d failed=%d, want 0/0", assist.Shed, assist.Failed)
	}
	if assist.TTFT.N() == 0 {
		t.Error("assist cohort has no TTFT samples")
	}
	if hr := res.hitRate["assist"]; hr < 0.15 {
		t.Errorf("assist prefix-cache hit rate %.3f, want >= 0.15 (sessionful replay on affine routing)", hr)
	}
	// Breach-at-max stability: besides the harness-wide invariant that no
	// model shrinks while its breaker is engaged (rig.sloShrink), the chat
	// model's lifetime launch count is bounded — 8 initial plus at most one
	// pre-peak-dip relaunch. A controller flapping at the ceiling relaunches
	// every cycle and blows well past this.
	if n := res.launches["chat"]; n > 9 {
		t.Errorf("chat launched %d replicas ever, want <= 9 (flapping at max relaunches every shed cycle)", n)
	}
	// The mid-peak /observe snapshot surfaces the breach on the autoscaler's
	// status document and shows the breaker engaged.
	if res.observed == nil {
		t.Fatal("no mid-run /observe snapshot")
	}
	chat := res.observed.Model("chat")
	if chat == nil {
		t.Fatalf("observe snapshot missing chat model: %+v", res.observed)
	}
	if chat.SLO == nil || !chat.SLO.Engaged {
		t.Errorf("mid-peak SLO state %+v, want breaker engaged", chat.SLO)
	}
	if !strings.Contains(string(chat.Autoscale), `"slo_breached_at_max":true`) {
		t.Errorf("mid-peak autoscale status does not surface slo_breached_at_max:\n%s", chat.Autoscale)
	}
	if chat.Counters.Rejected == 0 {
		t.Error("mid-peak gateway counters show no admission rejections")
	}
	t.Logf("assist hit rate %.3f, mean TTFT %.2fms; batch shed %d; observed autoscale: %s",
		res.hitRate["assist"], res.meanTTFT["assist"], batch.Shed, chat.Autoscale)
}
