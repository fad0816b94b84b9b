package ingress

import (
	"encoding/json"
	"fmt"
	"maps"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vhttp"
	"repro/internal/vllm"
)

// Policy selects how the gateway spreads requests across replicas.
type Policy string

const (
	// PolicyRoundRobin cycles through healthy replicas in order.
	PolicyRoundRobin Policy = "round-robin"
	// PolicyLeastLoaded routes to the replica with the smallest load score:
	// gateway-tracked in-flight requests plus the waiting/running queue
	// depths from the replica's last telemetry snapshot; score ties break
	// toward the replica with more KV headroom.
	PolicyLeastLoaded Policy = "least-loaded"
	// PolicySession pins requests sharing a session key (X-Session-Key
	// header, or the body's session_id/user field) to one replica via
	// consistent hashing, so multi-turn chats reuse that replica's warm
	// KV cache; keyless requests and sessions whose affine replica is
	// saturated fall back to least-loaded.
	PolicySession Policy = "session"
	// PolicyPrefix is session affinity plus cache-aware placement: the
	// gateway computes each chat request's leading prompt-block key and
	// tests it against the prefix-membership sketch every replica
	// publishes in its telemetry snapshot, so new conversations (and
	// spilled sessions) land where their system prompt is already
	// resident. Requests with no sketch match degrade to PolicySession
	// behaviour exactly.
	PolicyPrefix Policy = "prefix"
)

// ParsePolicy resolves a policy name ("" defaults to round-robin).
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "", PolicyRoundRobin:
		return PolicyRoundRobin, nil
	case PolicyLeastLoaded:
		return PolicyLeastLoaded, nil
	case PolicySession:
		return PolicySession, nil
	case PolicyPrefix:
		return PolicyPrefix, nil
	}
	return "", fmt.Errorf("ingress: unknown route policy %q (want %q, %q, %q, or %q)", s, PolicyRoundRobin, PolicyLeastLoaded, PolicySession, PolicyPrefix)
}

// Backend is one replica endpoint behind a Gateway.
type Backend struct {
	Name string
	Host string
	Port int

	// url and chatURL are the base URL and its chat-completions URL,
	// formatted once in AddBackend.
	url, chatURL string

	healthy  bool
	draining bool // drain requested: no new requests, detach when idle
	drained  *sim.Signal
	inflight int // requests the gateway currently has outstanding here
	// snap is the replica's typed engine snapshot from the last probe —
	// the structured load signal that replaced the Prometheus text scrape.
	snap telemetry.Snapshot
	// scrapeInflight records inflight at the last scrape: requests the
	// gateway already had outstanding then are part of the scraped queue
	// depths, so Load must not count them twice.
	scrapeInflight int
	requests       int
	failures       int
}

// URL is the backend's base URL.
func (b *Backend) URL() string { return b.url }

// Requests returns how many requests the gateway has sent this backend.
func (b *Backend) Requests() int { return b.requests }

// Telemetry returns the replica's last typed engine snapshot (the zero
// value before the first successful probe).
func (b *Backend) Telemetry() telemetry.Snapshot { return b.snap }

// load is the least-loaded routing score.
func (b *Backend) load() int { return b.inflight + b.snap.Waiting + b.snap.Running }

// queueEstimate is the backend's current demand: the scraped queue depths
// plus requests forwarded since that scrape (inflight growth), without
// double-counting requests that were already queued when scraped.
func (b *Backend) queueEstimate() int {
	est := b.snap.Waiting + b.snap.Running + b.inflight - b.scrapeInflight
	if est < 0 {
		est = 0
	}
	return est
}

// routable reports whether the backend may receive new requests.
func (b *Backend) routable() bool { return b.healthy && !b.draining }

// Gateway is the load-balancing front door for a replica set: one virtual
// endpoint that routes across healthy replicas, health-checks them, retries
// a failed request once on a different replica, and sheds batch traffic
// while its p95 latency breaches an objective. It generalizes the CaL
// proxy's static one-route-per-user shape into the control plane the
// related work (OpenTela, Chat AI) runs in front of transient instances.
//
// All three request-path policy decisions — admission, hold-queue order,
// and replica choice — are delegated to the internal/sched layer. The
// Policy and SLOTargetP95 knobs resolve to concrete sched implementations.
//
// Backends may be registered and removed while the gateway serves: the
// autoscaler grows the set with AddBackend and shrinks it with
// RemoveBackend's graceful drain. With HoldColdStart set, requests that
// arrive while no replica is routable (scale-to-zero) are queued at the
// gateway — ordered by priority class — and released when the first
// replica turns healthy.
type Gateway struct {
	Net  *vhttp.Net
	Host string // virtual endpoint host (e.g. "hops-gw.example.gov")
	Port int
	// Model is the served model name this replica set hosts. When set, the
	// gateway answers GET /v1/models authoritatively — every replica serves
	// the same model, so the list must not depend on which replica a
	// round-robin pick happens to land on (or fail when none is routable
	// but cold-start holding would absorb real work).
	Model string
	// Unbound keeps Start from binding Host:Port — a Router fronts this
	// gateway and dispatches into Serve directly. Probing, forwarding, and
	// every routing policy work exactly as in the bound shape.
	Unbound bool
	// Policy defaults to round-robin.
	Policy Policy
	// HealthInterval between health/metrics probe rounds (default 15s).
	HealthInterval time.Duration
	// SLOTargetP95 is the per-model latency objective: while the gateway's
	// rolling p95 breaches it, batch-class requests are shed with 503
	// (interactive traffic is never SLO-shed). 0 disables.
	SLOTargetP95 time.Duration
	// DefaultClass is the priority class assumed for requests that carry
	// no explicit class (X-Priority header or body priority field).
	// ClassUnset means interactive.
	DefaultClass sched.Class
	// TTFTTarget is the interactive-class first-token latency objective
	// stamped onto forwarded requests (X-TTFT-Target-Micros) so the
	// engine's deadline scheduler can order admission by urgency. Batch
	// class gets the target relaxed by batchTTFTFactor. 0 defaults from
	// SLOTargetP95; with both zero no deadline is propagated.
	TTFTTarget time.Duration
	// HoldColdStart queues requests when no replica is routable instead of
	// failing them with 502 — the scale-to-zero cold-start path. Held
	// requests release as soon as a backend is added or revived,
	// interactive class first.
	HoldColdStart bool
	// ColdStartWait bounds how long a held request waits for a replica
	// before giving up with 503 (default 30 minutes — a replica cold start
	// is dominated by weight loading).
	ColdStartWait time.Duration
	// AutoscaleStatus, when non-nil, is rendered into the /observe document
	// (also served on /gateway/status) as the model's "autoscale" entry, so
	// operators can observe the controller's current target.
	AutoscaleStatus func() any
	// Tracer is the per-gateway trace recorder (created on first use when
	// nil). Requests carrying an X-Trace-Id header are always traced;
	// others are sampled per the recorder's SampleEvery, which the default
	// recorder leaves at 0: it traces only explicit X-Trace-Id requests.
	// Settled traces serve on /traces.
	Tracer *trace.Recorder

	eng      *sim.Engine
	backends []*Backend
	// stats holds the outcome counters the gateway increments itself;
	// Stats adds the picker-owned spill and sketch-route counts.
	stats telemetry.GatewayCounters
	holdq sched.Queue // requests parked waiting for a routable replica
	// client is the pooled transport shared by the probe loop and every
	// forward, built by Start; vhttp.Client carries no per-request state,
	// so one instance replaces the old per-call allocation.
	client *vhttp.Client
	// cands and candBackends back the candidate snapshot handed to
	// admission and the picker, index for index. The request path
	// consumes them fully before any park point, so reusing them across
	// calls is safe and keeps the pick path alloc-free.
	cands        []sched.Candidate
	candBackends []*Backend
	// ttftHints memoizes the TTFT target header text last stamped for
	// interactive (0) and batch (1) requests.
	ttftHints [2]ttftHint
	// Policy-derived sched instances, created on first use so flipping
	// Policy or SLOTargetP95 on a running gateway still takes effect
	// (stateful ones persist: the round-robin cursor, the session spill
	// counter, the SLO breaker's hysteresis).
	rr      *sched.RoundRobin
	session *sched.Session
	prefix  *sched.Prefix
	slo     *sched.SLO
	started bool
	stopped bool

	// notes remembers each active session's last chat body and current
	// owner replica so a spill or a drain can warm the session's prefix up
	// on its new owner before the next turn arrives (bounded LRU).
	notes sessionNotes

	// latencies is the log-bucketed histogram of completed request
	// latencies (ms). The SLO breaker's p95 and the operator-facing
	// /gateway/metrics exposition read the same distribution, so a breach
	// decision is always explainable from the exported histogram.
	latencies metrics.Histogram
	reg       *metrics.Registry // /gateway/metrics instruments, built lazily
}

// AddBackend registers a replica endpoint. Backends start healthy; the
// probe loop and forwarding errors keep the state current. Registration is
// safe while the gateway serves: requests held for a cold start release
// onto the new backend immediately.
func (g *Gateway) AddBackend(name, host string, port int) *Backend {
	b := &Backend{Name: name, Host: host, Port: port, healthy: true}
	b.url = "http://" + host + ":" + strconv.Itoa(port)
	b.chatURL = b.url + chatPath
	g.backends = append(g.backends, b)
	g.holdq.WakeAll()
	return b
}

// RemoveBackend starts a graceful drain of the named backend: it stops
// receiving new requests immediately, and once its in-flight requests
// finish it detaches from the gateway. The returned signal fires at detach
// (immediately if the backend is idle); nil if the name is unknown.
func (g *Gateway) RemoveBackend(name string) *sim.Signal {
	for _, b := range g.backends {
		if b.Name != name {
			continue
		}
		if b.drained == nil {
			b.drained = g.eng.NewSignal()
		}
		b.draining = true
		// Re-home the drained replica's sessions: warm their prefixes up
		// on their next affine owners before the conversations return.
		g.warmOnDrain(name)
		if b.inflight == 0 {
			g.detach(b)
		}
		return b.drained
	}
	return nil
}

// detach removes a drained backend from the set and fires its signal.
func (g *Gateway) detach(b *Backend) {
	for i, x := range g.backends {
		if x == b {
			g.backends = append(g.backends[:i], g.backends[i+1:]...)
			break
		}
	}
	if b.drained != nil {
		b.drained.Fire()
	}
}

// Backends lists registered backends (draining ones included until detach).
func (g *Gateway) Backends() []*Backend { return append([]*Backend(nil), g.backends...) }

// Stats returns a snapshot of the gateway's outcome counters — the
// "counters" entry of its /observe document.
func (g *Gateway) Stats() telemetry.GatewayCounters {
	st := g.stats
	st.SessionSpills = g.SessionSpills()
	st.SketchRoutes = g.SketchRoutes()
	st.ShedByClass = maps.Clone(g.stats.ShedByClass)
	return st
}

// Holding reports how many requests are currently queued at the gateway
// waiting for a replica (cold start).
func (g *Gateway) Holding() int { return g.holdq.Len() }

// SLO reports the SLO admission breaker's state; ok is false when no
// SLOTargetP95 is configured.
func (g *Gateway) SLO() (st telemetry.SLOState, ok bool) {
	if g.SLOTargetP95 <= 0 {
		return st, false
	}
	st = telemetry.SLOState{
		TargetMillis: float64(g.SLOTargetP95) / float64(time.Millisecond),
		P95Millis:    float64(g.LatencyQuantile(g.eng.Now(), 0.95)) / float64(time.Millisecond),
	}
	if g.slo != nil {
		st.Engaged = g.slo.Engaged()
		st.Sheds = g.slo.Sheds()
	}
	return st, true
}

// SessionSpills counts session-routed requests that left their affine
// replica because it was saturated (0 unless PolicySession or
// PolicyPrefix is active).
func (g *Gateway) SessionSpills() int {
	n := 0
	if g.session != nil {
		n += g.session.Spills()
	}
	if g.prefix != nil {
		n += g.prefix.Spills()
	}
	return n
}

// SketchRoutes counts requests the prefix policy placed by sketch
// membership rather than affinity or load (0 unless PolicyPrefix is
// active).
func (g *Gateway) SketchRoutes() int {
	if g.prefix == nil {
		return 0
	}
	return g.prefix.SketchRoutes()
}

// Endpoint is the virtual base URL clients target.
func (g *Gateway) Endpoint() string { return fmt.Sprintf("http://%s:%d", g.Host, g.Port) }

// HealthyBackends counts replicas currently considered routable.
func (g *Gateway) HealthyBackends() int {
	n := 0
	for _, b := range g.backends {
		if b.routable() {
			n++
		}
	}
	return n
}

// Load totals the demand the control plane can see: requests held at the
// gateway plus each routable replica's estimated queue depth (scrape-
// corrected, so bursts between probes are counted once). The autoscaler's
// primary signal.
func (g *Gateway) Load() int {
	total := g.holdq.Len()
	for _, b := range g.backends {
		if !b.routable() {
			continue
		}
		total += b.queueEstimate()
	}
	return total
}

// LatencyQuantile returns the q-quantile of completed request latencies
// over the histogram's trailing window (5 minutes).
func (g *Gateway) LatencyQuantile(now time.Time, q float64) time.Duration {
	return time.Duration(g.latencies.Quantile(now, q) * float64(time.Millisecond))
}

// Start binds the virtual endpoint, resolves the scheduling policies, and
// launches the health-check loop.
func (g *Gateway) Start(eng *sim.Engine) error {
	if g.started {
		return fmt.Errorf("ingress: gateway %s already started", g.Endpoint())
	}
	if g.Policy == "" {
		g.Policy = PolicyRoundRobin
	}
	if g.HealthInterval <= 0 {
		g.HealthInterval = 15 * time.Second
	}
	if g.ColdStartWait <= 0 {
		g.ColdStartWait = 30 * time.Minute
	}
	if !g.Unbound {
		if err := g.Net.Listen(g.Host, g.Port, g, vhttp.ListenOptions{Up: func() bool { return !g.stopped }}); err != nil {
			return err
		}
	}
	g.eng = eng
	g.client = &vhttp.Client{Net: g.Net, From: g.Host}
	g.started = true
	eng.Go("gateway-"+g.Host, func(p *sim.Proc) {
		for !g.stopped {
			// Snapshot the set: a drain can detach a backend (an in-place
			// slice shift) while a probe is parked on its HTTP call, which
			// would skip or double-probe neighbours on the live slice.
			for _, b := range g.Backends() {
				if g.stopped {
					return
				}
				if b.draining {
					continue
				}
				g.probe(p, b)
			}
			p.Sleep(g.HealthInterval)
		}
	})
	return nil
}

// Stop unbinds the endpoint, releases held requests, and ends the probe
// loop at its next wakeup.
func (g *Gateway) Stop() {
	if !g.started || g.stopped {
		return
	}
	g.stopped = true
	g.holdq.WakeAll()
	if !g.Unbound {
		g.Net.Unlisten(g.Host, g.Port)
	}
}

// Serviceable reports whether the gateway can make progress on a request:
// a replica is routable, or cold-start holding will queue it until one is.
func (g *Gateway) Serviceable() bool {
	return !g.stopped && (g.HealthyBackends() > 0 || g.HoldColdStart)
}

// probe refreshes one backend's health and its typed telemetry snapshot.
// The steady-state load path consumes the structured Snapshot JSON — not
// the Prometheus text exposition, which stays for external observability
// only — so placement and scaling see the engine's full signal set
// (KV usage, cache hit rates, class mix) rather than two scraped gauges.
func (g *Gateway) probe(p *sim.Proc, b *Backend) {
	resp, err := g.client.Get(p, b.URL()+"/health")
	wasRoutable := b.routable()
	b.healthy = err == nil && resp.Status == 200
	if !b.healthy {
		return
	}
	if !wasRoutable && b.routable() {
		g.holdq.WakeAll()
	}
	if tresp, err := g.client.Get(p, b.URL()+telemetry.Path); err == nil && tresp.Status == 200 {
		if snap, derr := telemetry.Decode(tresp.Body); derr == nil {
			b.snap = snap
			b.scrapeInflight = b.inflight
		}
	}
}

// views builds the scheduling layer's candidates for the routable
// backends, minus the excluded (just-failed) one, and the backends they
// describe: an index the scheduling layer returns into cands names
// backends at the same index. Both slices alias scratch buffers: they are
// valid until the next views call, which can only happen after the caller
// has finished admission and pick (no park point sits between building and
// consuming the snapshot).
func (g *Gateway) views(exclude *Backend) (cands []sched.Candidate, backends []*Backend) {
	cands, backends = g.cands[:0], g.candBackends[:0]
	for _, b := range g.backends {
		if b.routable() && b != exclude {
			cands = append(cands, sched.Candidate{Key: b.Name, Score: b.load(), Snap: &b.snap})
			backends = append(backends, b)
		}
	}
	g.cands, g.candBackends = cands, backends
	return cands, backends
}

// picker resolves the Policy-derived replica selector (instantiated on
// first use so a post-Start Policy change still takes effect).
func (g *Gateway) picker() sched.Picker {
	switch g.Policy {
	case PolicyLeastLoaded:
		return sched.LeastLoaded{}
	case PolicySession:
		if g.session == nil {
			g.session = &sched.Session{}
		}
		return g.session
	case PolicyPrefix:
		if g.prefix == nil {
			g.prefix = &sched.Prefix{}
		}
		return g.prefix
	default:
		if g.rr == nil {
			g.rr = &sched.RoundRobin{}
		}
		return g.rr
	}
}

// pickFor delegates the replica choice to the scheduling layer. Returns
// nil when nothing is routable.
func (g *Gateway) pickFor(sreq *sched.Request, exclude *Backend) *Backend {
	cands, backends := g.views(exclude)
	return g.pickFrom(cands, backends, sreq)
}

// pickFrom picks from an already-built candidate snapshot (shared with
// admission on the arrival path, so the slices are built once per request;
// retries and hold wakeups rebuild them — the set changes while they
// wait).
func (g *Gateway) pickFrom(cands []sched.Candidate, backends []*Backend, sreq *sched.Request) *Backend {
	if i := g.picker().Pick(cands, sreq); i >= 0 {
		return backends[i]
	}
	return nil
}

// normalize pins the descriptor to this replica set, resolves the default
// priority class, and fills the per-class TTFT target when the client
// supplied none.
func (g *Gateway) normalize(sreq *sched.Request) {
	sreq.Model = g.Model
	sreq.Class = sreq.Class.Or(g.DefaultClass.Or(sched.ClassInteractive))
	if sreq.TTFTTarget <= 0 {
		sreq.TTFTTarget = g.ttftFor(sreq.Class)
	}
}

// batchTTFTFactor relaxes the TTFT objective for batch-class requests:
// they still age toward a deadline (so they cannot starve) but interactive
// work outranks them until far closer to its own target.
const batchTTFTFactor = 4

// ttftFor resolves the first-token objective for a class: the explicit
// TTFTTarget, else the SLO p95 objective, relaxed for batch. 0 = none.
func (g *Gateway) ttftFor(c sched.Class) time.Duration {
	base := g.TTFTTarget
	if base <= 0 {
		base = g.SLOTargetP95
	}
	if base <= 0 {
		return 0
	}
	if c == sched.ClassBatch {
		return base * batchTTFTFactor
	}
	return base
}

// ttftHint is a TTFT target in microseconds and its header text.
type ttftHint struct {
	micros int64
	text   string
}

// ttftText returns the header text of a TTFT target of us microseconds on
// a class c request. Each class keeps its last text and formats afresh
// only when the target differs, so a client-supplied target or a
// TTFTTarget changed on a running gateway is stamped as it is.
func (g *Gateway) ttftText(c sched.Class, us int64) string {
	h := &g.ttftHints[0]
	if c == sched.ClassBatch {
		h = &g.ttftHints[1]
	}
	if h.text == "" || h.micros != us {
		h.micros, h.text = us, strconv.FormatInt(us, 10)
	}
	return h.text
}

// stampSchedHints stamps the engine scheduler's request hints onto the
// forwarded request: the resolved TTFT deadline budget, the resolved
// priority class (so the engine's class view matches the gateway's), and
// the SLO-breaker state. A gateway with no TTFT objective configured
// leaves the request untouched — direct-to-engine behaviour is preserved.
func (g *Gateway) stampSchedHints(req *vhttp.Request, sreq *sched.Request) {
	if sreq.TTFTTarget <= 0 {
		return
	}
	if req.Header == nil {
		req.Header = make(map[string]string, 3)
	}
	req.Header[sched.TTFTTargetHeader] = g.ttftText(sreq.Class, sreq.TTFTTarget.Microseconds())
	if req.Header[sched.PriorityHeader] == "" && sreq.Class != sched.ClassUnset {
		req.Header[sched.PriorityHeader] = sreq.Class.String()
	}
	if g.slo != nil && g.slo.Engaged() {
		req.Header[sched.SLOBreachedHeader] = "1"
	} else {
		delete(req.Header, sched.SLOBreachedHeader)
	}
}

// admit runs the SLO breaker against the arrival-time replica snapshot.
func (g *Gateway) admit(p *sim.Proc, sreq *sched.Request, cands []sched.Candidate) sched.Outcome {
	// No objective (the default) admits, and so does an empty routable
	// set: that is the hold path's case, not admission's — a breached p95
	// must not 503 a request the next cold-started replica would have
	// completed.
	if g.SLOTargetP95 <= 0 || len(cands) == 0 {
		return sched.Admitted
	}
	if g.slo == nil {
		g.slo = &sched.SLO{}
	}
	// Re-sync the objective every decision so post-Start changes take
	// effect (only the breaker's hysteresis state and counter persist);
	// dropping SLOTargetP95 to 0 disables the breaker entirely.
	g.slo.Target = g.SLOTargetP95
	return g.slo.Admit(sreq, g.LatencyQuantile(p.Now(), 0.95))
}

// forward sends the request to one backend as inner, the proxied copy it
// fills in, tracking in-flight load. A draining backend detaches once its
// last in-flight request completes. Streamed responses keep their
// in-flight slot until the consumer drains the body — the replica is
// still generating after the headers return — released by the dispatch
// record when the stream ends.
func (g *Gateway) forward(p *sim.Proc, b *Backend, req, inner *vhttp.Request) (*vhttp.Response, error) {
	url := b.chatURL
	if req.Path != chatPath || len(req.Query) != 0 {
		url = req.ProxyURL(b.url)
	}
	*inner = req.ProxyTo(url)
	b.inflight++
	b.requests++
	resp, err := g.client.Do(p, inner)
	if err == nil && resp.Stream != nil && resp.Status < 500 {
		return resp, nil
	}
	g.release(b)
	return resp, err
}

// release returns a backend's in-flight slot, detaching a drained backend
// whose last request just completed.
func (g *Gateway) release(b *Backend) {
	b.inflight--
	if b.draining && b.inflight == 0 {
		g.detach(b)
	}
}

// Serve implements vhttp.Service: the virtual endpoint's request path.
// Inference traffic's scheduling attributes come from its headers and JSON
// body, read leniently: a non-JSON body just yields defaults.
func (g *Gateway) Serve(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
	if resp := g.control(p, req); resp != nil {
		return resp
	}
	sreq, _ := sched.Describe(req.Header, req.Body)
	return g.ServeDescribed(p, req, sreq)
}

// ServeDescribed dispatches inference traffic whose scheduling attributes
// were already derived — a fronting Router parses the body once and hands
// the descriptor down, so the per-model gateway does not re-parse. It
// answers none of the gateway's own endpoints: the Router calls it only
// for the chat and completions paths, which control never serves.
func (g *Gateway) ServeDescribed(p *sim.Proc, req *vhttp.Request, sreq sched.Request) *vhttp.Response {
	g.normalize(&sreq)
	return g.dispatch(p, req, sreq)
}

// control answers the gateway's own endpoints; nil means the request is
// inference traffic for the replica set.
func (g *Gateway) control(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
	switch req.Path {
	case "/health":
		// The gateway answers for the replica set: up while any replica is.
		// A cold-start-holding gateway with zero replicas is still
		// serviceable — requests queue and complete after scale-up.
		if g.Serviceable() {
			return vhttp.Text(200, "ok")
		}
		return vhttp.Text(503, "unhealthy: no healthy replicas")
	case "/gateway/metrics":
		return vhttp.Text(200, g.instruments().Render(p.Now()))
	case telemetry.ObservePath, "/gateway/status":
		// Single-model fleet snapshot: the same document the router
		// merges across models, scoped to this replica set. The status
		// path stays for operators and scripts that predate /observe.
		f := telemetry.FleetSnapshot{
			CapturedAt: p.Now(),
			Models:     []telemetry.ModelObservation{g.Observe(p.Now())},
		}
		return vhttp.JSON(200, f.Encode())
	case trace.Path:
		return g.traces(req)
	case "/v1/models":
		// Authoritative when the served model is known: the list is a
		// property of the replica set, not of whichever replica the
		// balancing policy would pick (which may be none during a cold
		// start, or a stale one mid-drain).
		if g.Model != "" {
			return vhttp.JSON(200, vllm.ModelListBody(g.Model))
		}
	}
	return nil
}

// traces serves the trace store: ?id= fetches one settled trace by its
// X-Trace-Id (404 when unknown or still in flight), no query lists the
// recent ring and the slowest-trace flight recorder.
func (g *Gateway) traces(req *vhttp.Request) *vhttp.Response {
	if id := req.Query.Get("id"); id != "" {
		t := g.tracer().Get(id)
		if t == nil {
			return vhttp.Text(404, "404 Not Found (gateway): no settled trace "+id)
		}
		body, _ := json.Marshal(t)
		return vhttp.JSON(200, body)
	}
	total, sampled := g.tracer().Counts()
	out := struct {
		Model   string         `json:"model,omitempty"`
		Total   uint64         `json:"total"`
		Sampled uint64         `json:"sampled"`
		Slowest []*trace.Trace `json:"slowest,omitempty"`
		Recent  []*trace.Trace `json:"recent,omitempty"`
	}{Model: g.Model, Total: total, Sampled: sampled,
		Slowest: g.tracer().Slowest(), Recent: g.tracer().Recent()}
	body, _ := json.Marshal(out)
	return vhttp.JSON(200, body)
}

// Trace returns a settled trace by ID (nil if unknown).
func (g *Gateway) Trace(id string) *trace.Trace { return g.tracer().Get(id) }

// instruments builds the gateway's metric registry on first use: typed
// counters sampled from the existing stats, gauges over live control
// state, and the request-latency histogram — the same instance the SLO
// breaker reads, so the exposition and the breach decision can never
// disagree.
func (g *Gateway) instruments() *metrics.Registry {
	if g.reg != nil {
		return g.reg
	}
	r := &metrics.Registry{}
	r.CounterFunc("gateway_requests_total", "forwarded client requests", func() float64 { return float64(g.stats.Requests) })
	r.CounterFunc("gateway_retries_total", "second attempts after a replica failure", func() float64 { return float64(g.stats.Retries) })
	r.CounterFunc("gateway_rejected_total", "admission rejections (SLO sheds)", func() float64 { return float64(g.stats.Rejected) })
	r.CounterFunc("gateway_errors_total", "requests failed on every attempted replica", func() float64 { return float64(g.stats.Errors) })
	r.CounterFunc("gateway_held_total", "requests held for a cold start", func() float64 { return float64(g.stats.Held) })
	r.CounterFunc("gateway_streams_total", "streamed responses proxied", func() float64 { return float64(g.stats.Streams) })
	r.CounterFunc("gateway_streams_truncated_total", "streams cut by a replica death", func() float64 { return float64(g.stats.StreamsTruncated) })
	r.CounterFunc("gateway_session_spills_total", "session-affine requests spilled off their replica", func() float64 { return float64(g.SessionSpills()) })
	r.CounterFunc("gateway_sketch_routes_total", "requests placed by prefix-sketch membership", func() float64 { return float64(g.SketchRoutes()) })
	r.CounterFunc("gateway_warmups_total", "async prefix warm-up submits fired", func() float64 { return float64(g.stats.Warmups) })
	r.GaugeFunc("gateway_holding", "requests parked in the hold queue", func() float64 { return float64(g.holdq.Len()) })
	r.GaugeFunc("gateway_healthy_backends", "routable replicas", func() float64 { return float64(g.HealthyBackends()) })
	r.Histogram("gateway_request_latency_ms", "end-to-end request latency (ms), streamed bodies included", &g.latencies)
	g.reg = r
	return r
}

// Observe assembles this replica set's slice of the fleet observability
// document: typed gateway counters (stream truncations, sheds by class,
// session spills included), latency quantiles from the same histogram
// the SLO breaker reads, trace-recorder totals, and per-replica health
// with snapshot staleness.
func (g *Gateway) Observe(now time.Time) telemetry.ModelObservation {
	obs := telemetry.ModelObservation{
		Model:           g.Model,
		Policy:          string(g.Policy),
		Serviceable:     g.Serviceable(),
		HealthyBackends: g.HealthyBackends(),
		Holding:         g.holdq.Len(),
		Counters:        g.Stats(),
		Replicas:        make([]telemetry.ReplicaHealth, 0, len(g.backends)),
	}
	if g.latencies.Count() > 0 {
		obs.LatencyMillis = map[string]float64{
			"p50": g.latencies.Quantile(now, 0.50),
			"p95": g.latencies.Quantile(now, 0.95),
			"p99": g.latencies.Quantile(now, 0.99),
		}
	}
	if slo, ok := g.SLO(); ok {
		obs.SLO = &slo
	}
	if g.Tracer != nil {
		total, sampled := g.Tracer.Counts()
		tc := &telemetry.TraceCounters{Total: total, Sampled: sampled}
		if slow := g.Tracer.Slowest(); len(slow) > 0 {
			tc.SlowestMillis = float64(slow[0].E2E()) / float64(time.Millisecond)
			tc.SlowestID = slow[0].ID
		}
		obs.Traces = tc
	}
	for _, b := range g.backends {
		obs.Replicas = append(obs.Replicas, telemetry.ReplicaHealth{
			Name: b.Name, URL: b.URL(), Healthy: b.healthy, Draining: b.draining,
			Inflight: b.inflight, Requests: b.requests, Failures: b.failures,
			SnapshotAgeMillis: b.snap.AgeMillis(now), Snapshot: b.snap,
		})
	}
	if g.AutoscaleStatus != nil {
		if raw, err := json.Marshal(g.AutoscaleStatus()); err == nil {
			obs.Autoscale = raw
		}
	}
	return obs
}

// dispatchRecord is the gateway's one record per dispatched request, and
// the one place a request ends: every exit of dispatch settles through it.
// It holds the scheduling descriptor, the request proxied to the picked
// replica, the cold-start budget, the trace, and the answering replica
// with, for a streamed reply, the upstream body. A retry proxies through a
// copy of its own, so the first attempt's stays as its replica saw it.
//
// For a streamed reply the record is the body the client drains: chunks
// pass straight through (zero-copy), and the end of the stream, clean or
// truncated, settles the request.
type dispatchRecord struct {
	g     *Gateway
	sreq  sched.Request
	inner vhttp.Request
	start time.Time
	// deadline is the request's one cold-start budget, fixed at arrival and
	// shared between the arrival hold and a possible re-hold after a
	// forward failure; held marks that the request was counted held.
	deadline time.Time
	held     bool
	// tr is the gateway's trace of a traced request and et the engine's
	// span context it merges when the request settles (both nil when
	// untraced).
	tr, et *trace.Trace
	// b is the replica whose reply the client gets (nil until one
	// answers), and body that reply's upstream stream when it streams.
	b    *Backend
	body vhttp.ChunkReader
	fin  bool
}

// dispatch is the scheduling path shared by Serve and ServeDescribed:
// admission, pick (holding through cold starts), forward, one retry.
func (g *Gateway) dispatch(p *sim.Proc, req *vhttp.Request, desc sched.Request) *vhttp.Response {
	g.stats.Requests++
	start := p.Now()
	rec := &dispatchRecord{g: g, sreq: desc, start: start, deadline: start.Add(g.ColdStartWait)}
	sreq := &rec.sreq
	tr := g.startTrace(req, sreq, start)
	rec.tr = tr
	if sreq.PrefixKey == 0 && g.Policy == PolicyPrefix && req.Path == chatPath {
		// Cache-aware placement needs the leading prompt-block key, folded
		// from the messages Describe scanned without allocating. 0 (short
		// prompt, a body the scan declined) degrades to plain session
		// routing.
		sreq.PrefixKey = vllm.ChatPrefixKeyOf(vllm.DefaultBlockSize, sreq.Messages)
	}
	// One routable-set snapshot serves both the admission decision and the
	// first pick; nothing yields between them.
	cands, backends := g.views(nil)
	if out := g.admit(p, sreq, cands); !out.Admit {
		g.stats.Rejected++
		g.noteShed(sreq.Class)
		rec.settle(p.Now(), "shed: "+out.Reason)
		resp := vhttp.Text(503, "503 Service Unavailable (gateway): "+out.Reason)
		resp.SetHeader("Retry-After", strconv.Itoa(out.RetryAfter))
		return resp
	}
	tr.Observe(trace.StageAdmission, start, p.Now())
	b := g.pickFrom(cands, backends, sreq)
	if b == nil && g.HoldColdStart {
		if b = rec.hold(p); b == nil {
			return rec.unheld(p, "")
		}
	}
	if !rec.held {
		// A routable replica was there on arrival: record the hold stage
		// as zero-duration so every settled trace carries the full stage
		// decomposition and a waterfall never has to guess whether a
		// missing hold span means "not held" or "not instrumented".
		tr.Observe(trace.StageHold, p.Now(), p.Now())
	}
	if b == nil {
		return rec.fail(p, 502, "502 Bad Gateway (gateway): no healthy replicas", "no healthy replicas")
	}
	// The pick itself is instantaneous in virtual time; the zero-duration
	// span marks when the decision landed (after any hold) and on whom.
	tr.Observe(trace.StagePick, p.Now(), p.Now())
	g.noteAndWarm(sreq, b, req)
	g.stampSchedHints(req, sreq)
	inner := &rec.inner
	for retry := false; ; retry = true {
		resp, err := g.forward(p, b, req, inner)
		if err == nil && resp.Status < 500 {
			return rec.deliver(p, b, resp)
		}
		// The attempt failed: a transport error means the replica endpoint
		// is gone (engine crashed, container exited) — take it out of
		// rotation until a probe revives it. A 5xx with a live endpoint
		// (request failed mid-flight on a dying engine) is retried without
		// marking, since the next probe decides. Either way the first
		// failure gets one retry on a different replica.
		b.failures++
		if err != nil {
			b.healthy = false
		}
		var next *Backend
		if !retry {
			next = g.pickFor(sreq, b)
			if next == nil && err != nil && g.HoldColdStart {
				// The failed attempt consumed the only routable replica (a
				// fresh cold-started instance can die on its first
				// request). With cold-start holding on, park the request
				// again — on its original budget — rather than surface a
				// 502 the next scale-up would have absorbed.
				if next = rec.hold(p); next == nil {
					return rec.unheld(p, " after replica failure")
				}
			}
		}
		if next == nil {
			switch {
			case err != nil && retry:
				return rec.fail(p, 502, "502 Bad Gateway (gateway): retry on "+b.Name+" failed: "+err.Error(), "retry unreachable: "+err.Error())
			case err != nil:
				return rec.fail(p, 502, "502 Bad Gateway (gateway): replica "+b.Name+" unreachable: "+err.Error(), "replica unreachable: "+err.Error())
			}
			// A live replica's 5xx reaches the client as it came.
			msg := "upstream 5xx with no retry candidate"
			if retry {
				msg = "upstream 5xx on retry"
			}
			g.stats.Errors++
			rec.settle(p.Now(), msg)
			return resp
		}
		g.stats.Retries++
		if tr != nil {
			tr.Retries++
		}
		b, inner = next, new(vhttp.Request)
	}
}

// The 503 texts of a held request that got no replica: its cold-start
// budget ran out, or the gateway stopped first.
const (
	coldStartExpired = "503 Service Unavailable (gateway): no replica became available within the cold-start window"
	holdStopped      = "503 Service Unavailable (gateway): the gateway stopped before a replica became available"
)

// hold parks the request until a backend becomes routable (cold start) or
// its cold-start budget runs out, queued by priority class, and records
// the hold span. Returns the picked backend, or nil on timeout/stop. The
// request counts as held once however often it parks, and the budget is
// fixed at arrival, so a request re-held after its replica died cannot
// wait more than one ColdStartWait in total.
func (r *dispatchRecord) hold(p *sim.Proc) *Backend {
	g := r.g
	if !r.held {
		r.held = true
		g.stats.Held++
	}
	holdStart := p.Now()
	ticket := g.holdq.Push(r.sreq.Class)
	defer g.holdq.Remove(ticket)
	var b *Backend
	for !g.stopped && b == nil {
		remain := r.deadline.Sub(p.Now())
		if remain <= 0 {
			break
		}
		wake := p.Engine().NewSignal()
		ticket.SetWake(wake.Fire)
		p.WaitTimeout(wake, remain)
		b = g.pickFor(&r.sreq, nil)
	}
	r.tr.Observe(trace.StageHold, holdStart, p.Now())
	return b
}

// unheld ends a request whose hold returned no replica, for the reason the
// hold ended: the gateway stopped, or the cold-start budget ran out. after
// qualifies the trace message of a re-hold.
func (r *dispatchRecord) unheld(p *sim.Proc, after string) *vhttp.Response {
	if r.g.stopped {
		return r.fail(p, 503, holdStopped, "gateway stopped during cold-start hold"+after)
	}
	return r.fail(p, 503, coldStartExpired, "cold-start hold expired"+after)
}

// deliver hands b's reply to the client. The engine's span context rides
// Response.Trace and never propagates past the gateway — clients read
// settled traces from /traces, not response internals. A buffered reply
// settles now. A streamed one settles when the client drains it, so its
// latency sample covers the whole body rather than time-to-headers, and
// the replica keeps its in-flight slot until then: the record takes the
// upstream body's place.
func (r *dispatchRecord) deliver(p *sim.Proc, b *Backend, resp *vhttp.Response) *vhttp.Response {
	r.b = b
	if et, ok := resp.Trace.(*trace.Trace); ok {
		r.et, resp.Trace = et, nil
	}
	if resp.Stream == nil {
		r.settle(p.Now(), "")
		return resp
	}
	r.g.stats.Streams++
	if r.tr != nil {
		r.tr.Streamed = true
	}
	r.body, resp.Stream = resp.Stream, r
	return resp
}

// Next implements vhttp.ChunkReader. At the end of the stream the replica's
// in-flight slot is released, and a truncated stream (replica died
// mid-generation) is charged as a backend failure. Truncations are never
// retried — the first byte already reached the client, so failover happens
// only on the buffered pre-first-byte error path.
func (r *dispatchRecord) Next(p *sim.Proc) (vhttp.Chunk, bool) {
	c, ok := r.body.Next(p)
	if ok || r.fin {
		return c, ok
	}
	r.fin = true
	r.g.release(r.b)
	errMsg := ""
	if err := r.body.Err(); err != nil {
		r.b.failures++
		r.g.stats.StreamsTruncated++
		errMsg = "stream truncated: " + err.Error()
	}
	r.settle(p.Now(), errMsg)
	return c, ok
}

// Err implements vhttp.ChunkReader.
func (r *dispatchRecord) Err() error { return r.body.Err() }

// fail ends the request with the gateway's own error reply: one error
// counted, the trace settled with traceMsg, and status with text returned.
func (r *dispatchRecord) fail(p *sim.Proc, status int, text, traceMsg string) *vhttp.Response {
	r.g.stats.Errors++
	r.settle(p.Now(), traceMsg)
	return vhttp.Text(status, text)
}

// settle records the request's end at now. A request a replica answered
// gives its end-to-end latency sample. A traced request's trace merges the
// engine's spans, adopts the answering replica (a request that got no reply
// has neither), and is finished and recorded. A streamed reply also gets
// its drain span, from engine-side completion (decode span end) to the
// client consuming the last chunk — the decode span is recorded at engine
// finish, before the terminal chunk is drained. Valid cross-layer
// arithmetic: every layer shares one virtual clock.
func (r *dispatchRecord) settle(now time.Time, errMsg string) {
	if r.b != nil {
		r.g.latencies.Observe(now, float64(now.Sub(r.start))/float64(time.Millisecond))
	}
	tr := r.tr
	if tr == nil {
		return
	}
	tr.Merge(r.et)
	if tr.Replica == "" && r.b != nil {
		tr.Replica = r.b.Name
	}
	if r.body != nil {
		drainStart := now
		if end, ok := tr.SpanEnd(trace.StageDecode); ok && end.Before(now) {
			drainStart = end
		}
		tr.Observe(trace.StageDrain, drainStart, now)
	}
	tr.Finish(now, errMsg)
	r.g.tracer().Record(tr)
}

// startTrace makes the trace-or-not decision at the front of dispatch.
// The unsampled path (no X-Trace-Id, not sampled) allocates nothing —
// the CI alloc budgets run with a Tracer installed. A sampled request
// gets the trace ID injected into its headers so the engine-side API
// server opens its own span context under the same ID.
func (g *Gateway) startTrace(req *vhttp.Request, sreq *sched.Request, now time.Time) *trace.Trace {
	tr := g.tracer().Start(sreq.TraceID, g.Model, sreq.Class.String(), now)
	if tr == nil {
		return nil
	}
	if req.Header == nil {
		req.Header = make(map[string]string, 1)
	}
	req.Header[trace.Header] = tr.ID
	return tr
}

// tracer resolves the recorder, creating a default one on first use.
func (g *Gateway) tracer() *trace.Recorder {
	if g.Tracer == nil {
		g.Tracer = &trace.Recorder{}
	}
	return g.Tracer
}

// noteShed counts one admission rejection against the request's class.
func (g *Gateway) noteShed(c sched.Class) {
	if g.stats.ShedByClass == nil {
		g.stats.ShedByClass = make(map[string]int, 2)
	}
	g.stats.ShedByClass[c.String()]++
}

var _ vhttp.Service = (*Gateway)(nil)
