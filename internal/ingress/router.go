package ingress

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vhttp"
	"repro/internal/vllm"
)

// Router is the multi-model front door: one OpenAI-compatible endpoint
// fronting N named model deployments, each a replica set behind its own
// (unbound) Gateway. It inspects the `model` field of /v1/chat/completions
// and /v1/completions bodies and dispatches to the matching gateway, so
// every per-model policy — least-loaded balancing, retry-on-distinct-
// replica, SLO shed, cold-start holding — applies unchanged per
// model. GET /v1/models aggregates the fleet's served names. This is the
// Chat AI shape from the related work: route by model name to per-model
// Slurm-backed instances behind a single stable URL.
type Router struct {
	Net  *vhttp.Net
	Host string
	Port int
	// PoolStatus, when non-nil, renders the shared-capacity arbiter's view
	// into the /observe document (also served on /router/status) under
	// "pool".
	PoolStatus func() any

	routes  []*modelRoute // registration order (deterministic rendering)
	byModel map[string]*modelRoute
	stats   telemetry.RouterCounters
	started bool
	stopped bool
}

type modelRoute struct {
	model string
	gw    *Gateway
}

// AddModel registers a model name and the gateway serving it. Safe while
// the router serves: requests for the name route as soon as it returns.
func (r *Router) AddModel(model string, gw *Gateway) error {
	if model == "" {
		return fmt.Errorf("ingress: router model name must be non-empty")
	}
	if gw == nil {
		return fmt.Errorf("ingress: router model %q needs a gateway", model)
	}
	if r.byModel == nil {
		r.byModel = make(map[string]*modelRoute)
	}
	if _, dup := r.byModel[model]; dup {
		return fmt.Errorf("ingress: model %q already routed", model)
	}
	rt := &modelRoute{model: model, gw: gw}
	r.routes = append(r.routes, rt)
	r.byModel[model] = rt
	return nil
}

// Gateway returns the gateway routed for a model name (nil if unknown).
func (r *Router) Gateway(model string) *Gateway {
	if rt, ok := r.byModel[model]; ok {
		return rt.gw
	}
	return nil
}

// Models lists routed model names in registration order.
func (r *Router) Models() []string {
	out := make([]string, 0, len(r.routes))
	for _, rt := range r.routes {
		out = append(out, rt.model)
	}
	return out
}

// Stats returns a snapshot of router counters. Per-model forwarding
// outcomes (retries, sheds, holds) live in each model's Gateway.Stats.
func (r *Router) Stats() telemetry.RouterCounters { return r.stats }

// Endpoint is the single base URL clients target for every model.
func (r *Router) Endpoint() string { return fmt.Sprintf("http://%s:%d", r.Host, r.Port) }

// Start binds the endpoint. Per-model gateways are started (unbound) by
// their own deployments; the router only dispatches into them.
func (r *Router) Start(eng *sim.Engine) error {
	if r.started {
		return fmt.Errorf("ingress: router %s already started", r.Endpoint())
	}
	if err := r.Net.Listen(r.Host, r.Port, r, vhttp.ListenOptions{Up: func() bool { return !r.stopped }}); err != nil {
		return err
	}
	r.started = true
	return nil
}

// Stop unbinds the endpoint. Gateways keep running for their owners.
func (r *Router) Stop() {
	if !r.started || r.stopped {
		return
	}
	r.stopped = true
	r.Net.Unlisten(r.Host, r.Port)
}

// inferencePath reports whether the path is a model-routed OpenAI
// inference endpoint.
func inferencePath(path string) bool {
	return path == "/v1/chat/completions" || path == "/v1/completions"
}

// errorResponse renders the OpenAI error envelope naming the routable
// models, so a typo'd `model` field is self-diagnosing.
func (r *Router) errorResponse(status int, msg string) *vhttp.Response {
	var er vllm.ErrorResponse
	er.Error.Message = fmt.Sprintf("%s; available models: %v", msg, r.Models())
	er.Error.Type = "invalid_request_error"
	body, _ := json.Marshal(er)
	return vhttp.JSON(status, body)
}

// Serve implements vhttp.Service: the multi-model request path.
func (r *Router) Serve(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
	switch req.Path {
	case "/health":
		// Up while any model can make progress on a request.
		for _, rt := range r.routes {
			if rt.gw.Serviceable() {
				return vhttp.Text(200, "ok")
			}
		}
		return vhttp.Text(503, "unhealthy: no model serviceable")
	case telemetry.ObservePath, "/router/status":
		// The status path stays for operators and scripts that predate
		// /observe; it serves the same document.
		return r.observe(p.Now())
	case trace.Path:
		return r.traces(req)
	case "/v1/models":
		// Aggregated across the fleet (AddModel keeps route names unique):
		// the authoritative list lives here, not on whichever replica a
		// probe would hit.
		return vhttp.JSON(200, vllm.ModelListBody(r.Models()...))
	}

	if !inferencePath(req.Path) {
		return r.errorResponse(404, fmt.Sprintf("unknown endpoint %s (the router serves /v1/models, /v1/chat/completions, /v1/completions)", req.Path))
	}
	if req.Method != "POST" {
		r.stats.Unknown++
		return r.errorResponse(405, fmt.Sprintf("%s requires POST (got %s)", req.Path, req.Method))
	}
	// One scan of the body (model, session key, priority class, and the
	// chat messages the prefix key folds) covers the whole front door: the
	// router dispatches on the model and hands the descriptor to the
	// per-model gateway, which consumes the rest without re-reading the
	// body.
	desc, err := sched.Describe(req.Header, req.Body)
	if err != nil {
		r.stats.Unknown++
		return r.errorResponse(400, err.Error())
	}
	if desc.Model == "" {
		r.stats.Unknown++
		return r.errorResponse(404, "request body names no model")
	}
	rt, routed := r.byModel[desc.Model]
	if !routed {
		r.stats.Unknown++
		return r.errorResponse(404, fmt.Sprintf("model %q does not exist", desc.Model))
	}
	r.stats.Requests++
	return rt.gw.ServeDescribed(p, req, desc)
}

// observe merges every model's observation, the router counters, and the
// pool arbiter's status into the one-stop FleetSnapshot — the single
// document a dashboard, a re-anchor, or a breaker/autoscaler
// coordination consumer fetches instead of walking per-layer endpoints.
func (r *Router) observe(now time.Time) *vhttp.Response {
	f := telemetry.FleetSnapshot{
		CapturedAt: now,
		Router:     &r.stats,
		Models:     make([]telemetry.ModelObservation, 0, len(r.routes)),
	}
	for _, rt := range r.routes {
		obs := rt.gw.Observe(now)
		// The fleet document is keyed by route name; a gateway may carry
		// a served alias, but the router's names are what clients use.
		obs.Model = rt.model
		f.Models = append(f.Models, obs)
	}
	if r.PoolStatus != nil {
		if raw, err := json.Marshal(r.PoolStatus()); err == nil {
			f.Pool = raw
		}
	}
	return vhttp.JSON(200, f.Encode())
}

// traces searches every model's trace store: ?id= fetches one settled
// trace wherever it landed; no query lists each gateway's summary.
func (r *Router) traces(req *vhttp.Request) *vhttp.Response {
	if id := req.Query.Get("id"); id != "" {
		for _, rt := range r.routes {
			if t := rt.gw.Trace(id); t != nil {
				body, _ := json.Marshal(t)
				return vhttp.JSON(200, body)
			}
		}
		return vhttp.Text(404, "404 Not Found (router): no settled trace "+id)
	}
	out := make(map[string]json.RawMessage, len(r.routes))
	for _, rt := range r.routes {
		resp := rt.gw.traces(req)
		out[rt.model] = resp.Body
	}
	body, _ := json.Marshal(out)
	return vhttp.JSON(200, body)
}

var _ vhttp.Service = (*Router)(nil)
