package telemetry

import (
	"encoding/json"
	"fmt"
	"time"
)

// ObservePath is the router- and gateway-level endpoint serving the
// merged FleetSnapshot as JSON.
const ObservePath = "/observe"

// ReplicaHealth is one replica as the gateway sees it: routing state,
// forwarding counters, and the replica's own engine Snapshot with its
// staleness at capture time.
type ReplicaHealth struct {
	Name     string `json:"name"`
	URL      string `json:"url,omitempty"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining,omitempty"`
	Inflight int    `json:"inflight"`
	Requests int    `json:"requests"`
	Failures int    `json:"failures"`
	// SnapshotAgeMillis is how stale the embedded Snapshot was when the
	// fleet snapshot was assembled (-1: never scraped).
	SnapshotAgeMillis float64  `json:"snapshot_age_ms"`
	Snapshot          Snapshot `json:"snapshot"`
}

// GatewayCounters are the gateway's cumulative request-outcome counters,
// including the streaming data plane's truncation accounting and
// per-class shed counts.
type GatewayCounters struct {
	Requests         int            `json:"requests"`                // forwarded client requests (control paths excluded)
	Retries          int            `json:"retries"`                 // second attempts after a first-choice replica failed
	Rejected         int            `json:"rejected"`                // 503s from admission (SLO sheds)
	Errors           int            `json:"errors"`                  // requests that failed on every attempted replica
	Held             int            `json:"held"`                    // requests queued for a cold start
	Streams          int            `json:"streams"`                 // SSE responses proxied unbuffered
	StreamsTruncated int            `json:"streams_truncated"`       // streams cut by a replica death (never retried)
	SessionSpills    int            `json:"session_spills"`          // session picks that left a saturated affine replica
	SketchRoutes     int            `json:"sketch_routes,omitempty"` // picks placed by prefix-sketch membership
	Warmups          int            `json:"warmups,omitempty"`       // async prefix warm-ups after spills and drains
	ShedByClass      map[string]int `json:"shed_by_class,omitempty"` // admission rejections per priority class
}

// SLOState is the gateway SLO breaker's view: the objective, the same
// histogram p95 the breaker decides on, and whether shedding is engaged.
type SLOState struct {
	TargetMillis float64 `json:"target_ms"`
	P95Millis    float64 `json:"p95_ms"`
	Engaged      bool    `json:"engaged"`
	Sheds        int     `json:"sheds"`
}

// TraceCounters summarizes the gateway's trace recorder.
type TraceCounters struct {
	Total         uint64  `json:"total"`
	Sampled       uint64  `json:"sampled"`
	SlowestMillis float64 `json:"slowest_ms,omitempty"`
	SlowestID     string  `json:"slowest_id,omitempty"`
}

// ModelObservation is one model's slice of the fleet: gateway counters,
// latency distribution, SLO/trace state, and per-replica health.
type ModelObservation struct {
	Model           string          `json:"model"`
	Policy          string          `json:"policy,omitempty"`
	Serviceable     bool            `json:"serviceable"`
	HealthyBackends int             `json:"healthy_backends"`
	Holding         int             `json:"holding"`
	Counters        GatewayCounters `json:"counters"`
	// LatencyMillis carries selected quantiles of the gateway's request
	// latency histogram, keyed "p50"/"p95"/"p99".
	LatencyMillis map[string]float64 `json:"latency_ms,omitempty"`
	SLO           *SLOState          `json:"slo,omitempty"`
	Traces        *TraceCounters     `json:"traces,omitempty"`
	Replicas      []ReplicaHealth    `json:"replicas"`
	// Autoscale is the autoscaler's status document, opaque to this
	// package (telemetry sits below autoscale in the import graph).
	Autoscale json.RawMessage `json:"autoscale,omitempty"`
}

// RouterCounters are the multi-model front door's counters.
type RouterCounters struct {
	Requests int `json:"requests"` // model-routed requests dispatched to a gateway
	Unknown  int `json:"unknown"`  // requests naming an unknown (or no) model
}

// FleetSnapshot is the one-stop observability document served on
// /observe: everything a dashboard, a re-anchor, or a cross-layer
// coordination fix needs in a single fetch.
type FleetSnapshot struct {
	CapturedAt time.Time          `json:"captured_at"`
	Router     *RouterCounters    `json:"router,omitempty"`
	Models     []ModelObservation `json:"models"`
	// Pool is the shared-capacity arbiter's status document, opaque for
	// the same import-graph reason as ModelObservation.Autoscale.
	Pool json.RawMessage `json:"pool,omitempty"`
}

// Model returns the named model's observation, or nil.
func (f *FleetSnapshot) Model(name string) *ModelObservation {
	for i := range f.Models {
		if f.Models[i].Model == name {
			return &f.Models[i]
		}
	}
	return nil
}

// Encode renders the fleet snapshot as JSON.
func (f FleetSnapshot) Encode() []byte {
	b, _ := json.Marshal(f)
	return b
}

// DecodeFleet parses a FleetSnapshot from JSON.
func DecodeFleet(b []byte) (FleetSnapshot, error) {
	var f FleetSnapshot
	if err := json.Unmarshal(b, &f); err != nil {
		return FleetSnapshot{}, fmt.Errorf("telemetry: bad fleet snapshot: %w", err)
	}
	return f, nil
}
