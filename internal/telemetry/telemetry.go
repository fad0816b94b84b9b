// Package telemetry defines the typed cross-layer load signal the serving
// stack exchanges: a Snapshot of one replica's engine-level state — queue
// depths, KV-block usage, prefix-cache effectiveness, per-priority-class
// occupancy, and the windowed latency tail — serialized as JSON on a
// replica-local endpoint and consumed by the ingress gateway, the
// scheduling layer's pickers, and the autoscaler.
//
// Before this package, the gateway string-scraped two counters out of the
// Prometheus text exposition on every probe round, and everything richer
// the engine knew (cache pressure, hit rates, class mix, tail latency)
// was invisible to placement and scaling decisions. The related HPC
// experience reports (CSCS's Cray EX ML-platform evolution, the adaptive-
// containerization survey) make the same point this package encodes:
// adaptive placement needs structured workload telemetry, not scraped
// strings. The text /metrics surface remains for external observability;
// this is the machine-to-machine path.
package telemetry

import (
	"encoding/json"
	"fmt"
	"time"
)

// Path is the replica-local HTTP endpoint serving the Snapshot as JSON.
const Path = "/telemetry"

// Snapshot is one replica's engine-level state at a probe instant. The
// zero value means "never scraped" — consumers treat KVBlocksTotal == 0 as
// absent KV information rather than an empty cache.
type Snapshot struct {
	// Model is the served model name; Replica the instance identity.
	Model   string `json:"model,omitempty"`
	Replica string `json:"replica,omitempty"`

	// CapturedAt is the virtual time the replica produced this snapshot.
	// Consumers use it to distinguish fresh signals from stale ones (a
	// draining or wedged replica keeps returning its last state); the
	// zero value means the snapshot was never captured.
	CapturedAt time.Time `json:"captured_at,omitzero"`

	// Waiting and Running are the engine scheduler's queue depths.
	Waiting int `json:"waiting"`
	Running int `json:"running"`
	// RunningByClass breaks Running+Waiting down by priority class name
	// ("interactive", "batch"); requests that carried no class are counted
	// under "unset".
	RunningByClass map[string]int `json:"running_by_class,omitempty"`
	// WaitingByClass breaks the waiting queue alone down by class, so the
	// control plane can see *who* is queued, not just how many.
	WaitingByClass map[string]int `json:"waiting_by_class,omitempty"`

	// KV-block accounting. Used counts every resident block (including
	// cached ones); Cached counts resident blocks no live sequence
	// references — prefix-cache content that is reclaimable on demand.
	KVBlocksTotal  int `json:"kv_blocks_total"`
	KVBlocksUsed   int `json:"kv_blocks_used"`
	KVBlocksCached int `json:"kv_blocks_cached"`

	// Prefix-cache counters (cumulative since engine start). Hits and
	// Misses count full prompt blocks looked up at admission; Evictions
	// counts cached blocks reclaimed to make room; CachedTokens totals the
	// prefill tokens skipped.
	PrefixHits      int64 `json:"prefix_hits"`
	PrefixMisses    int64 `json:"prefix_misses"`
	PrefixEvictions int64 `json:"prefix_evictions"`
	CachedTokens    int64 `json:"cached_tokens"`

	// WindowPrefixHits/Misses are the same lookup counters over the
	// engine's trailing window (~2 minutes) — the freshness-weighted
	// signal cache-aware placement consults, where the cumulative pair
	// above would chase hours-old behaviour.
	WindowPrefixHits   int64 `json:"window_prefix_hits,omitempty"`
	WindowPrefixMisses int64 `json:"window_prefix_misses,omitempty"`

	// PrefixSketch is the replica's compact prefix-membership sketch: the
	// chain keys of its available depth-0 prefix blocks (the first block
	// of any cached prompt, GPU- or host-tier-resident; chain hashing
	// means deeper blocks exist only where their head does). The prefix
	// picker tests a request's leading block key against it so
	// conversations land where their system prompt is already warm.
	PrefixSketch []uint64 `json:"prefix_sketch,omitempty"`

	// Host-tier (CPU offload) accounting: tier capacity and occupancy in
	// blocks, plus cumulative GPU→host demotions and host→GPU promotions.
	// All zero without a configured tier.
	KVHostBlocksTotal int   `json:"kv_host_blocks_total,omitempty"`
	KVHostBlocksUsed  int   `json:"kv_host_blocks_used,omitempty"`
	TierDemotions     int64 `json:"tier_demotions,omitempty"`
	TierPromotions    int64 `json:"tier_promotions,omitempty"`

	// P95Millis is the p95 of the end-to-end latencies of requests the
	// replica completed over the trailing five minutes, read from its
	// windowed latency histogram (milliseconds, within one 15% bucket;
	// 0 when nothing completed in the window).
	P95Millis float64 `json:"p95_ms"`

	// Cumulative outcome counters.
	Completed int   `json:"completed"`
	Failed    int   `json:"failed"`
	TokensOut int64 `json:"tokens_out"`

	// Deadline-scheduler counters (cumulative since engine start).
	// DeadlineMisses counts requests whose first token landed after their
	// TTFT deadline; Preemptions counts sequences evicted from the running
	// batch (KV pressure or deadline rescue); Resumes counts preempted
	// sequences re-admitted to the batch.
	DeadlineMisses int64 `json:"deadline_misses,omitempty"`
	Preemptions    int64 `json:"preemptions,omitempty"`
	Resumes        int64 `json:"resumes,omitempty"`
}

// KVUsage is the fraction of KV blocks resident (cached content included);
// 0 when no KV information is present.
func (s Snapshot) KVUsage() float64 {
	if s.KVBlocksTotal <= 0 {
		return 0
	}
	return float64(s.KVBlocksUsed) / float64(s.KVBlocksTotal)
}

// KVPressure is the fraction of KV blocks live sequences hold — resident
// minus reclaimable cache. This is the saturation measure placement should
// fear: past ~1.0 the engine preempts. 0 when no KV information exists.
func (s Snapshot) KVPressure() float64 {
	if s.KVBlocksTotal <= 0 {
		return 0
	}
	hard := s.KVBlocksUsed - s.KVBlocksCached
	if hard < 0 {
		hard = 0
	}
	return float64(hard) / float64(s.KVBlocksTotal)
}

// AgeMillis is the snapshot's age at virtual time now in milliseconds,
// or -1 when the snapshot was never captured (zero CapturedAt). Clamped
// at zero for consumers holding a snapshot fresher than their clock.
func (s Snapshot) AgeMillis(now time.Time) float64 {
	if s.CapturedAt.IsZero() {
		return -1
	}
	age := now.Sub(s.CapturedAt)
	if age < 0 {
		age = 0
	}
	return float64(age) / float64(time.Millisecond)
}

// PrefixHitRate is the cumulative block hit rate of the prefix cache
// (hits / lookups), 0 before any lookup.
func (s Snapshot) PrefixHitRate() float64 {
	total := s.PrefixHits + s.PrefixMisses
	if total <= 0 {
		return 0
	}
	return float64(s.PrefixHits) / float64(total)
}

// WindowPrefixHitRate is the block hit rate over the engine's trailing
// window, 0 with no windowed lookups — the staleness-proof rate placement
// decisions should prefer.
func (s Snapshot) WindowPrefixHitRate() float64 {
	total := s.WindowPrefixHits + s.WindowPrefixMisses
	if total <= 0 {
		return 0
	}
	return float64(s.WindowPrefixHits) / float64(total)
}

// SketchContains reports whether key is in the replica's published
// prefix-membership sketch. A linear scan: the sketch is small (≤128
// entries) and the replica-pick path must stay allocation-free.
func (s Snapshot) SketchContains(key uint64) bool {
	if key == 0 {
		return false
	}
	for _, h := range s.PrefixSketch {
		if h == key {
			return true
		}
	}
	return false
}

// Encode renders the snapshot as JSON.
func (s Snapshot) Encode() []byte {
	b, _ := json.Marshal(s)
	return b
}

// Decode parses a Snapshot from JSON, rejecting bodies that are not a
// telemetry object.
func Decode(b []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return Snapshot{}, fmt.Errorf("telemetry: bad snapshot: %w", err)
	}
	return s, nil
}
