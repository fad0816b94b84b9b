// Package workload is the million-user workload engine: a ServeGen-style
// generator turning a declarative Spec — client cohorts with
// distinct prompt/output-length distributions, multi-period diurnal arrival
// rates, and session/conversation structure — into a deterministic,
// time-ordered stream of request records that the bench harness, the
// scenario harness, and the cmds all consume. A generated stream can be
// recorded to a JSONL trace and replayed bit-identically, so "heavy traffic
// from millions of users" is a reproducible input, not a slogan.
//
// The generator is open-loop: arrival times come from the Spec's rate
// schedule, not from the system's completions — the load does not slow down
// because the fleet is slow, which is exactly what makes shed/SLO behavior
// under overload honest (closed-loop harnesses self-throttle and hide
// collapse). Multi-turn sessions are the one designed exception: a turn's
// recorded arrival offset is its earliest start, and consumers must not
// issue turn k+1 before turn k's response exists (its history includes that
// response), so in-session pacing is max(scheduled, predecessor done).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/sharegpt"
)

// LengthDist is a clamped log-normal token-length distribution. The zero
// value means "inherit the cohort default" (sharegpt's ShareGPT_V3
// calibration for prompts/outputs).
type LengthDist struct {
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma"`
	// Min/Max clamp the sampled length (defaults: sharegpt.MinTokens /
	// sharegpt.MaxTokens).
	Min int `json:"min,omitempty"`
	Max int `json:"max,omitempty"`
}

func (d LengthDist) zero() bool { return d.Mu == 0 && d.Sigma == 0 }

// withDefaults resolves a zero dist to the given calibration.
func (d LengthDist) withDefaults(mu, sigma float64) LengthDist {
	if d.zero() {
		d.Mu, d.Sigma = mu, sigma
	}
	if d.Min <= 0 {
		d.Min = sharegpt.MinTokens
	}
	if d.Max <= 0 {
		d.Max = sharegpt.MaxTokens
	}
	return d
}

// sample draws one token length.
func (d LengthDist) sample(rng *rand.Rand) int {
	n := int(math.Exp(d.Mu + d.Sigma*rng.NormFloat64()))
	if n < d.Min {
		return d.Min
	}
	if n > d.Max {
		return d.Max
	}
	return n
}

// Cohort is one client population: who they are (Clients distinct client
// identities), what they ask (prompt/output length distributions), how they
// converse (Turns per session with exponential think time), and how the
// fleet should treat them (Model, priority Class).
type Cohort struct {
	Name  string `json:"name"`
	Model string `json:"model"`
	// Class is the request priority class carried to the gateway's
	// scheduler ("interactive", "batch", ...; empty = default class).
	Class string `json:"class,omitempty"`
	// Weight is this cohort's share of session arrivals (default 1).
	Weight float64 `json:"weight,omitempty"`
	// Clients is the distinct client-identity population; session n of the
	// cohort belongs to client n mod Clients (default: one client per
	// session).
	Clients int `json:"clients,omitempty"`
	// Turns per session (default 1: single-shot requests, no history).
	Turns int `json:"turns,omitempty"`
	// ThinkTime is the mean exponential pause between a turn's scheduled
	// start and the next turn's earliest start (default 30s; only used when
	// Turns > 1).
	ThinkTime time.Duration `json:"think_time,omitempty"`
	// Prompt/Output are the per-turn fresh-prompt and generation length
	// distributions; zero values inherit the sharegpt calibration.
	Prompt LengthDist `json:"prompt,omitempty"`
	Output LengthDist `json:"output,omitempty"`
}

// RatePeriod is one segment of the diurnal schedule: session starts arrive
// as a Poisson process at StartsPerSec for Dur.
type RatePeriod struct {
	Dur          time.Duration `json:"dur"`
	StartsPerSec float64       `json:"starts_per_sec"`
}

// Arrivals is a multi-period open-loop arrival schedule, optionally cycled.
type Arrivals struct {
	Periods []RatePeriod `json:"periods"`
	// Cycles repeats the period list (default 1). Two low/high/low cycles
	// make a two-"day" diurnal run.
	Cycles int `json:"cycles,omitempty"`
}

// Spec is the full declarative workload: everything Generate needs, and
// nothing else — the same (Spec, Seed) always yields the same stream.
type Spec struct {
	Name     string   `json:"name"`
	Seed     int64    `json:"seed"`
	Cohorts  []Cohort `json:"cohorts"`
	Arrivals Arrivals `json:"arrivals"`
}

// Validate rejects specs Generate cannot honor.
func (s Spec) Validate() error {
	if len(s.Cohorts) == 0 {
		return fmt.Errorf("workload: spec %q has no cohorts", s.Name)
	}
	for i, c := range s.Cohorts {
		if c.Name == "" {
			return fmt.Errorf("workload: cohort %d has no name", i)
		}
		if c.Model == "" {
			return fmt.Errorf("workload: cohort %q has no model", c.Name)
		}
		if c.Weight < 0 {
			return fmt.Errorf("workload: cohort %q has negative weight", c.Name)
		}
		if c.Turns < 0 || c.Clients < 0 {
			return fmt.Errorf("workload: cohort %q has negative turns or clients", c.Name)
		}
	}
	if len(s.Arrivals.Periods) == 0 {
		return fmt.Errorf("workload: spec %q has no arrival periods", s.Name)
	}
	for i, p := range s.Arrivals.Periods {
		if p.Dur <= 0 {
			return fmt.Errorf("workload: arrival period %d has non-positive duration", i)
		}
		if p.StartsPerSec < 0 {
			return fmt.Errorf("workload: arrival period %d has negative rate", i)
		}
	}
	return nil
}

// Request is one generated request record: where in virtual time it arrives
// (an offset from the run start), who it is, and its token-length shape.
// The flat integer encoding (microsecond offsets, token counts) makes the
// JSONL trace byte-stable across record and replay.
type Request struct {
	// AtMicros is the request's earliest start, in microseconds from the
	// beginning of the run. For turn > 0 the effective start is
	// max(AtMicros, previous turn's completion) — see the package comment.
	AtMicros int64  `json:"at_us"`
	Cohort   string `json:"cohort"`
	// Client is the stable client identity within the cohort; Session the
	// conversation instance; Turn the zero-based position within it.
	Client  int    `json:"client"`
	Session int    `json:"session"`
	Turn    int    `json:"turn"`
	Model   string `json:"model"`
	Class   string `json:"class,omitempty"`
	// NewTokens is this turn's fresh user message; PrefixTokens the shared
	// conversation history (all prior turns' prompts and replies);
	// PromptTokens their sum — what the engine must prefill, of which
	// PrefixTokens are prefix-cacheable under session affinity.
	NewTokens    int `json:"new_tokens"`
	PrefixTokens int `json:"prefix_tokens,omitempty"`
	PromptTokens int `json:"prompt_tokens"`
	OutputTokens int `json:"output_tokens"`
}

// At is the request's earliest start as a duration offset.
func (r Request) At() time.Duration { return time.Duration(r.AtMicros) * time.Microsecond }

// SessionKey is the affinity key consumers put on the wire (one per
// conversation, shared by all its turns).
func (r Request) SessionKey() string { return fmt.Sprintf("%s-s%d", r.Cohort, r.Session) }

// Generate materializes the spec's full request stream, sorted by arrival
// offset (ties broken by generation order). Deterministic: same spec, same
// stream.
func Generate(spec Spec) ([]Request, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	var total float64
	for _, c := range spec.Cohorts {
		w := c.Weight
		if w == 0 {
			w = 1
		}
		total += w
	}
	sessions := make([]int, len(spec.Cohorts)) // per-cohort session counters
	var out []Request

	cycles := spec.Arrivals.Cycles
	if cycles < 1 {
		cycles = 1
	}
	// Piecewise-constant-rate Poisson process: exponential gaps within a
	// period, restarted at each boundary (memorylessness makes the restart
	// exact, not an approximation).
	var base time.Duration
	for cycle := 0; cycle < cycles; cycle++ {
		for _, period := range spec.Arrivals.Periods {
			end := base + period.Dur
			if period.StartsPerSec > 0 {
				t := base
				for {
					gap := time.Duration(rng.ExpFloat64() / period.StartsPerSec * float64(time.Second))
					t += gap
					if t >= end {
						break
					}
					ci := pickCohort(rng, spec.Cohorts, total)
					out = append(out, startSession(rng, spec.Cohorts[ci], sessions[ci], t)...)
					sessions[ci]++
				}
			}
			base = end
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].AtMicros < out[j].AtMicros })
	return out, nil
}

// pickCohort draws a cohort index proportional to weight.
func pickCohort(rng *rand.Rand, cohorts []Cohort, total float64) int {
	x := rng.Float64() * total
	for i, c := range cohorts {
		w := c.Weight
		if w == 0 {
			w = 1
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(cohorts) - 1
}

// startSession samples one full conversation: every turn's lengths and
// earliest-start offsets, up front, so generation stays single-pass
// deterministic.
func startSession(rng *rand.Rand, c Cohort, session int, start time.Duration) []Request {
	turns := c.Turns
	if turns < 1 {
		turns = 1
	}
	think := c.ThinkTime
	if think <= 0 {
		think = 30 * time.Second
	}
	clients := c.Clients
	if clients < 1 {
		clients = session + 1 // one client per session
	}
	prompt := c.Prompt.withDefaults(sharegpt.PromptMu, sharegpt.PromptSigma)
	output := c.Output.withDefaults(sharegpt.OutputMu, sharegpt.OutputSigma)

	reqs := make([]Request, 0, turns)
	at := start
	prefix := 0
	for turn := 0; turn < turns; turn++ {
		if turn > 0 {
			at += time.Duration(rng.ExpFloat64() * float64(think))
		}
		fresh := prompt.sample(rng)
		gen := output.sample(rng)
		reqs = append(reqs, Request{
			AtMicros:     int64(at / time.Microsecond),
			Cohort:       c.Name,
			Client:       session % clients,
			Session:      session,
			Turn:         turn,
			Model:        c.Model,
			Class:        c.Class,
			NewTokens:    fresh,
			PrefixTokens: prefix,
			PromptTokens: prefix + fresh,
			OutputTokens: gen,
		})
		prefix += fresh + gen
	}
	return reqs
}

// Stats summarizes a generated or replayed stream per cohort — the
// comparison basis for record/replay identity.
type Stats struct {
	Requests int           `json:"requests"`
	Sessions int           `json:"sessions"`
	Clients  int           `json:"clients"`
	Span     time.Duration `json:"span"`
	// PerCohort maps cohort name to its request count.
	PerCohort map[string]int `json:"per_cohort"`
}

// Summarize computes stream-level stats.
func Summarize(reqs []Request) Stats {
	st := Stats{PerCohort: make(map[string]int)}
	sessions := make(map[string]struct{})
	clients := make(map[string]struct{})
	for _, r := range reqs {
		st.Requests++
		st.PerCohort[r.Cohort]++
		sessions[fmt.Sprintf("%s/%d", r.Cohort, r.Session)] = struct{}{}
		clients[fmt.Sprintf("%s/%d", r.Cohort, r.Client)] = struct{}{}
		if at := r.At(); at > st.Span {
			st.Span = at
		}
	}
	st.Sessions = len(sessions)
	st.Clients = len(clients)
	return st
}
