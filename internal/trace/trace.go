// Package trace is the per-request distributed-tracing layer of the
// observability plane. A Trace is created at the gateway front door (or
// forced by a client-supplied X-Trace-Id header), propagated to the engine
// via that header, and accumulates one typed Span per request-path stage:
// admission wait, hold wait, replica pick, engine queue, prefill, first
// token, preempt (when the engine scheduler evicted the sequence), decode,
// and stream drain. The stages partition the end-to-end latency — every
// layer in the simulation shares one virtual clock, so cross-layer
// timestamps are directly comparable and the span durations sum to the
// client-observed E2E (modulo per-hop network latency, which tracing
// deliberately leaves unattributed; preempt overlaps queue+prefill of the
// re-run, so it is the one stage excluded from the sum).
//
// The package depends only on the standard library so every layer —
// sched, vhttp, vllm, ingress — can import it without cycles.
package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// Header is the HTTP header that propagates the trace ID across layers.
// A client that sets it forces the request to be traced regardless of the
// recorder's sampling rate, which is how operators trace one slow request
// on demand.
const Header = "X-Trace-Id"

// Path is the HTTP endpoint serving settled traces as JSON (gateway and
// router level): `?id=<trace-id>` fetches one trace, no query lists the
// recent ring and the slowest-trace flight recorder.
const Path = "/traces"

// Stage identifies one request-path stage. The values are ordered by
// position on the request path; a well-formed trace's spans appear in
// Stage order.
type Stage uint8

const (
	// StageAdmission is the gateway admission decision: request arrival
	// to the admitter verdict. Near-zero in virtual time unless the
	// admitter itself waits.
	StageAdmission Stage = iota
	// StageHold is time spent parked in the gateway hold queue waiting
	// for a routable replica (cold starts, saturation).
	StageHold
	// StagePick is the replica-selection decision. Instantaneous in
	// virtual time; recorded so the waterfall shows where the decision
	// happened and which replica won.
	StagePick
	// StageQueue is time waiting in the engine's admission queue before
	// the continuous batcher first schedules the sequence.
	StageQueue
	// StagePrefill is prompt processing: first engine step that runs the
	// sequence until the step that emits its first token begins.
	StagePrefill
	// StageFirstToken is the engine step that produced the first output
	// token.
	StageFirstToken
	// StagePreempt is time the sequence spent evicted from the running
	// batch by the deadline scheduler (recompute-style preemption): evict
	// to re-admission, or to failure if it never resumed. It overlaps the
	// re-run's queue/prefill work, so waterfall sums skip it.
	StagePreempt
	// StageDecode is token generation after the first token, up to
	// engine-side completion.
	StageDecode
	// StageDrain is the tail between engine completion and the client
	// finishing the response stream (SSE flush through gateway/router
	// hops). Zero for buffered responses.
	StageDrain

	numStages = iota
)

var stageNames = [numStages]string{
	"admission", "hold", "pick", "queue", "prefill", "first_token", "preempt", "decode", "drain",
}

// String returns the stable wire name of the stage.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// ParseStage maps a wire name back to its Stage.
func ParseStage(name string) (Stage, error) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), nil
		}
	}
	return 0, fmt.Errorf("unknown trace stage %q", name)
}

// Span is one timed stage of a request.
type Span struct {
	Stage Stage
	Start time.Time
	End   time.Time
}

// Dur returns the span duration.
func (s Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// Trace accumulates the spans of one request. It is built cooperatively:
// the gateway records admission/hold/pick/drain, the engine-side API
// server records queue/prefill/first_token/decode on its own Trace which
// the gateway merges at stream settle. No locking — the simulation's
// strict-handoff scheduler guarantees single-threaded access.
type Trace struct {
	ID       string
	Model    string
	Replica  string
	Class    string
	Streamed bool
	Retries  int
	Start    time.Time
	End      time.Time
	Err      string
	Spans    []Span
}

// Observe appends one stage span.
func (t *Trace) Observe(stage Stage, start, end time.Time) {
	if t == nil {
		return
	}
	t.Spans = append(t.Spans, Span{Stage: stage, Start: start, End: end})
}

// Merge folds another layer's spans into t, adopting identity fields the
// receiving layer could not know (which replica served, final class).
func (t *Trace) Merge(other *Trace) {
	if t == nil || other == nil {
		return
	}
	t.Spans = append(t.Spans, other.Spans...)
	if t.Replica == "" {
		t.Replica = other.Replica
	}
	if t.Model == "" {
		t.Model = other.Model
	}
	if t.Err == "" {
		t.Err = other.Err
	}
}

// Finish stamps the end of the request. An empty errMsg marks success.
func (t *Trace) Finish(end time.Time, errMsg string) {
	if t == nil {
		return
	}
	t.End = end
	if errMsg != "" {
		t.Err = errMsg
	}
}

// Done reports whether the trace has been finished.
func (t *Trace) Done() bool { return t != nil && !t.End.IsZero() }

// E2E is the end-to-end duration (zero until Finish).
func (t *Trace) E2E() time.Duration {
	if t == nil || t.End.IsZero() {
		return 0
	}
	return t.End.Sub(t.Start)
}

// SpanDur returns the duration of the first span for stage, and whether
// one was recorded.
func (t *Trace) SpanDur(stage Stage) (time.Duration, bool) {
	if t == nil {
		return 0, false
	}
	for _, s := range t.Spans {
		if s.Stage == stage {
			return s.Dur(), true
		}
	}
	return 0, false
}

// SpanEnd returns the end timestamp of the first span for stage.
func (t *Trace) SpanEnd(stage Stage) (time.Time, bool) {
	if t == nil {
		return time.Time{}, false
	}
	for _, s := range t.Spans {
		if s.Stage == stage {
			return s.End, true
		}
	}
	return time.Time{}, false
}

// Stages reports which stages have at least one span.
func (t *Trace) Stages() map[Stage]bool {
	out := make(map[Stage]bool, numStages)
	if t == nil {
		return out
	}
	for _, s := range t.Spans {
		out[s.Stage] = true
	}
	return out
}

// wire formats: spans carry offsets relative to the trace start so the
// JSON is readable (milliseconds, not absolute virtual timestamps), and
// the absolute start survives as microseconds since the Unix epoch.
type spanWire struct {
	Stage    string  `json:"stage"`
	OffsetMS float64 `json:"offset_ms"`
	DurMS    float64 `json:"dur_ms"`
}

type traceWire struct {
	ID          string     `json:"id"`
	Model       string     `json:"model,omitempty"`
	Replica     string     `json:"replica,omitempty"`
	Class       string     `json:"class,omitempty"`
	Streamed    bool       `json:"streamed,omitempty"`
	Retries     int        `json:"retries,omitempty"`
	StartMicros int64      `json:"start_micros"`
	E2EMS       float64    `json:"e2e_ms"`
	Err         string     `json:"err,omitempty"`
	Spans       []spanWire `json:"spans"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// MarshalJSON renders the trace in the wire format served on /traces.
func (t *Trace) MarshalJSON() ([]byte, error) {
	w := traceWire{
		ID: t.ID, Model: t.Model, Replica: t.Replica, Class: t.Class,
		Streamed: t.Streamed, Retries: t.Retries,
		StartMicros: t.Start.UnixMicro(), E2EMS: ms(t.E2E()), Err: t.Err,
		Spans: make([]spanWire, 0, len(t.Spans)),
	}
	for _, s := range t.Spans {
		w.Spans = append(w.Spans, spanWire{
			Stage:    s.Stage.String(),
			OffsetMS: ms(s.Start.Sub(t.Start)),
			DurMS:    ms(s.Dur()),
		})
	}
	return json.Marshal(w)
}

// UnmarshalJSON reconstructs a trace from the wire format. Span
// timestamps are rebuilt from the start offset at microsecond precision.
func (t *Trace) UnmarshalJSON(data []byte) error {
	var w traceWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	start := time.UnixMicro(w.StartMicros).UTC()
	*t = Trace{
		ID: w.ID, Model: w.Model, Replica: w.Replica, Class: w.Class,
		Streamed: w.Streamed, Retries: w.Retries,
		Start: start, Err: w.Err,
	}
	if w.E2EMS > 0 || len(w.Spans) > 0 {
		t.End = start.Add(time.Duration(w.E2EMS * float64(time.Millisecond)))
	}
	for _, sw := range w.Spans {
		stage, err := ParseStage(sw.Stage)
		if err != nil {
			return err
		}
		s0 := start.Add(time.Duration(sw.OffsetMS * float64(time.Millisecond)))
		t.Spans = append(t.Spans, Span{
			Stage: stage,
			Start: s0,
			End:   s0.Add(time.Duration(sw.DurMS * float64(time.Millisecond))),
		})
	}
	return nil
}

// Waterfall renders the trace as a text stage waterfall: one row per
// span, offset-indented bars scaled to the end-to-end duration. The
// output is what `genaictl trace` and `genaictl bench -trace` print.
func (t *Trace) Waterfall() string {
	if t == nil {
		return "(no trace)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s  model=%s replica=%s class=%s", t.ID, t.Model, t.Replica, t.Class)
	if t.Streamed {
		b.WriteString(" streamed")
	}
	if t.Retries > 0 {
		fmt.Fprintf(&b, " retries=%d", t.Retries)
	}
	if t.Err != "" {
		fmt.Fprintf(&b, " err=%q", t.Err)
	}
	fmt.Fprintf(&b, "  e2e=%s\n", t.E2E().Round(time.Microsecond))
	total := t.E2E()
	if total <= 0 {
		// Unfinished or zero-length: scale to the span extent instead.
		for _, s := range t.Spans {
			if d := s.End.Sub(t.Start); d > total {
				total = d
			}
		}
	}
	const width = 40
	for _, s := range t.Spans {
		off, dur := s.Start.Sub(t.Start), s.Dur()
		lead, fill := 0, 0
		if total > 0 {
			lead = int(float64(off) / float64(total) * width)
			fill = int(float64(dur)/float64(total)*width + 0.5)
		}
		if lead > width {
			lead = width
		}
		if fill < 1 {
			fill = 1
		}
		if lead+fill > width {
			fill = width - lead
			if fill < 1 {
				fill, lead = 1, width-1
			}
		}
		bar := strings.Repeat(" ", lead) + strings.Repeat("#", fill) + strings.Repeat(" ", width-lead-fill)
		fmt.Fprintf(&b, "  %-12s |%s| %10s  @%s\n",
			s.Stage, bar, dur.Round(time.Microsecond), off.Round(time.Microsecond))
	}
	return b.String()
}
