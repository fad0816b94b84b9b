// Package sched is the gateway's pluggable request-scheduling layer: the
// three policy decisions on the serving request path, extracted from
// ingress.Gateway so each can be swapped independently.
//
//   - A Picker chooses which replica serves a request: round-robin,
//     least-loaded, session-affine (consistent hashing on a session key
//     so multi-turn chats reuse one replica's warm KV cache, with
//     least-loaded spill when the affine replica saturates), or prefix
//     (session affinity plus placement by each replica's published
//     prefix-membership sketch).
//   - Admission decides whether a request is served at all: the SLO
//     breaker sheds the lowest priority class while the gateway's rolling
//     p95 breaches a per-model latency objective (with hysteresis, so it
//     does not flap).
//   - A Queue orders requests held at the gateway (cold starts, dead
//     replica windows) by priority class: interactive work dequeues before
//     batch, FIFO within a class.
//
// This is the control point the paper's deployment experience and Chat AI
// (Doosthosseini et al.) both centralize at the front door: on a GPU-scarce
// HPC center, who gets admitted, who waits, and which replica serves are
// where the nodes are won or lost.
package sched

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Class is a request's priority class. Higher values dequeue first from
// the hold queue and survive SLO shedding longer.
type Class uint8

const (
	// ClassUnset resolves to the consumer's default (interactive).
	ClassUnset Class = iota
	// ClassBatch is throughput traffic: shed first under an SLO breach,
	// dequeued last from the hold queue.
	ClassBatch
	// ClassInteractive is latency-sensitive traffic: dequeued first,
	// never SLO-shed.
	ClassInteractive
)

// String renders the class name.
func (c Class) String() string {
	switch c {
	case ClassBatch:
		return "batch"
	case ClassInteractive:
		return "interactive"
	}
	return "unset"
}

// ParseClass resolves a priority class name. The empty string is
// ClassUnset (callers apply their own default).
func ParseClass(s string) (Class, error) {
	if c, ok := lookupClass(s); ok {
		return c, nil
	}
	return ClassUnset, fmt.Errorf("sched: unknown priority class %q (want %q or %q)", s, ClassInteractive, ClassBatch)
}

// ClassOf reads a priority class name by the rule every layer applies:
// "" is ClassUnset, a known name its class, and any other name ClassBatch —
// mislabeled traffic must not claim interactive priority. It does not
// allocate, and a name converted from bytes need not escape.
func ClassOf(name string) Class {
	if c, ok := lookupClass(name); ok {
		return c
	}
	return ClassBatch
}

// lookupClass is ParseClass without the error, so a name converted from
// bytes need not escape.
func lookupClass(s string) (Class, bool) {
	switch s {
	case "":
		return ClassUnset, true
	case "batch":
		return ClassBatch, true
	case "interactive":
		return ClassInteractive, true
	}
	return ClassUnset, false
}

// Or resolves ClassUnset to a default.
func (c Class) Or(def Class) Class {
	if c == ClassUnset {
		return def
	}
	return c
}

// Request carries the scheduling-relevant attributes of one client
// request, derived once at the front door and threaded through admission,
// holding, and picking.
type Request struct {
	// Model is the served-model route name from the request body.
	Model string
	// SessionKey groups requests of one conversation for affinity routing
	// ("" = no affinity; the picker falls back to least-loaded).
	SessionKey string
	// Class is the request's priority class.
	Class Class
	// TraceID is the client-supplied X-Trace-Id, if any. A non-empty
	// value forces the request to be traced end to end regardless of the
	// gateway recorder's sampling rate.
	TraceID string
	// TTFTTarget is the first-token latency objective for this request
	// (X-TTFT-Target-Micros header, else filled from the gateway's
	// per-class default). Zero means no target: the engine scheduler
	// treats the request as deadline-less background work.
	TTFTTarget time.Duration
	// PrefixKey is the chain key of the request's first full prompt
	// block (0 = unknown). The gateway computes it from the raw body for
	// cache-aware policies; the prefix picker tests it against each
	// replica's published prefix-membership sketch so conversations land
	// where their system prompt is already resident.
	PrefixKey uint64
	// Messages are the chat messages Describe scanned from the body, in
	// place (none when the scan declined the body): the gateway derives
	// PrefixKey from them without reading the body again.
	Messages Messages
	// Spilled is an out-parameter: the session-affine pickers set it when
	// this pick left the request's affine replica (saturation spill or a
	// sketch-guided placement elsewhere), so the gateway can fire an
	// async prefix warm-up at the new owner.
	Spilled bool
}

// Header keys clients (or a fronting router) use to carry scheduling
// attributes outside the JSON body.
const (
	SessionHeader  = "X-Session-Key"
	PriorityHeader = "X-Priority"
	// TTFTTargetHeader carries the request's first-token deadline budget
	// in integer microseconds; the gateway stamps it when forwarding so
	// the engine scheduler can derive an absolute deadline on arrival.
	TTFTTargetHeader = "X-TTFT-Target-Micros"
	// SLOBreachedHeader is set (to "1") by the gateway while its SLO
	// breaker is engaged, telling the engine scheduler to preempt running
	// batch work aggressively in favor of interactive deadlines.
	SLOBreachedHeader = "X-SLO-Breached"
	// WarmupHeader is set (to "1") on the gateway's prefix warm-up
	// submits: prefill-only requests fired at a session's new owner after
	// a spill or drain so the conversation's prefix blocks are resident
	// before its next real turn. The engine serves them as one-token
	// generations; they ride the batch class so they never displace
	// interactive work.
	WarmupHeader = "X-Warmup"
)

// bodyAttrs are the scheduling-relevant fields of an OpenAI-style
// inference body. session_id is the explicit session handle; the standard
// `user` field is the fallback affinity key (OpenAI defines it as a
// stable end-user identifier, which is exactly a KV-cache locality hint).
type bodyAttrs struct {
	Model     string `json:"model"`
	SessionID string `json:"session_id"`
	User      string `json:"user"`
	Priority  string `json:"priority"`
}

// Describe extracts a request's scheduling attributes: the model name from
// the body, the session key (X-Session-Key header, else the body's
// session_id, else its user field), and the priority class (X-Priority
// header, else the body's priority field). Unknown class names fail safe
// to ClassBatch — mislabeled traffic must not claim interactive priority.
// The error is non-nil only when the body is not valid JSON — header-borne
// attributes are still returned so a bound gateway can stay lenient while
// a router surfaces the 400.
//
// The body is read with ScanChat, which leaves the chat messages on the
// descriptor; a body the scan declines is decoded with encoding/json.
func Describe(header map[string]string, body []byte) (Request, error) {
	c, ok := ScanChat(body)
	var err error
	if !ok {
		c, err = decodeAttrs(body)
	}
	r := Request{Model: string(c.Model), Messages: c.Messages}
	r.TraceID = header[trace.Header]
	r.SessionKey = header[SessionHeader]
	if r.SessionKey == "" {
		r.SessionKey = string(c.SessionID)
	}
	if r.SessionKey == "" {
		r.SessionKey = string(c.User)
	}
	cls := header[PriorityHeader]
	if cls == "" {
		cls = string(c.Priority)
	}
	r.Class = ClassOf(cls)
	if v := header[TTFTTargetHeader]; v != "" {
		if us, perr := strconv.ParseInt(v, 10, 64); perr == nil && us > 0 {
			r.TTFTTarget = time.Duration(us) * time.Microsecond
		}
	}
	return r, err
}

// decodeAttrs is Describe's reading of a body ScanChat declines: the
// bodyAttrs encoding/json decodes, as a Chat over the decoded strings.
// When the body is not valid JSON, the fields decoded before the error
// come with it.
func decodeAttrs(body []byte) (Chat, error) {
	var a bodyAttrs
	jerr := json.Unmarshal(body, &a)
	c := Chat{Model: []byte(a.Model), SessionID: []byte(a.SessionID), User: []byte(a.User), Priority: []byte(a.Priority)}
	if jerr != nil {
		return c, fmt.Errorf("request body is not valid JSON (%v)", jerr)
	}
	return c, nil
}

// Candidate is one routable replica as the scheduling layer sees it:
// plain values the gateway fills for each decision. Pickers and Affine
// answer with an index into the candidate slice.
type Candidate struct {
	// Key is the backend's stable identity, the consistent-hashing site.
	Key string
	// Score is the routing load score (lower routes first): gateway
	// in-flight plus the queue depths from the last telemetry scrape.
	Score int
	// Snap points at the replica's last typed engine snapshot (never
	// nil). The zero value (KVBlocksTotal == 0) means "never scraped" —
	// pickers treat absent KV information as no signal, not as an empty
	// cache.
	Snap *telemetry.Snapshot
}
