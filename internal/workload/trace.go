// JSONL trace format: line 1 is a header carrying the originating spec,
// every following line one Request in arrival order. The flat integer
// fields in Request make record → replay byte-stable, so a trace checked
// into an experiment directory reproduces the exact arrival process — per
// the paper's methodology, the workload is part of the artifact.
package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// traceHeader is the first JSONL line.
type traceHeader struct {
	Format string `json:"format"` // "workload-trace/v1"
	Spec   Spec   `json:"spec"`
}

const traceFormat = "workload-trace/v1"

// WriteTrace records a generated stream (and the spec that produced it).
func WriteTrace(w io.Writer, spec Spec, reqs []Request) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{Format: traceFormat, Spec: spec}); err != nil {
		return fmt.Errorf("workload: write trace header: %w", err)
	}
	for i := range reqs {
		if err := enc.Encode(&reqs[i]); err != nil {
			return fmt.Errorf("workload: write trace line %d: %w", i+2, err)
		}
	}
	return bw.Flush()
}

// ReadTrace replays a recorded trace: the spec from the header plus every
// request in recorded order. It rejects a header spec that Validate
// rejects and a request with a negative arrival offset, turn or token
// count, naming the line.
func ReadTrace(r io.Reader) (Spec, []Request, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	if !sc.Scan() {
		return Spec{}, nil, fmt.Errorf("workload: empty trace")
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return Spec{}, nil, fmt.Errorf("workload: bad trace header: %w", err)
	}
	if hdr.Format != traceFormat {
		return Spec{}, nil, fmt.Errorf("workload: unknown trace format %q", hdr.Format)
	}
	if err := hdr.Spec.Validate(); err != nil {
		return Spec{}, nil, fmt.Errorf("workload: bad trace header: %w", err)
	}
	var reqs []Request
	line := 1
	for sc.Scan() {
		line++
		var req Request
		err := json.Unmarshal(sc.Bytes(), &req)
		if err == nil {
			err = req.replayable()
		}
		if err != nil {
			return Spec{}, nil, fmt.Errorf("workload: bad trace line %d: %w", line, err)
		}
		reqs = append(reqs, req)
	}
	if err := sc.Err(); err != nil {
		return Spec{}, nil, fmt.Errorf("workload: read trace: %w", err)
	}
	return hdr.Spec, reqs, nil
}

// replayable rejects a request the replay cannot run: a negative arrival
// offset, turn or token count.
func (r *Request) replayable() error {
	switch {
	case r.AtMicros < 0:
		return fmt.Errorf("negative at_us %d", r.AtMicros)
	case r.Turn < 0:
		return fmt.Errorf("negative turn %d", r.Turn)
	case r.NewTokens < 0:
		return fmt.Errorf("negative new_tokens %d", r.NewTokens)
	case r.PrefixTokens < 0:
		return fmt.Errorf("negative prefix_tokens %d", r.PrefixTokens)
	case r.PromptTokens < 0:
		return fmt.Errorf("negative prompt_tokens %d", r.PromptTokens)
	case r.OutputTokens < 0:
		return fmt.Errorf("negative output_tokens %d", r.OutputTokens)
	}
	return nil
}

// Identical reports whether two streams match on the replay contract:
// same length, and per-position identical cohort, session/turn identity,
// arrival offset, and token shape.
func Identical(a, b []Request) error {
	if len(a) != len(b) {
		return fmt.Errorf("workload: stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("workload: streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}
