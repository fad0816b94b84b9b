package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// span is one line of spans.jsonl. Times are virtual microseconds since
// the simulation epoch; spans of one request share its trace id, and the
// client request span (span 0) is the parent of the gateway and engine
// stage spans.
type span struct {
	Trace   string `json:"trace"`
	Span    int    `json:"span"`
	Parent  int    `json:"parent"` // -1 for roots
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Err     string `json:"err,omitempty"`
}

func virtualUS(t time.Time) int64 { return t.Sub(sim.Epoch).Microseconds() }

// stageLayer names the layer that records each trace stage.
func stageLayer(s trace.Stage) string {
	switch s {
	case trace.StageAdmission, trace.StageHold, trace.StagePick, trace.StageDrain:
		return "ingress"
	}
	return "vllm"
}

// installTracing readies the traced pass: every request carries an
// X-Trace-Id, and each gateway keeps every settled trace.
func (it *iteration) installTracing() {
	it.cl.traced = true
	it.cl.engineTraces = map[int]*trace.Trace{}
	for _, gw := range it.gateways {
		gw.Tracer = &trace.Recorder{Capacity: len(it.recs) + 1, SlowN: -1}
	}
}

// writeSpans writes spans.jsonl for the traced pass and derives the
// per-layer stage latencies from the same spans.
func (it *iteration) writeSpans() error {
	traces := map[string]*trace.Trace{}
	for _, gw := range it.gateways {
		for _, t := range gw.Tracer.Recent() {
			traces[t.ID] = t
		}
	}
	for id, t := range it.cl.engineTraces {
		traces[traceID(id)] = t
	}
	f, err := os.Create(filepath.Join(it.dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	events := []span{
		{Trace: "setup", Span: 0, Parent: -1, Name: "core.seed", Layer: "core",
			StartUS: virtualUS(it.setupSpan[0]), EndUS: virtualUS(it.setupSpan[1])},
		{Trace: "setup", Span: 1, Parent: -1, Name: "core.deploy", Layer: "core",
			StartUS: virtualUS(it.setupSpan[1]), EndUS: virtualUS(it.setupSpan[2])},
	}
	if !it.drainSpan[0].IsZero() {
		events = append(events, span{Trace: "drain", Span: 0, Parent: -1, Name: "core.drain", Layer: "core",
			StartUS: virtualUS(it.drainSpan[0]), EndUS: virtualUS(it.drainSpan[1])})
	}
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}

	stages := map[trace.Stage]*latency{}
	var self latency
	untraced := 0
	for i := range it.recs {
		r := &it.recs[i]
		id := traceID(i)
		sent := it.start.Add(r.sent)
		root := span{Trace: id, Span: 0, Parent: -1, Name: "client.request", Layer: "bench",
			StartUS: virtualUS(sent), EndUS: virtualUS(sent.Add(r.e2e))}
		t := traces[id]
		if t == nil {
			untraced++
			root.Err = "no server-side trace"
		} else {
			root.Err = t.Err
		}
		if err := enc.Encode(root); err != nil {
			return err
		}
		if t == nil {
			continue
		}
		for j, s := range t.Spans {
			layer := stageLayer(s.Stage)
			if err := enc.Encode(span{Trace: id, Span: j + 1, Parent: 0, Name: layer + "." + s.Stage.String(),
				Layer: layer, StartUS: virtualUS(s.Start), EndUS: virtualUS(s.End)}); err != nil {
				return err
			}
			l := stages[s.Stage]
			if l == nil {
				l = &latency{}
				stages[s.Stage] = l
			}
			l.add(s.Dur())
		}
		if r.status == statusOK && t.Done() {
			// What the client saw beyond the server-side trace: the
			// virtual network hops.
			self.add(r.e2e - t.E2E())
		}
	}
	it.check("every request has a server-side trace", untraced == 0, "%d of %d untraced", untraced, len(it.recs))

	for s, l := range stages {
		addLayerLatency(it.res.Layers, stageLayer(s)+"."+s.String()+"_ms", *l)
	}
	addLayerLatency(it.res.Layers, "vhttp.self_ms", self)
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// addLayerLatency reports <name>_p50 and, when 1,000+ samples support it,
// <name>_p99.
func addLayerLatency(L map[string]float64, name string, l latency) {
	if len(l) == 0 {
		return
	}
	p50, p99, ok99, _, _ := l.summary()
	L[name+"_p50"] = p50
	if ok99 {
		L[name+"_p99"] = p99
	}
}
