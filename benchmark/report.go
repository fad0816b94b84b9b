package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricValue is one reported number with its unit and sample count.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
	// Missing marks a percentile the sample count does not support; Value
	// then holds the highest supported tail instead.
	Missing bool `json:"missing,omitempty"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// wallResult holds one iteration's wall-clock measurements.
type wallResult struct {
	SetupS       float64 `json:"setup_s"`
	MeasuredS    float64 `json:"measured_s"`
	WallUsPerReq float64 `json:"wall_us_per_req"`
	AllocsPerReq float64 `json:"allocs_per_req"`
	MaxRSSMB     float64 `json:"max_rss_mb"`
}

// iterResult is what one child process reports for one iteration.
type iterResult struct {
	Workload      string                 `json:"workload"`
	Seed          int64                  `json:"seed"`
	Pass          string                 `json:"pass,omitempty"`
	InputDigest   string                 `json:"input_digest"`
	OutcomeDigest string                 `json:"outcome_digest"`
	Sent          int                    `json:"sent"`
	Completed     int                    `json:"completed"`
	Shed          int                    `json:"shed"`
	Failed        int                    `json:"failed"`
	VirtualS      float64                `json:"virtual_s"`
	Metrics       map[string]metricValue `json:"metrics"`
	Wall          wallResult             `json:"wall"`
	Layers        map[string]float64     `json:"layers"`
	Ladder        []ladderStep           `json:"ladder,omitempty"`
	Checks        []checkResult          `json:"checks"`
	Errors        []string               `json:"errors,omitempty"`
}

// metricDef describes one end-to-end metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression.
	Bound float64
	// Listed marks the metrics BENCHMARK.json lists for comparing commits:
	// defined and never zero on every workload, and steady from run to run.
	// wall_us_per_req is left out: on a shared 2-vCPU machine the same
	// commit's wall time drifts by a quarter within minutes, so only
	// interleaved runs compare it.
	Listed bool
}

// endToEnd lists every end-to-end metric in report order; README.md
// defines each. setup_s, wall_us_per_req, allocs_per_req and max_rss_mb
// measure the simulator itself; the rest are in virtual time.
var endToEnd = []metricDef{
	{"ttft_p50_ms", "ms", "lower", 0.10, true},
	{"ttft_p99_ms", "ms", "lower", 0.25, true},
	{"itl_p50_ms", "ms", "lower", 0.15, false},
	{"itl_p99_ms", "ms", "lower", 0.15, false},
	{"slo_attainment", "share", "higher", 0.15, true},
	{"max_rate_rps", "req/s", "higher", 0, false},
	{"output_tok_s", "tok/s", "higher", 0.15, true},
	{"shed_frac", "share", "lower", 0.10, false},
	{"error_rate", "share", "lower", 0, false},
	{"node_s", "node-s", "lower", 0.15, true},
	{"cold_start_s", "s", "lower", 0.01, false},
	{"setup_s", "s", "lower", 0.25, true},
	{"wall_us_per_req", "us", "lower", 0.25, false},
	{"allocs_per_req", "count", "lower", 0.08, true},
	{"max_rss_mb", "MB", "lower", 0.20, true},
}

// layers are the attribution targets for CPU samples and allocations,
// named after the repository's modules; runtime takes anything without a
// frame of the repository's own code.
var layers = []string{"sim", "vhttp", "ingress", "sched", "vllm", "telemetry", "metrics", "trace", "autoscale", "core", "bench", "runtime"}

// moves names the end-to-end metric a change to a layer should move and
// the workload where it shows, keyed by layer or, where one metric of a
// layer moves something else, by metric (percentile suffix dropped).
// BENCHMARK.json's per-layer entries carry only a name, unit and
// direction, so this table is the record of the mapping; the report
// prints it and README.md mirrors it.
var moves = map[string]string{
	"sim":                      "wall_us_per_req on fleet-diurnal and stream-mixed",
	"vhttp":                    "wall_us_per_req on stream-mixed",
	"vhttp.self_ms":            "ttft_p50_ms on every workload",
	"ingress":                  "ttft_p99_ms on fleet-diurnal (hold) and chat-sessions (warm-ups); wall_us_per_req on fleet-diurnal",
	"sched":                    "ttft_p50_ms on chat-sessions (sketch, spill); shed_frac on fleet-diurnal (SLO sheds); wall_us_per_req and allocs_per_req on fleet-diurnal",
	"vllm":                     "wall_us_per_req on paper-sweep",
	"vllm.allocs_per_req":      "allocs_per_req on paper-sweep",
	"vllm.busy_frac":           "output_tok_s on paper-sweep",
	"vllm.tokens_per_step":     "output_tok_s on paper-sweep",
	"vllm.kv_peak_frac":        "output_tok_s on paper-sweep",
	"vllm.step_tw_frac":        "output_tok_s on paper-sweep",
	"vllm.step_decode_frac":    "output_tok_s on paper-sweep",
	"vllm.step_prefill_frac":   "output_tok_s on paper-sweep",
	"vllm.prefix_hit_rate":     "ttft_p50_ms on chat-sessions (and nothing on fleet-diurnal)",
	"vllm.cached_token_frac":   "ttft_p50_ms on chat-sessions (and nothing on fleet-diurnal)",
	"vllm.evictions_per_req":   "ttft_p50_ms on chat-sessions",
	"vllm.demotions_per_req":   "ttft_p50_ms on chat-sessions",
	"vllm.promotions_per_req":  "ttft_p50_ms on chat-sessions",
	"vllm.host_drops":          "ttft_p50_ms on chat-sessions",
	"vllm.prefill_ms":          "ttft_p50_ms on chat-sessions",
	"vllm.first_token_ms":      "ttft_p50_ms on chat-sessions",
	"vllm.queue_ms":            "ttft_p99_ms and max_rate_rps on stream-mixed",
	"vllm.preempt_ms":          "ttft_p99_ms and max_rate_rps on stream-mixed",
	"vllm.preemptions_per_req": "ttft_p99_ms and max_rate_rps on stream-mixed",
	"vllm.deadline_misses":     "ttft_p99_ms and max_rate_rps on stream-mixed",
	"vllm.decode_ms":           "itl_p99_ms on stream-mixed",
	"telemetry":                "wall_us_per_req on fleet-diurnal (nothing on paper-sweep)",
	"metrics":                  "wall_us_per_req on fleet-diurnal (nothing on paper-sweep)",
	"autoscale":                "node_s and ttft_p99_ms on fleet-diurnal",
	"core":                     "cold_start_s and setup_s on every workload",
	"bench":                    "nothing: it must stay small, or the numbers measure the load generator",
	"runtime":                  "wall_us_per_req and max_rss_mb on every workload",
	"trace":                    "nothing: tracing is off in the untraced runs",
	"total":                    "wall_us_per_req on every workload",
}

// movesFor looks a per-layer metric up in moves: by name, else by layer.
func movesFor(name string) string {
	for _, key := range []string{name, strings.TrimSuffix(strings.TrimSuffix(name, "_p50"), "_p99")} {
		if m, ok := moves[key]; ok {
			return m
		}
	}
	layer, _, _ := strings.Cut(name, ".")
	return moves[layer]
}

// perLayerJSON is the per-layer set the traced run reports on its last
// line: each layer's share of the measured phase's CPU and its
// allocations per request, plus the counts and ratios an optimisation of
// one layer is most likely to move. Shares stand in for per-layer CPU
// microseconds there: a layer a workload never enters reads exactly zero.
func perLayerJSON() []string {
	var out []string
	for _, l := range layers {
		out = append(out, l+".cpu_frac", l+".allocs_per_req")
	}
	return append(out,
		"total.cpu_us_per_req", "sim.events_per_req", "vhttp.calls_per_req",
		"vllm.busy_frac", "vllm.tokens_per_step", "vllm.kv_peak_frac", "vllm.prefix_hit_rate",
		"vllm.step_tw_frac", "vllm.step_decode_frac", "vllm.step_prefill_frac",
		"vllm.queue_ms_p99", "runtime.gc_cpu_frac", "trace.overhead_frac",
	)
}

// endToEnd computes the virtual-time end-to-end metrics every workload
// reports; scenarios override or add their own in finish.
func (it *iteration) endToEnd() {
	M := it.res.Metrics
	var ttft latency
	tokens, shedN, failN := 0, 0, 0
	for i := range it.recs {
		r := &it.recs[i]
		switch r.status {
		case statusOK:
			tokens += r.got
			if r.probe {
				ttft.add(r.ttft)
			}
		case statusShed:
			shedN++
		case statusFailed:
			failN++
		}
	}
	addLatency(M, "ttft", ttft)
	if len(it.cl.itl) > 0 {
		addLatency(M, "itl", it.cl.itl)
	}
	share, n := attainment(it.recs, it.w.slo, isProbe)
	M["slo_attainment"] = metricValue{Value: share, Unit: "share", N: n,
		Note: fmt.Sprintf("TTFT <= %s, TPOT <= %s", it.w.slo.TTFT, it.w.slo.TPOT)}
	sent := len(it.recs)
	M["shed_frac"] = metricValue{Value: float64(shedN) / float64(sent), Unit: "share", N: sent}
	M["error_rate"] = metricValue{Value: float64(failN) / float64(sent), Unit: "share", N: sent}
	span := it.end.Sub(it.start).Seconds()
	M["output_tok_s"] = metricValue{Value: float64(tokens) / span, Unit: "tok/s", N: sent - shedN - failN}
	M["node_s"] = metricValue{Value: it.nodeSeconds, Unit: "node-s", N: len(it.deployments)}
	M["cold_start_s"] = metricValue{Value: it.deployV.Seconds(), Unit: "s", N: 1}
}

// addLatency reports <name>_p50_ms and <name>_p99_ms under the percentile
// rule: a p99 needs 1,000 samples, else the highest supported tail stands
// in, marked missing.
func addLatency(M map[string]metricValue, name string, l latency) {
	if len(l) == 0 {
		return
	}
	p50, p99, ok99, tailPM, tail := l.summary()
	M[name+"_p50_ms"] = metricValue{Value: p50, Unit: "ms", N: len(l)}
	v := metricValue{Value: p99, Unit: "ms", N: len(l)}
	switch {
	case !ok99:
		v = metricValue{Value: tail, Unit: "ms", N: len(l), Missing: true,
			Note: fmt.Sprintf("fewer than 1,000 samples; %s shown", levelName(tailPM))}
	case tailPM > 990:
		v.Note = fmt.Sprintf("%s = %.3f", levelName(tailPM), tail)
	}
	M[name+"_p99_ms"] = v
}

// report aggregates a workload's iterations: virtual metrics from the
// first (every iteration must match it), wall metrics as medians.
type report struct {
	w        *mix
	iters    []*iterResult // untraced iterations
	setups   []*iterResult // set-up-only runs
	cpu, mem *iterResult   // the traced passes, when run
	metrics  map[string]metricValue
	layers   map[string]float64
	checks   []checkResult
}

func (rp *report) correct() bool {
	for _, c := range rp.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (rp *report) all() []*iterResult {
	out := append([]*iterResult(nil), rp.iters...)
	for _, r := range []*iterResult{rp.cpu, rp.mem} {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// aggregate fills the report from its iterations.
func (rp *report) aggregate() {
	base := rp.iters[0]
	all := rp.all()

	// Every check must pass in every iteration; report the first failure.
	index := map[string]int{}
	for _, r := range all {
		for _, c := range r.Checks {
			i, seen := index[c.Name]
			if !seen {
				index[c.Name] = len(rp.checks)
				rp.checks = append(rp.checks, c)
				continue
			}
			if rp.checks[i].OK && !c.OK {
				rp.checks[i] = c
			}
		}
	}
	sameIn, sameOut := true, true
	for _, r := range all {
		sameIn = sameIn && r.InputDigest == base.InputDigest
		sameOut = sameOut && r.OutcomeDigest == base.OutcomeDigest
	}
	for _, r := range rp.setups {
		sameIn = sameIn && r.InputDigest == base.InputDigest
	}
	rp.checks = append(rp.checks,
		checkResult{Name: "input digest identical across runs", OK: sameIn,
			Detail: fmt.Sprintf("%d runs, %s", len(all)+len(rp.setups), base.InputDigest)},
		checkResult{Name: "outcome digest identical across runs", OK: sameOut,
			Detail: fmt.Sprintf("%d runs, %s", len(all), base.OutcomeDigest)})

	rp.metrics = map[string]metricValue{}
	for k, v := range base.Metrics {
		rp.metrics[k] = v
	}
	n := len(rp.iters)
	wall := func(name, unit string, get func(w wallResult) float64) {
		vs := make([]float64, n)
		for i, r := range rp.iters {
			vs[i] = get(r.Wall)
		}
		rp.metrics[name] = metricValue{Value: median(vs), Unit: unit, N: n}
	}
	var setups []float64
	for _, rs := range [][]*iterResult{rp.iters, rp.setups} {
		for _, r := range rs {
			setups = append(setups, r.Wall.SetupS)
		}
	}
	rp.metrics["setup_s"] = metricValue{Value: median(setups), Unit: "s", N: len(setups)}
	wall("wall_us_per_req", "us", func(w wallResult) float64 { return w.WallUsPerReq })
	wall("allocs_per_req", "count", func(w wallResult) float64 { return w.AllocsPerReq })
	wall("max_rss_mb", "MB", func(w wallResult) float64 { return w.MaxRSSMB })

	// Accessor metrics come from the untraced run; the traced passes add
	// what only they measure.
	rp.layers = map[string]float64{}
	for k, v := range base.Layers {
		rp.layers[k] = v
	}
	for _, r := range []*iterResult{rp.cpu, rp.mem} {
		if r == nil {
			continue
		}
		for k, v := range r.Layers {
			if _, have := rp.layers[k]; !have {
				rp.layers[k] = v
			}
		}
	}
	if rp.cpu != nil {
		vs := make([]float64, n)
		for i, r := range rp.iters {
			vs[i] = r.Wall.MeasuredS
		}
		rp.layers["trace.overhead_frac"] = rp.cpu.Wall.MeasuredS/median(vs) - 1
	}
}

// print renders the human-readable report.
func (rp *report) print(w io.Writer) {
	base := rp.iters[0]
	fmt.Fprintf(w, "== %s  (workload seed %d, %d untraced run(s)) ==\n", rp.w.name, base.Seed, len(rp.iters))
	fmt.Fprintf(w, "why: %s\n", rp.w.why)
	fmt.Fprintf(w, "input digest %s   outcome digest %s\n", base.InputDigest, base.OutcomeDigest)
	fmt.Fprintf(w, "requests: sent %d, completed %d, shed %d, failed %d over %.1f virtual s\n",
		base.Sent, base.Completed, base.Shed, base.Failed, base.VirtualS)
	fmt.Fprintln(w, "end-to-end:")
	for _, d := range endToEnd {
		v, have := rp.metrics[d.Name]
		if !have {
			continue
		}
		val := formatValue(v.Value)
		if v.Missing {
			val = "n/a"
		}
		extra := ""
		if v.Note != "" {
			extra = "  " + v.Note
			if v.Missing {
				extra = fmt.Sprintf("  %s: %s", v.Note, formatValue(v.Value))
			}
		}
		fmt.Fprintf(w, "  %-18s %14s %-7s n=%-7d%s\n", d.Name, val, v.Unit, v.N, extra)
	}
	if len(base.Ladder) > 0 {
		fmt.Fprintln(w, "rate ladder:")
		for _, s := range base.Ladder {
			growth := ""
			if s.growing() {
				growth = "  (growing)"
			}
			fmt.Fprintf(w, "  %7.2f req/s  sent %-5d attainment %.3f  backlog %.0f then %.0f%s\n",
				s.Rate, s.Arrivals, s.Attain, s.BacklogMid, s.BacklogEnd, growth)
		}
	}
	fmt.Fprintln(w, "per-layer:")
	names := make([]string, 0, len(rp.layers))
	for k := range rp.layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %14s  moves %s\n", k, formatValue(rp.layers[k]), movesFor(k))
	}
	fmt.Fprintln(w, "checks:")
	for _, c := range rp.checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  %s %s (%s)\n", mark, c.Name, c.Detail)
	}
	for _, e := range base.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	fmt.Fprintln(w)
}

func formatValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.6f", v)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// jsonMetrics picks the metrics the last line carries: the end-to-end set
// BENCHMARK.json lists, or with tracing the per-layer set. prefix
// qualifies names when several workloads share one line.
func (rp *report) jsonMetrics(out map[string]metricValue, traced bool, prefix string) {
	if !traced {
		for _, d := range endToEnd {
			if v, have := rp.metrics[d.Name]; d.Listed && have {
				out[prefix+d.Name] = metricValue{Value: v.Value, Unit: v.Unit}
			}
		}
		return
	}
	for _, name := range perLayerJSON() {
		if v, have := rp.layers[name]; have {
			out[prefix+name] = metricValue{Value: v, Unit: layerUnit(name)}
		}
	}
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us_per_req"):
		return "us"
	case strings.HasSuffix(name, "_ms_p50"), strings.HasSuffix(name, "_ms_p99"), strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_rate"):
		return "share"
	}
	return "count"
}

func writeResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
