package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/vllm"
)

// TestMain lets the test binary stand in for the benchmark's own child
// processes: the coordinator re-executes its executable with -child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runQuick runs every workload at -quick scale through the coordinator
// and returns its standard output.
func runQuick(t *testing.T, seed int64, repeat int) string {
	t.Helper()
	var out bytes.Buffer
	if code := coordinate(options{seed: seed, quick: true, repeat: repeat}, &out); code != 0 {
		t.Fatalf("seed %d: exit code %d\n%s", seed, code, out.String())
	}
	return out.String()
}

var digestLine = regexp.MustCompile(`(?m)^== (\S+) .*\n.*\ninput digest (\w+)   outcome digest (\w+)$`)

// digests maps each workload to its input and outcome digests.
func digests(t *testing.T, out string) map[string][2]string {
	t.Helper()
	m := map[string][2]string{}
	for _, g := range digestLine.FindAllStringSubmatch(out, -1) {
		m[g[1]] = [2]string{g[2], g[3]}
	}
	if len(m) != len(workloads) {
		t.Fatalf("found digests for %d workloads, want %d:\n%s", len(m), len(workloads), out)
	}
	return m
}

func TestSmokeAllWorkloads(t *testing.T) {
	out := runQuick(t, 1, 2)
	if strings.Contains(out, "FAIL") {
		t.Fatalf("a correctness check failed:\n%s", out)
	}

	// Every end-to-end metric that applies is printed with its unit.
	for _, w := range workloads {
		i := strings.Index(out, "== "+w.name+" ")
		section := out[i:]
		section = section[:strings.Index(section, "\n\n")]
		for _, d := range endToEnd {
			if w.name != "stream-mixed" && (strings.HasPrefix(d.Name, "itl_") || d.Name == "max_rate_rps") {
				continue
			}
			line := regexp.MustCompile(`(?m)^  ` + d.Name + ` +\S+ ` + regexp.QuoteMeta(d.Unit) + ` +n=\d+`)
			if !line.MatchString(section) {
				t.Errorf("%s: metric %s not printed with unit %s:\n%s", w.name, d.Name, d.Unit, section)
			}
		}
	}

	// The last line is the JSON result carrying every listed metric.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			if d.Listed {
				if _, ok := res.Metrics[w.name+"."+d.Name]; !ok {
					t.Errorf("JSON result lacks %s.%s", w.name, d.Name)
				}
			}
		}
	}

	// The same seed gives the same digests, another seed other ones.
	same, other := digests(t, runQuick(t, 1, 1)), digests(t, runQuick(t, 2, 1))
	for w, d := range digests(t, out) {
		if same[w] != d {
			t.Errorf("%s: seed 1 digests %v then %v", w, d, same[w])
		}
		if other[w][0] == d[0] || other[w][1] == d[1] {
			t.Errorf("%s: seeds 1 and 2 share digests %v / %v", w, d, other[w])
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		level  int
		p99ok  bool
		anyOK  bool
		reason string
	}{
		{19, 0, false, false, "even the median needs 10 samples above it"},
		{20, 500, false, true, "median only"},
		{999, 950, false, true, "no p99 below 1,000 samples"},
		{1000, 990, true, true, "p99 at exactly 10 beyond"},
		{9999, 990, true, true, "no p99.9 below 10,000"},
		{10000, 999, true, true, "p99.9"},
	} {
		level, ok := tailLevel(c.n)
		if ok != c.anyOK || (ok && level != c.level) {
			t.Errorf("n=%d: level %d ok %v, want %d %v (%s)", c.n, level, ok, c.level, c.anyOK, c.reason)
		}
		var l latency
		for i := 0; i < c.n; i++ {
			l.add(time.Duration(i+1) * time.Millisecond)
		}
		_, p99, ok99, _, _ := l.summary()
		if ok99 != c.p99ok {
			t.Errorf("n=%d: p99 supported %v, want %v", c.n, ok99, c.p99ok)
		}
		if ok99 && p99 != float64(c.n-c.n/100) {
			t.Errorf("n=%d: p99 %v, want the nearest-rank %d", c.n, p99, c.n-c.n/100)
		}
	}
	if got := levelName(999); got != "p99.9" {
		t.Errorf("levelName(999) = %q", got)
	}
}

func TestSLOAccountingCountsShedAndFailedAsMisses(t *testing.T) {
	lim := sloLimits{TTFT: 100 * time.Millisecond, TPOT: 10 * time.Millisecond}
	ms := time.Millisecond
	recs := []record{
		{status: statusOK, ttft: 50 * ms, e2e: 140 * ms, got: 10}, // meets: TPOT 10ms
		{status: statusOK, ttft: 150 * ms, e2e: 200 * ms, got: 2}, // TTFT miss
		{status: statusOK, ttft: 50 * ms, e2e: 150 * ms, got: 9},  // TPOT 12.5ms miss
		{status: statusShed},   // shed: miss
		{status: statusFailed}, // failed: miss
		{status: statusOK, ttft: 10 * ms, e2e: 10 * ms, got: 1}, // one token: TTFT only
		{status: statusShed, class: sched.ClassBatch},           // not selected
	}
	share, sent := attainment(recs, lim, interactiveOrUnset)
	if sent != 6 || share != 2.0/6 {
		t.Fatalf("attainment %v of %d sent, want 2/6 of 6", share, sent)
	}
}

// interactiveOrUnset selects every request but batch ones.
func interactiveOrUnset(r *record) bool { return r.class != sched.ClassBatch }

func TestProbesAreEveryKthSelectedRequestByLength(t *testing.T) {
	I, B := sched.ClassInteractive, sched.ClassBatch
	reqs := []record{{class: I, want: 50}, {class: B, want: 5}, {class: I, want: 10},
		{class: I, want: 40}, {class: B, want: 15}, {class: I, want: 30}, {class: I, want: 20}}
	for _, sse := range []bool{false, true} {
		it := &iteration{w: &mix{sel: interactive, probeEvery: 2, sse: sse},
			recs: append([]record(nil), reqs...)}
		it.markProbes(newDigest())
		// By output length the interactive requests are 2, 6, 5, 3, 0:
		// probes are the 1st, 3rd and 5th of them.
		for i, r := range it.recs {
			probe := i == 2 || i == 5 || i == 0
			if r.probe != probe || r.stream != (probe || sse) {
				t.Errorf("sse %v, request %d: probe %v stream %v, want %v %v", sse, i, r.probe, r.stream, probe, probe || sse)
			}
		}
	}
}

func TestMaxRateLadder(t *testing.T) {
	flat := func(rate, attain float64) ladderStep {
		return ladderStep{Rate: rate, Attain: attain, Arrivals: 1000, BacklogMid: 100, BacklogEnd: 100}
	}
	grow := func(rate, attain, by float64) ladderStep {
		s := flat(rate, attain)
		s.BacklogEnd += by
		return s
	}
	// Slack is a fifth of the 500 arrivals in half a window: 100.
	if g := grow(1, 1, 100); g.growing() {
		t.Error("growth of exactly the slack counts as growing")
	}
	if g := grow(1, 1, 101); !g.growing() {
		t.Error("growth past the slack does not count as growing")
	}
	small := ladderStep{Arrivals: 20, BacklogMid: 0, BacklogEnd: 10}
	if small.growing() {
		t.Error("a growth of minBeyond on a tiny step counts as growing")
	}
	for _, c := range []struct {
		name  string
		steps []ladderStep
		rate  float64
		ok    bool
	}{
		{"highest passing step", []ladderStep{flat(10, 1), flat(20, 0.95), flat(30, 0.5)}, 20, true},
		{"attainment at the target passes", []ladderStep{flat(10, 1), flat(20, attainTarget)}, 20, true},
		{"growing backlog disqualifies", []ladderStep{flat(10, 1), grow(20, 1, 200)}, 10, true},
		{"a failing step below does not cap", []ladderStep{flat(10, 0.5), flat(20, 0.95)}, 20, true},
		{"none qualifies", []ladderStep{flat(10, 0.8), grow(20, 1, 500)}, 0, false},
	} {
		rate, ok := maxRate(c.steps)
		if rate != c.rate || ok != c.ok {
			t.Errorf("%s: maxRate = %v %v, want %v %v", c.name, rate, ok, c.rate, c.ok)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).Step":             "sim",
		"repro/internal/netsim.(*Fabric).Transfer":      "vhttp",
		"repro/internal/vhttp.(*Client).Do":             "vhttp",
		"repro/internal/ingress.(*Gateway).dispatch":    "ingress",
		"repro/internal/sched.Describe":                 "sched",
		"repro/internal/vllm.(*Engine).step.func1":      "vllm",
		"repro/internal/metrics.(*Rolling).prune":       "metrics",
		"repro/internal/slurm.(*Cluster).Submit":        "core",
		"repro/internal/workload.Generate":              "bench",
		"repro/benchmark.(*client).do":                  "bench",
		"main.(*iteration).stepUntil":                   "bench",
		"runtime.mallocgc":                              "",
		"encoding/json.Unmarshal":                       "",
		"repro/internal/autoscale.(*Autoscaler).tick":   "autoscale",
		"repro/internal/telemetry.Snapshot.Encode":      "telemetry",
		"repro/internal/trace.(*Recorder).Record":       "trace",
		"repro/internal/site.New":                       "core",
		"repro/internal/cruntime.(*Podman).Run.func2.1": "core",
	} {
		if got := layerOf(funcPackage(fn)); got != want {
			t.Errorf("%s: layer %q, want %q", fn, got, want)
		}
	}
	// The innermost repository frame wins; a stack without one is runtime.
	stack := []string{"runtime.memmove", "encoding/json.Marshal", "repro/internal/sched.Describe", "repro/internal/ingress.(*Router).Serve"}
	if got := layerOfStack(stack); got != "sched" {
		t.Errorf("stack attributed to %q, want sched", got)
	}
	if got := layerOfStack([]string{"runtime.gcBgMarkWorker"}); got != "runtime" {
		t.Errorf("runtime-only stack attributed to %q", got)
	}
}

//go:noinline
func spinBench(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

func spinVLLM(d time.Duration) (n int) {
	msgs := []vllm.ChatMessage{{Role: "user", Content: strings.Repeat("word ", 400)}}
	for end := time.Now().Add(d); time.Now().Before(end); {
		n += len(vllm.ChatPromptHashes(vllm.DefaultBlockSize, msgs))
	}
	return n
}

func TestCPUProfileAttribution(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinBench(300 * time.Millisecond)
	spinVLLM(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	byLayer, err := cpuByLayer(path)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range byLayer {
		total += v
	}
	if total == 0 {
		t.Fatal("no CPU samples decoded")
	}
	for _, l := range []string{"bench", "vllm"} {
		if share := float64(byLayer[l]) / float64(total); share < 0.2 {
			t.Errorf("layer %s got %.0f%% of %v CPU, want a large share (%v)", l, 100*share, time.Duration(total), byLayer)
		}
	}
	for l := range byLayer {
		if !knownLayer(l) {
			t.Errorf("CPU attributed to unknown layer %q", l)
		}
	}
}

func knownLayer(name string) bool {
	for _, l := range layers {
		if l == name {
			return true
		}
	}
	return false
}

// sink keeps allocations alive past the compiler's escape analysis.
var sink [][]byte

//go:noinline
func allocBench(n int) {
	for i := 0; i < n; i++ {
		sink = append(sink, make([]byte, 64))
	}
}

func TestAllocationAttribution(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	allocBench(1 << 14) // move past the sample point drawn at the old rate
	before := memProfile()
	const n = 5000
	allocBench(n)
	hashes := vllm.ChatPromptHashes(vllm.DefaultBlockSize, []vllm.ChatMessage{{Role: "user", Content: "hello there"}})
	byLayer := allocsByLayer(before, memProfile(), 1)
	sink = nil
	if byLayer["bench"] < n {
		t.Errorf("bench layer got %d allocations, want at least %d (%v)", byLayer["bench"], n, byLayer)
	}
	if byLayer["vllm"] == 0 {
		t.Errorf("vllm allocation not attributed (%v, %d hashes)", byLayer, len(hashes))
	}
}

func TestProtobufDecoderRejectsTruncation(t *testing.T) {
	// Field 2 (sample), length-delimited, claiming 5 bytes but holding 1.
	if _, err := parseProfile([]byte{0x12, 0x05, 0x08}); err == nil {
		t.Fatal("truncated message decoded without error")
	}
	// A valid empty message decodes to an empty profile.
	p, err := parseProfile(nil)
	if err != nil || len(p.samples) != 0 {
		t.Fatalf("empty profile: %v %v", p, err)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metric
// catalog in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q listed, %q defined", i, w.Name, workloads[i].name)
		}
	}
	var every []metricDef
	for _, d := range endToEnd {
		if d.Listed {
			every = append(every, d)
		}
	}
	if len(spec.EndToEnd) != len(every) {
		t.Fatalf("%d end-to-end metrics listed, %d defined", len(spec.EndToEnd), len(every))
	}
	for i, m := range spec.EndToEnd {
		d := every[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: listed %+v, defined %+v", i, m, d)
		}
	}
	names := perLayerJSON()
	if len(spec.PerLayer) != len(names) {
		t.Fatalf("%d per-layer metrics listed, %d reported", len(spec.PerLayer), len(names))
	}
	for i, m := range spec.PerLayer {
		if m.Name != names[i] || m.Unit != layerUnit(names[i]) {
			t.Errorf("per_layer %d: listed %s (%s), reported %s (%s)", i, m.Name, m.Unit, names[i], layerUnit(names[i]))
		}
		if mv := movesFor(m.Name); !namesMove(mv) {
			t.Errorf("per_layer %s: moves %q names no end-to-end metric and workload", m.Name, mv)
		}
	}
}

// namesMove reports whether a moves entry names an end-to-end metric and a
// workload, or says the layer should move nothing.
func namesMove(mv string) bool {
	if strings.HasPrefix(mv, "nothing") {
		return true
	}
	metric, workload := false, strings.Contains(mv, "every workload")
	for _, d := range endToEnd {
		metric = metric || strings.Contains(mv, d.Name)
	}
	for _, w := range workloads {
		workload = workload || strings.Contains(mv, w.name)
	}
	return metric && workload
}
