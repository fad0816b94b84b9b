// Command benchmark is this repository's performance benchmark: four
// workloads that deploy fleets through the public core API on the full
// simulated site and drive them with the benchmark's own client. It
// reports virtual-time serving metrics (what the simulated fleet would
// show a user) and the wall-clock cost of producing them, checks every
// output, and with -trace attributes CPU and allocations to layers.
//
//	go run . -seed 1                      # all four workloads, one run each
//	go run . -workload fleet-diurnal -seconds 10
//	go run . -seed 1 -trace /tmp/traces   # adds the traced passes
//
// Each run of a workload is a fresh child process; the coordinator repeats
// runs until -seconds have passed (and at least -repeat runs), reports
// virtual metrics from the first run after checking every run produced the
// same outcome digest, and reports wall-clock metrics as medians. The last
// line of standard output is a JSON summary.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// processStart approximates process start: package variables initialise
// before main runs.
var processStart = time.Now()

type options struct {
	seed     int64
	workload string
	seconds  float64
	trace    string
	repeat   int
	quick    bool
	// Child-process flags, set by the coordinator.
	child string // "run", passCPU or passMem
	dir   string
}

// defaultTraceDir is where -trace 1 writes, relative to the working
// directory (the checkout root when run through run.sh).
const defaultTraceDir = ".bench_build/trace"

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.Int64Var(&o.seed, "seed", 1, "input seed; each workload derives its own from it")
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all, one after another)")
	fs.Float64Var(&o.seconds, "seconds", 0, "keep repeating each workload's run until this much wall time has passed")
	fs.StringVar(&o.trace, "trace", "", "traced passes: a directory for spans.jsonl and cpu.pprof, 1 for "+defaultTraceDir+", 0 or empty for none")
	fs.IntVar(&o.repeat, "repeat", 1, "minimum runs per workload; their outcome digests must agree")
	fs.BoolVar(&o.quick, "quick", false, "tiny inputs (smoke test scale)")
	fs.StringVar(&o.child, "child", "", "internal: run one iteration in this process")
	fs.StringVar(&o.dir, "dir", "", "internal: traced pass output directory")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if o.workload != "" {
		if _, err := workloadByName(o.workload); err != nil {
			return o, err
		}
	}
	switch o.trace {
	case "0":
		o.trace = ""
	case "1":
		o.trace = defaultTraceDir
	}
	if o.repeat < 1 {
		o.repeat = 1
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if o.child != "" {
		os.Exit(childMain(o))
	}
	os.Exit(coordinate(o, os.Stdout))
}

// workloadSeed derives a workload's input seed from the run seed, so each
// workload's inputs change with -seed independently of the others.
func workloadSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte(strconv.FormatInt(seed, 10)))
	return int64(h.Sum64() >> 1)
}

// childMain runs one iteration and prints its result as one JSON line.
func childMain(o options) int {
	if o.child == passMem {
		runtime.MemProfileRate = memProfileRate
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	pass := o.child
	if pass == "run" {
		pass = ""
	}
	it := &iteration{w: w, sc: w.build(o.quick), seed: workloadSeed(o.seed, w.name),
		pass: pass, dir: o.dir, began: processStart}
	res, err := it.execute()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// childLimit bounds one child process, so a wedged run cannot keep the
// benchmark from exiting. The longest run, a traced pass of fleet-diurnal,
// takes under a minute on a 2-vCPU VM.
const childLimit = 150 * time.Second

// coordinate runs the selected workloads, prints their reports, and ends
// with the JSON summary line. It returns the process exit code.
func coordinate(o options, out io.Writer) int {
	selected := workloads
	if o.workload != "" {
		w, _ := workloadByName(o.workload)
		selected = []*mix{w}
	}
	sum := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		rp, err := runWorkload(o, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		rp.print(out)
		prefix := ""
		if len(selected) > 1 {
			prefix = w.name + "."
		}
		rp.jsonMetrics(sum.Metrics, o.trace != "", prefix)
		for _, r := range rp.all() {
			sum.Attempted += r.Sent
			sum.Failed += r.Failed
		}
		sum.Correct = sum.Correct && rp.correct()
	}
	if err := writeResult(out, sum); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !sum.Correct {
		return 1
	}
	return 0
}

// setupRuns is how many set-up-only runs follow a workload's untraced
// runs. A set-up takes tens of milliseconds, so one sample per run would
// make setup_s jitter; the median over several does not.
const setupRuns = 5

// runWorkload repeats untraced runs of w until the time and repeat budgets
// are met, times setupRuns more set-ups, runs the traced passes when
// asked, and aggregates them.
func runWorkload(o options, w *mix) (*report, error) {
	rp := &report{w: w}
	t0 := time.Now()
	for len(rp.iters) < o.repeat || time.Since(t0).Seconds() < o.seconds {
		r, err := spawn(o, w, "run", "")
		if err != nil {
			return nil, err
		}
		rp.iters = append(rp.iters, r)
	}
	n := setupRuns
	if o.quick {
		n = 1
	}
	for i := 0; i < n; i++ {
		r, err := spawn(o, w, passSetup, "")
		if err != nil {
			return nil, err
		}
		rp.setups = append(rp.setups, r)
	}
	if o.trace != "" {
		dir := filepath.Join(o.trace, w.name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		if rp.cpu, err = spawn(o, w, passCPU, dir); err != nil {
			return nil, err
		}
		if rp.mem, err = spawn(o, w, passMem, ""); err != nil {
			return nil, err
		}
	}
	rp.aggregate()
	return rp, nil
}

// spawn runs one iteration in a child process, killed after childLimit,
// and decodes its result.
func spawn(o options, w *mix, pass, dir string) (*iterResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", pass, "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10)}
	if o.quick {
		args = append(args, "-quick")
	}
	if dir != "" {
		args = append(args, "-dir", dir)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childLimit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(min(2, runtime.NumCPU())))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s run: %w", pass, err)
	}
	var r iterResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s run: bad result: %w", pass, err)
	}
	return &r, nil
}
