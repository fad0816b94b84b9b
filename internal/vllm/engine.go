// Package vllm simulates the vLLM inference engine: a PagedAttention-style
// block KV cache, a continuous-batching scheduler with chunked prefill and
// preemption-by-recompute, tensor/pipeline parallel execution with a
// calibrated step-time model, an OpenAI-compatible API service, startup cost
// modeling (weight load + warmup), and fault injection for the multi-node
// flakiness the paper reports.
package vllm

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/hw"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config mirrors the vLLM serve flags that matter to capacity and speed.
type Config struct {
	Model *llm.ModelSpec
	GPU   hw.GPUModel

	TensorParallel   int // --tensor-parallel-size
	PipelineParallel int // --pipeline-parallel-size (1 = single node)
	GPUsPerNode      int // topology hint for the comm penalty; 0 = TP size

	MaxModelLen      int     // --max-model-len; 0 = model native maximum
	GPUMemUtil       float64 // --gpu-memory-utilization (default 0.9)
	MaxNumSeqs       int     // --max-num-seqs (default 1024)
	BlockSize        int     // tokens per KV block (default 16)
	MaxBatchedTokens int     // per-step prefill token budget (default 8192)
	// NoPrefixCache disables automatic prefix caching (vLLM's
	// --no-enable-prefix-caching; the zero value matches vLLM v1's
	// default-on behaviour).
	NoPrefixCache bool
	// NumGPUBlocksOverride pins the KV block count instead of deriving it
	// from GPU memory (vLLM's --num-gpu-blocks-override; 0 = computed).
	// Still subject to the max-model-len fit gate.
	NumGPUBlocksOverride int
	// SchedulerPolicy selects the waiting-queue order: SchedulerDeadline
	// (default) or SchedulerFCFS (the pre-deadline baseline).
	SchedulerPolicy string
	// CPUOffloadBlocks sizes the host-memory KV spill tier in blocks
	// (--cpu-offload-blocks; 0 disables tiering): LRU-demoted unreferenced
	// prefix blocks park there instead of being dropped, and a prefix hit
	// against a parked block re-promotes it at KVTransferMicros per block.
	CPUOffloadBlocks int
	// KVTransferMicros is the per-block host→GPU promotion cost in
	// microseconds (--kv-transfer-micros; 0 = DefaultKVTransferMicros).
	// Worth paying whenever it undercuts the block's prefill cost
	// (BlockSize · Tpf — ~192µs for a 16-token block on H100).
	KVTransferMicros int
}

// DefaultBlockSize is the KV block granularity when Config.BlockSize is
// unset — 16 tokens, vLLM's default. Cache-aware ingress policies hash
// request prefixes at this granularity to match the engines' block keys.
const DefaultBlockSize = 16

// DefaultKVTransferMicros is the default per-block host→GPU transfer
// cost: a 16-token block of a mid-size model is a few MiB of KV, a
// ~25µs PCIe gen5 move — an order of magnitude under its prefill cost.
const DefaultKVTransferMicros = 25

func (c *Config) withDefaults() Config {
	out := *c
	if out.TensorParallel <= 0 {
		out.TensorParallel = 1
	}
	if out.PipelineParallel <= 0 {
		out.PipelineParallel = 1
	}
	if out.GPUsPerNode <= 0 {
		out.GPUsPerNode = out.TensorParallel
	}
	if out.MaxModelLen <= 0 {
		out.MaxModelLen = out.Model.MaxContextLen
	}
	if out.GPUMemUtil <= 0 {
		out.GPUMemUtil = 0.9
	}
	if out.MaxNumSeqs <= 0 {
		out.MaxNumSeqs = 1024
	}
	if out.BlockSize <= 0 {
		out.BlockSize = DefaultBlockSize
	}
	if out.MaxBatchedTokens <= 0 {
		out.MaxBatchedTokens = 8192
	}
	if out.SchedulerPolicy == "" {
		out.SchedulerPolicy = SchedulerDeadline
	}
	if out.KVTransferMicros <= 0 {
		out.KVTransferMicros = DefaultKVTransferMicros
	}
	return out
}

// CapacityError describes a configuration the hardware cannot hold, with the
// vLLM-style message users see.
type CapacityError struct{ Msg string }

func (e *CapacityError) Error() string { return e.Msg }

// PlanCapacity validates cfg against GPU memory and returns the number of KV
// blocks available. It reproduces vLLM's two startup gates: weights must fit
// per GPU, and the KV cache must hold at least one max-model-len sequence
// (why Scout's 10M default context needs --max-model-len, §3.2).
func PlanCapacity(cfg Config) (blocks int, err error) {
	c := cfg.withDefaults()
	world := c.TensorParallel * c.PipelineParallel
	weightsPerGPU := float64(c.Model.WeightBytes()) / float64(world)
	budgetPerGPU := float64(c.GPU.MemBytes)*c.GPUMemUtil - float64(llm.RuntimeOverheadBytes)
	if weightsPerGPU > budgetPerGPU {
		return 0, &CapacityError{fmt.Sprintf(
			"torch.OutOfMemoryError: CUDA out of memory: model weights need %.1f GiB/GPU but %.1f GiB usable on %s (world size %d)",
			weightsPerGPU/float64(hw.GiB), budgetPerGPU/float64(hw.GiB), c.GPU.Name, world)}
	}
	kvBytes := (budgetPerGPU - weightsPerGPU) * float64(world)
	tokens := int(kvBytes / float64(c.Model.KVBytesPerToken()))
	blocks = tokens / c.BlockSize
	needed := (c.MaxModelLen + c.BlockSize - 1) / c.BlockSize
	if blocks < needed {
		return 0, &CapacityError{fmt.Sprintf(
			"ValueError: The model's max seq len (%d) is larger than the maximum number of tokens that can be stored in KV cache (%d). Try increasing gpu_memory_utilization or decreasing max_model_len",
			c.MaxModelLen, blocks*c.BlockSize)}
	}
	return blocks, nil
}

// Request is one generation request moving through the engine. It is the
// engine's one record per request: its done signal and its scheduler
// sequence are fields, so SubmitOpts allocates only the record and its ID.
type Request struct {
	ID     string
	Prompt int // prompt tokens
	MaxNew int // output token budget

	Arrived    time.Time
	FirstToken time.Time
	Finished   time.Time
	Generated  int
	// CachedTokens is how many prompt tokens were served from the prefix
	// cache instead of being prefilled (0 without a cache hit).
	CachedTokens int
	Err          error

	done sim.Signal
	seq  sequence
}

// SubmitOptions carries the optional request attributes beyond the token
// counts: the prompt's prefix-block hashes (enabling automatic prefix
// caching) and the scheduling class (telemetry accounting).
type SubmitOptions struct {
	Prompt int
	MaxNew int
	// PromptHashes are the chained per-full-block keys of the prompt (see
	// ChatPromptHashes); nil bypasses the prefix cache.
	PromptHashes []uint64
	// Class is the request's priority class name ("interactive", "batch",
	// "" = unset), surfaced in the telemetry snapshot's class breakdown.
	Class string
	// OnToken, when non-nil, is invoked from the engine loop each time the
	// request produces a token (n = tokens generated so far, starting at 1
	// for the first token emitted at prefill completion). This is the
	// incremental-decode hook the streaming API rides: the callback runs on
	// the scheduler's process and must not block or park — push into a
	// vhttp.BodyStream, fire a signal, append to a slice.
	OnToken func(r *Request, n int)
	// Trace, when non-nil, receives the engine-side stage spans of a
	// traced request: queue wait, prefill, the first-token step, preempt
	// (when the scheduler evicted the sequence), and decode. The engine
	// appends spans as stages complete; the submitter owns the Trace and
	// reads it after Done fires (or, for streamed responses, at stream
	// settle — decode is recorded at engine finish, which precedes the
	// final chunk's delivery).
	Trace *trace.Trace
	// TTFTTarget is the request's first-token latency objective. The
	// deadline scheduler derives an absolute deadline (arrival + target)
	// from it: urgency grows hyperbolically as the deadline nears, a
	// first token landing past it counts as a deadline miss, and an
	// at-risk non-batch request may preempt running batch work. Zero
	// means no target — the request ages on a long synthetic horizon.
	TTFTTarget time.Duration
	// SLOBreach marks that the gateway's SLO breaker was engaged when
	// the request was forwarded: the deadline scheduler then preempts
	// for this request without waiting for its deadline to be provably
	// at risk.
	SLOBreach bool
}

// Done fires when the request finishes (successfully or with Err set).
func (r *Request) Done() *sim.Signal { return &r.done }

// TTFT is the time to first token (0 until produced).
func (r *Request) TTFT() time.Duration {
	if r.FirstToken.IsZero() {
		return 0
	}
	return r.FirstToken.Sub(r.Arrived)
}

// Latency is the end-to-end duration (0 until finished).
func (r *Request) Latency() time.Duration {
	if r.Finished.IsZero() {
		return 0
	}
	return r.Finished.Sub(r.Arrived)
}

type seqState int

const (
	seqWaiting seqState = iota
	seqRunning
	seqDone
)

// preSpan is a buffered preempt interval of a traced sequence: recorded at
// resume, flushed into the trace just before its decode span so the span
// list stays in stage order.
type preSpan struct{ start, end time.Time }

type sequence struct {
	req *Request
	kv  seqKV // KV blocks the sequence holds
	// computed counts the tokens that need no more prefill. A prefix hit
	// starts it at the cached tokens, a prefill chunk advances it, each
	// emitted token adds one to it as to req.Generated, and an eviction
	// resets it to 0.
	computed  int
	state     seqState
	preempted int
	hashes    []uint64 // prompt prefix-block keys (nil = uncacheable)
	class     string   // priority class name for scheduling + telemetry
	onToken   func(r *Request, n int)
	tr        *trace.Trace // request trace (nil = untraced)
	startedAt time.Time    // first admission into the running batch

	// Deadline-scheduler state.
	arrival     int       // admission sequence number: the FIFO tiebreak
	deadline    time.Time // arrival + TTFT target (synthetic when no target)
	hasTarget   bool      // an explicit TTFT target backs the deadline
	sloBoost    bool      // forwarded under an engaged SLO breaker
	urg         float64   // cached urgency key (see waitQueue.rekey)
	plan        int       // this step's planned prefill chunk
	preemptedAt time.Time // eviction time; zero while running/fresh
	preSpans    []preSpan // settled preempt intervals (traced seqs only)
}

// pending is how many tokens s must still prefill: its prompt when fresh,
// its prompt and generated tokens after an eviction, less what is
// computed. A running sequence decodes once nothing is pending.
func (s *sequence) pending() int { return s.req.Prompt + s.req.Generated - s.computed }

// Stats aggregates engine counters.
type Stats struct {
	Steps        int
	Completed    int
	Failed       int
	Preemptions  int
	TokensOut    int64
	PeakKVBlocks int
	PeakRunning  int
	LeakedBlocks int
	BusyTime     time.Duration
	// Deadline-scheduler counters: first tokens landing past their TTFT
	// deadline, preempted sequences re-admitted to the batch, and the
	// most times any single sequence has been preempted (the
	// anti-starvation bound the regression suite asserts on).
	DeadlineMisses  int
	Resumes         int
	PeakSeqPreempts int
	// PrefixStats holds the prefix-cache counters (zero with caching
	// disabled, the tier ones zero without a host tier).
	PrefixStats
}

// Faults injects the failure modes from §3.5 and §3.3.
type Faults struct {
	// CrashAfterCompleted crashes the engine once this many requests have
	// finished (models the Fig 12 run-1 crash mid-sweep). 0 disables.
	CrashAfterCompleted int
	// CrashAfter crashes the engine this long after Start (models the
	// scheduled-downtime termination of Fig 12 run 3). 0 disables.
	CrashAfter time.Duration
	// LeakBlocksPerStep permanently leaks KV blocks each step (the
	// "memory leak bug" of §3.3); the engine eventually crashes OOM.
	LeakBlocksPerStep int
}

// Engine is a running vLLM scheduler instance.
type Engine struct {
	sim    *sim.Engine
	cfg    Config
	perf   Params
	kv     *KVCache
	idx    *PrefixIndex // stays empty with prefix caching disabled
	faults Faults

	wq      waitQueue
	running []*sequence
	seqNum  int

	loop     *sim.Proc
	crashed  bool
	crashErr error
	onCrash  []func(error)
	// idle wakes the loop parked with no work. It is reset before each
	// park, so firing it while the loop runs posts nothing.
	idle sim.Signal

	stats       Stats
	missByClass map[string]int    // deadline misses by class (lazy)
	latencies   metrics.Histogram // completed request latencies (ms), 5-minute window

	// transfer is the per-block host→GPU promotion cost charged to the
	// step that admitted against a demoted block.
	transfer time.Duration
	// winHits/winMisses are the trailing-window prefix lookup counters —
	// the freshness-weighted hit-rate signal placement consults, recorded
	// at successful admission so blocked-head retries do not inflate them.
	winHits   metrics.WindowCounter
	winMisses metrics.WindowCounter
}

// New validates capacity and builds an engine (not yet processing; call Run).
func New(simEng *sim.Engine, cfg Config) (*Engine, error) {
	c := cfg.withDefaults()
	blocks, err := PlanCapacity(c)
	if err != nil {
		return nil, err
	}
	if c.NumGPUBlocksOverride > 0 {
		blocks = c.NumGPUBlocksOverride
		if needed := (c.MaxModelLen + c.BlockSize - 1) / c.BlockSize; blocks < needed {
			return nil, &CapacityError{fmt.Sprintf(
				"ValueError: --num-gpu-blocks-override=%d cannot hold one max_model_len (%d) sequence (%d blocks needed)",
				blocks, c.MaxModelLen, needed)}
		}
	}
	switch c.SchedulerPolicy {
	case SchedulerDeadline, SchedulerFCFS:
	default:
		return nil, fmt.Errorf("vllm: unknown scheduler policy %q (want %q or %q)",
			c.SchedulerPolicy, SchedulerDeadline, SchedulerFCFS)
	}
	kv := NewKVCache(blocks, c.BlockSize)
	e := &Engine{
		sim:      simEng,
		cfg:      c,
		perf:     LookupParams(c.Model, c.GPU, c.TensorParallel, c.PipelineParallel, c.GPUsPerNode),
		kv:       kv,
		idx:      NewPrefixIndex(kv),
		wq:       waitQueue{fcfs: c.SchedulerPolicy == SchedulerFCFS},
		transfer: time.Duration(c.KVTransferMicros) * time.Microsecond,
	}
	e.idle.Init(simEng)
	if !c.NoPrefixCache {
		e.idx.EnableHostTier(c.CPUOffloadBlocks)
	}
	return e, nil
}

// Config returns the effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// KV exposes the block allocator (tests, metrics endpoints).
func (e *Engine) KV() *KVCache { return e.kv }

// Prefix exposes the prefix-cache index. With caching disabled it stays
// empty: no sequence carries block keys and no host tier attaches.
func (e *Engine) Prefix() *PrefixIndex { return e.idx }

// Stats returns a snapshot of engine counters, prefix-cache counters
// folded in.
func (e *Engine) Stats() Stats {
	st := e.stats
	st.PrefixStats = e.idx.Stats()
	return st
}

// LatencyP95 returns the p95 of request latencies completed over the
// trailing five minutes.
func (e *Engine) LatencyP95() time.Duration {
	return time.Duration(e.latencies.Quantile(e.sim.Now(), 0.95) * float64(time.Millisecond))
}

// Telemetry assembles the engine's typed load snapshot — the structured
// signal the gateway, pickers, and autoscaler consume in place of scraping
// the Prometheus text surface. Identity fields (model, replica) are the
// serving layer's to fill.
func (e *Engine) Telemetry() telemetry.Snapshot {
	st := e.Stats()
	snap := telemetry.Snapshot{
		Waiting:         len(e.wq.seqs),
		Running:         len(e.running),
		RunningByClass:  e.ClassCounts(),
		WaitingByClass:  e.WaitingClassCounts(),
		KVBlocksTotal:   e.kv.TotalBlocks(),
		KVBlocksUsed:    e.kv.UsedBlocks(),
		PrefixHits:      st.PrefixHits,
		PrefixMisses:    st.PrefixMisses,
		PrefixEvictions: st.PrefixEvictions,
		CachedTokens:    st.CachedTokens,
		P95Millis:       float64(e.LatencyP95()) / float64(time.Millisecond),
		Completed:       st.Completed,
		Failed:          st.Failed,
		TokensOut:       st.TokensOut,
		DeadlineMisses:  int64(st.DeadlineMisses),
		Preemptions:     int64(st.Preemptions),
		Resumes:         int64(st.Resumes),
	}
	now := e.sim.Now()
	snap.WindowPrefixHits = int64(e.winHits.Total(now))
	snap.WindowPrefixMisses = int64(e.winMisses.Total(now))
	snap.KVBlocksCached = e.idx.Evictable()
	snap.PrefixSketch = e.idx.AppendSketch(nil, maxSketch)
	snap.TierDemotions = st.TierDemotions
	snap.TierPromotions = st.TierPromotions
	if t := e.idx.HostTier(); t != nil {
		snap.KVHostBlocksTotal = t.Capacity()
		snap.KVHostBlocksUsed = t.Len()
	}
	return snap
}

// ClassCounts breaks the queued and running sequences down by priority
// class name ("" is reported as "unset").
func (e *Engine) ClassCounts() map[string]int {
	if len(e.wq.seqs) == 0 && len(e.running) == 0 {
		return nil
	}
	out := make(map[string]int)
	countClasses(out, e.running)
	countClasses(out, e.wq.seqs)
	return out
}

// WaitingClassCounts breaks the waiting queue alone down by class.
func (e *Engine) WaitingClassCounts() map[string]int {
	if len(e.wq.seqs) == 0 {
		return nil
	}
	out := make(map[string]int)
	countClasses(out, e.wq.seqs)
	return out
}

func countClasses(out map[string]int, seqs []*sequence) {
	for _, s := range seqs {
		cls := s.class
		if cls == "" {
			cls = "unset"
		}
		out[cls]++
	}
}

// Perf returns the active step-time coefficients.
func (e *Engine) Perf() Params { return e.perf }

// SetFaults installs a fault plan; call before or after Run.
func (e *Engine) SetFaults(f Faults) {
	e.faults = f
	if f.CrashAfter > 0 {
		e.sim.Schedule(f.CrashAfter, func() {
			e.Crash(errors.New("vllm: terminated: scheduled system downtime (scancel)"))
		})
	}
}

// OnCrash registers a callback invoked (once) when the engine dies.
func (e *Engine) OnCrash(fn func(error)) { e.onCrash = append(e.onCrash, fn) }

// Crashed reports whether the engine has died, with its error.
func (e *Engine) Crashed() (bool, error) { return e.crashed, e.crashErr }

// Run starts the scheduling loop on its own process.
func (e *Engine) Run() {
	if e.loop != nil {
		return
	}
	e.loop = e.sim.Go("vllm-engine", func(p *sim.Proc) {
		for !e.crashed {
			if len(e.wq.seqs) == 0 && len(e.running) == 0 {
				e.idle.Reset()
				p.Wait(&e.idle)
				continue
			}
			e.step(p)
		}
	})
}

// ErrServerStopped marks a deliberate shutdown (clean container exit), as
// opposed to a crash.
var ErrServerStopped = errors.New("vllm: server stopped")

// Stop terminates the loop and fails any in-flight requests.
func (e *Engine) Stop() {
	e.Crash(ErrServerStopped)
}

// Crash kills the engine: all queued and running requests fail.
func (e *Engine) Crash(err error) {
	if e.crashed {
		return
	}
	e.crashed = true
	e.crashErr = err
	for _, s := range append(append([]*sequence{}, e.running...), e.wq.seqs...) {
		if s.state != seqDone { // one finished earlier in this same step stays successful
			e.finish(s, err)
		}
	}
	e.running = nil
	e.wq.seqs = nil
	e.idle.Fire()
	if e.loop != nil {
		e.loop.Kill()
	}
	for _, fn := range e.onCrash {
		fn(err)
	}
	e.onCrash = nil
}

// Submit enqueues a request. Must be called from the simulation loop.
func (e *Engine) Submit(prompt, maxNew int) *Request {
	return e.SubmitOpts(SubmitOptions{Prompt: prompt, MaxNew: maxNew})
}

// SubmitOpts enqueues a request with full attributes: prompts carrying
// prefix-block hashes participate in automatic prefix caching. Must be
// called from the simulation loop.
func (e *Engine) SubmitOpts(o SubmitOptions) *Request {
	e.seqNum++
	// The ID is written into a stack buffer, so the string is its one
	// allocation.
	var id [24]byte
	req := &Request{
		ID:      string(strconv.AppendInt(append(id[:0], "req-"...), int64(e.seqNum), 10)),
		Prompt:  o.Prompt,
		MaxNew:  o.MaxNew,
		Arrived: e.sim.Now(),
	}
	req.done.Init(e.sim)
	if e.crashed {
		req.Err = fmt.Errorf("vllm: engine dead: %w", e.crashErr)
		req.Finished = e.sim.Now()
		req.done.Fire()
		return req
	}
	if o.MaxNew <= 0 {
		req.MaxNew = 1
	}
	if o.Prompt+req.MaxNew > e.cfg.MaxModelLen {
		req.Err = fmt.Errorf("vllm: prompt+max_tokens (%d) exceeds max_model_len (%d)", o.Prompt+req.MaxNew, e.cfg.MaxModelLen)
		req.Finished = e.sim.Now()
		req.done.Fire()
		return req
	}
	s := &req.seq
	s.req, s.class, s.onToken, s.tr = req, o.Class, o.OnToken, o.Trace
	s.arrival, s.sloBoost = e.seqNum, o.SLOBreach
	if o.TTFTTarget > 0 {
		s.deadline = req.Arrived.Add(o.TTFTTarget)
		s.hasTarget = true
	} else {
		s.deadline = req.Arrived.Add(noTargetHorizon)
	}
	if !e.cfg.NoPrefixCache && len(o.PromptHashes) <= o.Prompt/e.cfg.BlockSize {
		// Only full prompt blocks carry keys; ignore malformed extras.
		s.hashes = o.PromptHashes
	}
	e.wq.push(s, e.sim.Now())
	e.idle.Fire()
	return req
}

// QueueDepth reports waiting and running sequence counts.
func (e *Engine) QueueDepth() (waiting, running int) {
	return len(e.wq.seqs), len(e.running)
}

// step plans and executes one engine iteration.
func (e *Engine) step(p *sim.Proc) {
	// 1-3. Plan the step: continue running prefills, admit from the
	// urgency-ordered waiting queue under the token budget, rescue
	// at-risk deadlines by preempting running batch work (schedule.go).
	// Admission reserves the KV of the prompt, the generated tokens and
	// the next token up front; leading prompt blocks already resident in
	// the prefix cache are shared instead of reallocated, and their tokens
	// skip prefill.
	prefillTokens := e.schedule(e.sim.Now())

	// 4. Grow KV for decoding sequences, preempting the least urgent
	// sequence when blocks run out. Unreferenced prefix-cache blocks are
	// reclaimed before any preemption.
	for _, s := range e.running {
		if s.state != seqRunning || s.pending() > 0 || e.growKV(s) == nil {
			continue
		}
		// Out of blocks: evict one other sequence and retry once. A
		// victim's planned prefill chunk leaves the step with it, as in
		// preemptForDeadline, so the step is not priced for work no
		// sequence runs.
		victim := e.preemptVictim(s)
		if victim != nil {
			prefillTokens -= victim.plan
			e.evict(victim, e.sim.Now())
		}
		if victim == nil || e.growKV(s) != nil {
			// Nothing left to evict, or still short: this request cannot
			// proceed.
			e.finish(s, fmt.Errorf("vllm: KV cache exhausted for %s", s.req.ID))
		}
	}
	e.compactRunning()

	if len(e.running) == 0 && prefillTokens == 0 {
		// All sequences failed/preempted with nothing runnable; avoid a
		// zero-work spin by idling briefly.
		p.Sleep(time.Millisecond)
		return
	}

	// 5. Execute the step.
	decode := 0
	for _, s := range e.running {
		if s.pending() == 0 {
			decode++
		}
	}
	dur := e.perf.StepTime(decode, prefillTokens)
	// Host-tier promotions executed by this step's admissions pay the PCIe
	// transfer alongside the compute they replaced.
	if n := e.idx.DrainPromoted(); n > 0 {
		dur += time.Duration(n) * e.transfer
	}
	if running := len(e.running); running > e.stats.PeakRunning {
		e.stats.PeakRunning = running
	}
	p.Sleep(dur)
	e.stats.Steps++
	e.stats.BusyTime += dur
	if e.kv.PeakUsed() > e.stats.PeakKVBlocks {
		e.stats.PeakKVBlocks = e.kv.PeakUsed()
	}

	// 6. Apply results.
	now := e.sim.Now()
	stepStart := now.Add(-dur)
	still := e.running[:0]
	for _, s := range e.running {
		if s.state != seqRunning {
			continue
		}
		s.computed += s.plan
		if s.pending() == 0 {
			// Nothing left to prefill, so the step sampled a token: the
			// first at the end of a fresh prefill, the next one after a
			// decode step or a preempted sequence's recompute. Each token
			// reaches the submitter once, as it is generated.
			s.req.Generated++
			s.computed++
			e.stats.TokensOut++
			if s.req.FirstToken.IsZero() {
				s.req.FirstToken = now
				e.noteFirstToken(s, stepStart, now)
				e.noteDeadline(s, now)
			}
			if s.onToken != nil {
				s.onToken(s.req, s.req.Generated)
			}
		}
		if s.req.Generated >= s.req.MaxNew {
			e.finish(s, nil)
			if e.faults.CrashAfterCompleted > 0 && e.stats.Completed >= e.faults.CrashAfterCompleted {
				e.Crash(errors.New("vllm: RayWorkerDied: pipeline stage worker lost (NCCL watchdog timeout)"))
				return
			}
			continue
		}
		still = append(still, s)
	}
	for i := len(still); i < len(e.running); i++ {
		e.running[i] = nil
	}
	e.running = still

	// 7. Fault injection: slow KV leak.
	if e.faults.LeakBlocksPerStep > 0 {
		e.stats.LeakedBlocks += e.kv.Leak(e.faults.LeakBlocksPerStep)
		if e.kv.TotalBlocks() < e.kv.BlocksForTokens(e.cfg.MaxModelLen)/4 {
			e.Crash(errors.New("vllm: out of memory: KV cache leak exhausted GPU memory"))
		}
	}
}

// admitKV reserves s's KV in full — its prompt, generated tokens and next
// token — sharing leading prompt blocks already resident in the prefix
// cache and registering the rest as new cache content. Returns false — with
// every reservation rolled back — when the allocator cannot hold the
// remainder even after evicting reusable cache blocks.
func (e *Engine) admitKV(s *sequence) bool {
	hit, limit := 0, 0
	if len(s.hashes) > 0 {
		// At least one pending token is always computed (the logits
		// source), so a fresh, fully cached prompt still prefills its
		// final block.
		limit = min((s.pending()-1)/e.cfg.BlockSize, len(s.hashes))
		hit = e.idx.Acquire(&s.kv, s.hashes, limit)
	}
	if e.growKV(s) != nil {
		e.idx.Abort(&s.kv, hit, limit)
		return false
	}
	if len(s.hashes) > 0 {
		e.idx.Register(&s.kv, s.hashes, hit)
	}
	if limit > 0 {
		// Windowed counters record only settled admissions, so the
		// blocked-head retry inflation Abort un-counts never enters them.
		now := e.sim.Now()
		e.winHits.Add(now, uint64(hit))
		e.winMisses.Add(now, uint64(limit-hit))
	}
	if cached := hit * e.cfg.BlockSize; cached > 0 {
		s.computed = cached
		s.req.CachedTokens = cached
		e.idx.noteCachedTokens(cached)
	}
	return true
}

// growKV sizes s's KV by the one rule for a running sequence: its prompt,
// its generated tokens and the next token. It allocates only the private
// blocks missing beyond the prefix-cache blocks s references, reclaims
// unreferenced cache blocks before reporting exhaustion, and fails without
// partial allocation.
func (e *Engine) growKV(s *sequence) error {
	tokens := s.req.Prompt + s.req.Generated + 1
	need := e.kv.BlocksForTokens(tokens-len(s.kv.refs)*e.cfg.BlockSize) - s.kv.private
	if need <= 0 {
		return nil
	}
	e.idx.EnsureFree(need)
	return s.kv.allocate(e.kv, need)
}

// releaseSeq returns s's private blocks to the allocator and drops its
// prefix-cache references (shared blocks stay resident as reusable cache).
func (e *Engine) releaseSeq(s *sequence) {
	s.kv.drop(e.kv)
	e.idx.Release(&s.kv)
}

// finish ends s: completed when err is nil, failed on KV exhaustion or a
// crash. A traced sequence first records its buffered preempt spans, the
// still-open one of a sequence dying while evicted, and the decode span
// (everything after the first token), all before done fires, so a
// submitter woken by the signal (or draining the final stream chunk, which
// is pushed later) sees the full engine-side span set in stage order.
func (e *Engine) finish(s *sequence, err error) {
	now := e.sim.Now()
	s.state = seqDone
	s.req.Err = err
	s.req.Finished = now
	if s.tr != nil {
		for _, ps := range s.preSpans {
			s.tr.Observe(trace.StagePreempt, ps.start, ps.end)
		}
		if !s.preemptedAt.IsZero() {
			s.tr.Observe(trace.StagePreempt, s.preemptedAt, now)
		}
		if !s.req.FirstToken.IsZero() {
			s.tr.Observe(trace.StageDecode, s.req.FirstToken, now)
		}
		if err != nil && s.tr.Err == "" {
			s.tr.Err = err.Error()
		}
	}
	e.releaseSeq(s)
	if err != nil {
		e.stats.Failed++
	} else {
		e.stats.Completed++
		e.latencies.Observe(now, float64(now.Sub(s.req.Arrived))/float64(time.Millisecond))
	}
	s.req.done.Fire()
}

// noteFirstToken records the engine-side stage spans that become known
// the moment a sequence produces its first token: queue wait (arrival to
// first batch admission), prefill (admission to the start of the
// emitting step), and the first-token step itself.
func (e *Engine) noteFirstToken(s *sequence, stepStart, now time.Time) {
	if s.tr == nil {
		return
	}
	start := s.startedAt
	if start.IsZero() || start.After(stepStart) {
		start = stepStart
	}
	s.tr.Observe(trace.StageQueue, s.req.Arrived, start)
	s.tr.Observe(trace.StagePrefill, start, stepStart)
	s.tr.Observe(trace.StageFirstToken, stepStart, now)
}

// compactRunning sweeps evicted and failed sequences out of the running
// set in place (evict leaves its victim in the slice so in-flight
// iterations never see it mutate).
func (e *Engine) compactRunning() {
	out := e.running[:0]
	for _, s := range e.running {
		if s.state == seqRunning {
			out = append(out, s)
		}
	}
	for i := len(out); i < len(e.running); i++ {
		e.running[i] = nil
	}
	e.running = out
}
