// Deadline-aware step scheduling: the engine's waiting queue is a heap
// ordered by hyperbolic urgency derived from each request's TTFT deadline,
// the per-step MaxBatchedTokens budget interleaves chunked prefill of
// urgent newcomers with ongoing decode, and an interactive request about
// to miss its deadline (or arriving while the gateway's SLO breaker is
// engaged) preempts running batch-class work recompute-style.
//
// This is the engine-side half of the scheduling stack: internal/sched
// decides who is admitted and which replica serves; this file decides, per
// engine step, whose tokens run. The design follows vLLM's unified
// token-budget scheduler (single token-centric loop, running-first/
// waiting-second, priority heap with arrival-order tiebreak) with the
// urgency key made deadline-aware.
package vllm

import (
	"container/heap"
	"time"

	"repro/internal/sched"
)

// Scheduler policies (Config.SchedulerPolicy).
const (
	// SchedulerDeadline (the default) orders admission by hyperbolic
	// deadline urgency and preempts running batch work for at-risk
	// interactive deadlines.
	SchedulerDeadline = "deadline"
	// SchedulerFCFS is the pre-deadline behaviour: strict arrival-order
	// admission, preemption only under KV pressure. Kept as the baseline
	// the scenario suite and benchmarks compare against.
	SchedulerFCFS = "fcfs"
)

const (
	// noTargetHorizon is the synthetic deadline granted to requests that
	// carry no TTFT target: far enough out that any targeted request
	// outranks them while fresh, near enough that untargeted work still
	// ages toward the front instead of starving.
	noTargetHorizon = 30 * time.Second
	// urgencySlackFloor caps how large urgency can grow once a deadline
	// is due: slack clamps here, so all overdue work of one weight class
	// saturates at the same urgency and falls back to arrival order.
	urgencySlackFloor = time.Millisecond
	// batchUrgencyWeight scales batch-class urgency down so that overdue
	// batch work never outranks an interactive request inside its target
	// window: saturated batch urgency (w/floor) stays below interactive
	// urgency until the interactive deadline is ~weight⁻¹ floors away.
	batchUrgencyWeight = 1.0 / 1024
	// maxDeadlinePreempts bounds how many times one sequence can be
	// evicted by deadline rescues, so a long batch generation always
	// finishes (anti-starvation). KV-pressure preemption is exempt — it
	// is a correctness matter, not a policy one.
	maxDeadlinePreempts = 2
)

// classBatch is the batch priority class's name as sequences carry it.
var classBatch = sched.ClassBatch.String()

// urgency is the time-varying heap key: weight over remaining slack, so it
// grows hyperbolically as the deadline nears and saturates at
// weight/urgencySlackFloor once overdue. Batch-class work carries a small
// weight; within equal urgency the queue falls back to arrival order.
func urgency(s *sequence, now time.Time) float64 {
	slack := s.deadline.Sub(now)
	if slack < urgencySlackFloor {
		slack = urgencySlackFloor
	}
	w := 1.0
	if s.class == classBatch {
		w = batchUrgencyWeight
	}
	return w / slack.Seconds()
}

// waitQueue is the engine's waiting queue: a container/heap ordered by
// cached urgency (recomputed against the step clock by rekey), falling
// back to strict arrival order in FCFS mode and as the tiebreak. Elements
// are *sequence pointers, so heap operations never allocate — a property
// the per-step alloc budget in CI depends on.
type waitQueue struct {
	seqs []*sequence
	fcfs bool
}

func (q *waitQueue) Len() int { return len(q.seqs) }

func (q *waitQueue) Less(i, j int) bool {
	a, b := q.seqs[i], q.seqs[j]
	if !q.fcfs && a.urg != b.urg {
		return a.urg > b.urg
	}
	return a.arrival < b.arrival
}

func (q *waitQueue) Swap(i, j int) { q.seqs[i], q.seqs[j] = q.seqs[j], q.seqs[i] }

func (q *waitQueue) Push(x any) { q.seqs = append(q.seqs, x.(*sequence)) }

func (q *waitQueue) Pop() any {
	n := len(q.seqs) - 1
	s := q.seqs[n]
	q.seqs[n] = nil
	q.seqs = q.seqs[:n]
	return s
}

// rekey refreshes every cached urgency against now and restores the heap
// invariant. Urgency is time-varying (it grows as deadlines near), so the
// ordering must be rebuilt once per step; between steps, pushes use the
// pushing site's clock, which the next rekey reconciles.
func (q *waitQueue) rekey(now time.Time) {
	if q.fcfs {
		return
	}
	for _, s := range q.seqs {
		s.urg = urgency(s, now)
	}
	if len(q.seqs) > 1 {
		heap.Init(q)
	}
}

// push enqueues s, keying it against now.
func (q *waitQueue) push(s *sequence, now time.Time) {
	s.urg = urgency(s, now)
	heap.Push(q, s)
}

// schedule plans one engine step: it resets per-sequence plans, continues
// chunked prefill for running sequences (running-first), then admits from
// the urgency-ordered waiting queue under the MaxBatchedTokens budget,
// preempting running batch work when the most urgent waiting request would
// otherwise miss its deadline. It returns the planned prefill token count.
//
// On the no-preemption fast path (nothing admissible, nothing at risk)
// schedule mutates nothing but the cached urgency keys and performs zero
// heap allocations — enforced by TestEngineStepScheduleAllocBudget.
func (e *Engine) schedule(now time.Time) (prefillTokens int) {
	// Census: every running sequence is live here (evictions and
	// completions were swept before the previous step ended).
	decode := 0
	live := len(e.running)
	for _, s := range e.running {
		s.plan = 0
		if s.pending() == 0 {
			decode++
		}
	}
	budget := e.cfg.MaxBatchedTokens - decode
	if budget < 0 {
		budget = 0
	}

	// Running-first: continue chunked prefill of already-admitted work
	// before any newcomer takes budget.
	for _, s := range e.running {
		if rem := s.pending(); rem > 0 && budget > 0 {
			s.plan = min(rem, budget)
			budget -= s.plan
			prefillTokens += s.plan
		}
	}

	// Waiting-second: admit in urgency order while budget, sequence slots
	// and KV blocks allow. When the head is blocked, a deadline rescue may
	// evict running batch work; otherwise admission stops — everything
	// behind the head is by construction less urgent.
	e.wq.rekey(now)
	for len(e.wq.seqs) > 0 {
		s := e.wq.seqs[0]
		if s.preemptedAt.Equal(now) {
			// Evicted by a rescue earlier in this same planning pass;
			// re-admitting it now would undo the preemption.
			break
		}
		blocked := budget <= 0 || live >= e.cfg.MaxNumSeqs
		if !blocked && !e.admitKV(s) {
			blocked = true
		}
		if blocked {
			if !e.atRisk(s, now, decode) || !e.preemptForDeadline(s, now, &live, &decode, &budget, &prefillTokens) {
				break
			}
			continue
		}
		heap.Pop(&e.wq)
		s.state = seqRunning
		if s.startedAt.IsZero() {
			// First admission into the running batch: the queue stage ends
			// here (plan time — the step's sleep has not begun yet).
			s.startedAt = now
		}
		if !s.preemptedAt.IsZero() {
			e.noteResume(s, now)
		}
		e.running = append(e.running, s)
		live++
		s.plan = min(s.pending(), budget)
		budget -= s.plan
		prefillTokens += s.plan
	}
	return prefillTokens
}

// atRisk reports whether waiting sequence s needs a preemption rescue:
// only deadline-bearing non-batch work qualifies. The check carries one
// step of lookahead — admitted in this step the first token lands at
// now+step, so the rescue must fire while waiting ONE more step would
// miss, not once the next step is already provably late (by then no
// rescue can save it). While the gateway's SLO breaker is engaged the
// risk gate is bypassed — breach recovery wants interactive work running
// now, not two steps before the miss.
func (e *Engine) atRisk(s *sequence, now time.Time, decode int) bool {
	if e.cfg.SchedulerPolicy == SchedulerFCFS || s.class == classBatch {
		return false
	}
	if s.sloBoost {
		return true
	}
	if !s.hasTarget {
		return false
	}
	step := e.perf.StepTime(decode, s.pending())
	return now.Add(2 * step).After(s.deadline)
}

// preemptForDeadline rescues waiting sequence head by evicting the running
// batch-class sequence with the latest deadline (the least urgent victim),
// provided that victim has not exhausted its preemption bound and its own
// deadline is strictly later than the head's. The victim's share of the
// step plan (its prefill chunk or decode slot) is returned to the budget
// so the freed capacity is usable in this same step.
func (e *Engine) preemptForDeadline(head *sequence, now time.Time, live, decode, budget, prefillTokens *int) bool {
	var victim *sequence
	for _, v := range e.running {
		if v.state != seqRunning || v.class != classBatch || v.preempted >= maxDeadlinePreempts {
			continue
		}
		if !v.deadline.After(head.deadline) {
			continue
		}
		if victim == nil || v.deadline.After(victim.deadline) {
			victim = v
		}
	}
	if victim == nil {
		return false
	}
	if victim.plan > 0 {
		*budget += victim.plan
		*prefillTokens -= victim.plan
	} else if victim.pending() == 0 {
		*decode--
		*budget++
	}
	*live--
	e.evict(victim, now)
	return true
}

// preemptVictim picks the sequence the KV-pressure path evicts when blocks
// run out: the least urgent running sequence other than favored under the
// deadline policy, the most recently admitted one under FCFS (the original
// vLLM-style recompute victim). Unlike deadline rescues this is uncapped —
// without blocks the favored sequence cannot proceed at all.
func (e *Engine) preemptVictim(favored *sequence) *sequence {
	if e.cfg.SchedulerPolicy == SchedulerFCFS {
		for i := len(e.running) - 1; i >= 0; i-- {
			if v := e.running[i]; v != favored && v.state == seqRunning {
				return v
			}
		}
		return nil
	}
	now := e.sim.Now()
	var victim *sequence
	var vu float64
	for _, v := range e.running {
		if v == favored || v.state != seqRunning {
			continue
		}
		if u := urgency(v, now); victim == nil || u < vu {
			victim, vu = v, u
		}
	}
	return victim
}

// evict removes victim from the running batch recompute-style: its KV is
// released (prefix-cache blocks stay resident, so the re-run skips them),
// its computed count drops to 0, so it re-prefills the prompt plus
// everything generated so far, and it re-enters the waiting queue keyed by
// its original deadline. The victim stays in e.running with state
// seqWaiting until compactRunning sweeps it, so callers iterating the
// running set never see the slice mutate under them.
func (e *Engine) evict(victim *sequence, now time.Time) {
	e.releaseSeq(victim)
	victim.state = seqWaiting
	victim.preempted++
	victim.plan = 0
	victim.computed = 0
	victim.preemptedAt = now
	e.wq.push(victim, now)
	e.stats.Preemptions++
	if victim.preempted > e.stats.PeakSeqPreempts {
		e.stats.PeakSeqPreempts = victim.preempted
	}
}

// noteResume records a preempted sequence's re-admission: the resume
// counter, and (for traced requests) the preempt span buffered until the
// trace's decode span is recorded, so spans stay in stage order.
func (e *Engine) noteResume(s *sequence, now time.Time) {
	e.stats.Resumes++
	if s.tr != nil {
		s.preSpans = append(s.preSpans, preSpan{start: s.preemptedAt, end: now})
	}
	s.preemptedAt = time.Time{}
}

// noteDeadline accounts a first token against its TTFT deadline.
func (e *Engine) noteDeadline(s *sequence, now time.Time) {
	if !s.hasTarget || !now.After(s.deadline) {
		return
	}
	e.stats.DeadlineMisses++
	if e.missByClass == nil {
		e.missByClass = make(map[string]int)
	}
	cls := s.class
	if cls == "" {
		cls = "unset"
	}
	e.missByClass[cls]++
}

// DeadlineMissesByClass returns the cumulative first-token deadline misses
// broken down by priority class (nil before the first miss).
func (e *Engine) DeadlineMissesByClass() map[string]int {
	if e.missByClass == nil {
		return nil
	}
	out := make(map[string]int, len(e.missByClass))
	for k, v := range e.missByClass {
		out[k] = v
	}
	return out
}
