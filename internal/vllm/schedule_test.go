package vllm

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestSchedulerDeadlineOrdering: with a per-step budget that fits one
// prompt, a deadline engine admits the later-arriving interactive request
// (tight TTFT target) ahead of the earlier batch request; the FCFS
// baseline admits in arrival order.
func TestSchedulerDeadlineOrdering(t *testing.T) {
	run := func(policy string) (batch, inter *Request) {
		cfg := hopsScoutConfig()
		cfg.MaxBatchedTokens = 512
		cfg.SchedulerPolicy = policy
		se, e := newEngine(t, cfg)
		se.Go("client", func(p *sim.Proc) {
			batch = e.SubmitOpts(SubmitOptions{Prompt: 512, MaxNew: 4, Class: "batch"})
			inter = e.SubmitOpts(SubmitOptions{Prompt: 512, MaxNew: 4, Class: "interactive", TTFTTarget: 50 * time.Millisecond})
			p.Wait(batch.Done())
			p.Wait(inter.Done())
		})
		se.Run()
		if batch.Err != nil || inter.Err != nil {
			t.Fatalf("policy %s: errs %v / %v", policy, batch.Err, inter.Err)
		}
		return batch, inter
	}

	b, i := run(SchedulerDeadline)
	if !i.FirstToken.Before(b.FirstToken) {
		t.Errorf("deadline: interactive first token %v not before batch %v", i.FirstToken, b.FirstToken)
	}
	b, i = run(SchedulerFCFS)
	if !b.FirstToken.Before(i.FirstToken) {
		t.Errorf("fcfs: batch first token %v not before interactive %v (arrival order)", b.FirstToken, i.FirstToken)
	}
}

// schedFixture builds an engine whose running batch is full (all decoding)
// with waiting far-deadline batch work behind it — the no-preemption fast
// path where schedule() must be a pure re-ordering pass: idempotent and,
// per the CI alloc budget, allocation-free.
func schedFixture(tb testing.TB, policy string, waiting int) (*Engine, time.Time) {
	tb.Helper()
	cfg := hopsScoutConfig()
	cfg.MaxNumSeqs = 4
	cfg.SchedulerPolicy = policy
	e, err := New(sim.NewEngine(1), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	now := time.Unix(1700000000, 0)
	for i := 0; i < cfg.MaxNumSeqs; i++ {
		e.seqNum++
		e.running = append(e.running, &sequence{
			req: &Request{Prompt: 127, Generated: 1}, state: seqRunning, arrival: e.seqNum,
			computed: 128, deadline: now.Add(noTargetHorizon),
		})
	}
	for i := 0; i < waiting; i++ {
		e.seqNum++
		cls := classBatch
		ttft := time.Duration(0)
		if i%2 == 1 {
			// Interactive with a comfortable target: not at risk, so the
			// admission loop still stops at the blocked head.
			cls, ttft = "interactive", time.Hour
		}
		s := &sequence{
			req: &Request{Prompt: 64}, class: cls, arrival: e.seqNum,
		}
		if ttft > 0 {
			s.deadline, s.hasTarget = now.Add(ttft), true
		} else {
			s.deadline = now.Add(noTargetHorizon)
		}
		e.wq.push(s, now)
	}
	return e, now
}

// TestEngineStepScheduleAllocBudget: the per-step scheduling pass (urgency
// rekey, heap restore, admission probe) allocates nothing on the
// no-preemption fast path. The waiting queue is a heap of *sequence
// pointers and urgency keys are cached on the sequences, so a saturated
// engine pays zero GC pressure per step for its scheduler.
func TestEngineStepScheduleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted by -race instrumentation")
	}
	for _, policy := range []string{SchedulerDeadline, SchedulerFCFS} {
		e, now := schedFixture(t, policy, 16)
		allocs := testing.AllocsPerRun(200, func() {
			e.schedule(now)
		})
		if allocs != 0 {
			t.Errorf("policy %s: schedule() allocates %.1f per step, want 0", policy, allocs)
		}
	}
}

// BenchmarkEngineStepSchedule measures the per-step scheduling cost on a
// saturated engine (full running batch, 256 waiting sequences of mixed
// class) for the deadline policy against the FCFS baseline. CI tracks it
// alongside the dispatch and pick benches.
func BenchmarkEngineStepSchedule(b *testing.B) {
	for _, policy := range []string{SchedulerDeadline, SchedulerFCFS} {
		b.Run(policy, func(b *testing.B) {
			e, now := schedFixture(b, policy, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.schedule(now)
			}
		})
	}
}

// TestScheduleRecomputeTail: a resumed sequence one token short of its
// recompute (prompt plus generated tokens) is still prefilling. schedule
// plans that last token as a one-token chunk and counts it as prefill, so
// the step prices it at the prefill rate and not as a decode slot, although
// a decode step also runs one token.
func TestScheduleRecomputeTail(t *testing.T) {
	e, err := New(sim.NewEngine(1), hopsScoutConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000000, 0)
	s := &sequence{
		req: &Request{ID: "tail", Prompt: 32, Generated: 1, MaxNew: 8}, state: seqRunning,
		computed: 32, deadline: now.Add(noTargetHorizon),
	}
	e.running = append(e.running, s)
	if got := e.schedule(now); got != 1 || s.plan != 1 {
		t.Fatalf("schedule planned %d prefill tokens and a %d-token chunk, want the 1-token tail in both", got, s.plan)
	}
}

// TestKVPressureEvictionDropsPlannedChunk: when a decoding sequence runs
// out of KV blocks and the step evicts a sequence that schedule gave a
// prefill chunk, the chunk leaves the step with the victim. The step is
// priced as the one decode it runs, not as that decode plus a prefill no
// sequence computes.
func TestKVPressureEvictionDropsPlannedChunk(t *testing.T) {
	cfg := hopsScoutConfig()
	cfg.MaxModelLen, cfg.NumGPUBlocksOverride = 64, 5
	se := sim.NewEngine(1)
	e, err := New(se, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs := e.cfg.BlockSize
	now := se.Now()
	// The decoder holds the blocks of its 2·bs tokens and needs one more
	// for its next token; the prefilling sequence holds its full
	// reservation (2·bs prompt tokens plus the next token: 3 blocks). The
	// cache is then full.
	dec := &sequence{
		req:   &Request{ID: "dec", Prompt: bs, Generated: bs, MaxNew: 4 * bs},
		state: seqRunning, computed: 2 * bs, deadline: now.Add(time.Second), hasTarget: true,
	}
	pre := &sequence{
		req:   &Request{ID: "pre", Prompt: 2 * bs, MaxNew: 4},
		state: seqRunning, deadline: now.Add(noTargetHorizon), class: classBatch,
	}
	if err := dec.kv.allocate(e.kv, 2); err != nil {
		t.Fatal(err)
	}
	if err := pre.kv.allocate(e.kv, 3); err != nil {
		t.Fatal(err)
	}
	e.running = append(e.running, dec, pre)
	se.Go("step", func(p *sim.Proc) { e.step(p) })
	se.Run()
	if pre.state != seqWaiting || e.stats.Preemptions != 1 {
		t.Fatalf("the prefilling sequence should be the KV-pressure victim (state %v, %d preemptions)", pre.state, e.stats.Preemptions)
	}
	if want := e.perf.StepTime(1, 0); e.stats.BusyTime != want {
		t.Fatalf("step took %s, want %s (one decode; the victim's %d-token chunk was priced)",
			e.stats.BusyTime, want, 2*bs)
	}
}

// TestSchedulerAntiStarvation: under three seconds of sustained interactive
// pressure (tight TTFT targets arriving every 20ms against a 4-slot
// engine), deadline rescues preempt and resume running batch work — but
// the per-sequence preemption bound keeps every batch request finishing.
func TestSchedulerAntiStarvation(t *testing.T) {
	cfg := hopsScoutConfig()
	cfg.MaxNumSeqs = 4
	se, e := newEngine(t, cfg)

	const nBatch = 6
	var batch [nBatch]*Request
	var inter []*Request
	se.Go("load", func(p *sim.Proc) {
		start := p.Now()
		for i := range batch {
			batch[i] = e.SubmitOpts(SubmitOptions{Prompt: 600, MaxNew: 300, Class: "batch"})
		}
		for p.Now().Sub(start) < 3*time.Second {
			inter = append(inter, e.SubmitOpts(SubmitOptions{
				Prompt: 55, MaxNew: 4, Class: "interactive", TTFTTarget: 100 * time.Millisecond,
			}))
			p.Sleep(20 * time.Millisecond)
		}
		for _, r := range batch {
			p.Wait(r.Done())
		}
		for _, r := range inter {
			p.Wait(r.Done())
		}
	})
	se.Run()

	for i, r := range batch {
		if r.Err != nil {
			t.Errorf("batch %d failed: %v", i, r.Err)
		} else if r.Generated != 300 {
			t.Errorf("batch %d generated %d, want 300", i, r.Generated)
		}
	}
	for i, r := range inter {
		if r.Err != nil {
			t.Errorf("interactive %d failed: %v", i, r.Err)
		}
	}
	st := e.Stats()
	if st.Preemptions == 0 {
		t.Error("no preemptions under sustained interactive pressure; rescue path never fired")
	}
	if st.Resumes == 0 {
		t.Error("no resumes; preempted batch work never re-entered the batch")
	}
	if st.PeakSeqPreempts > maxDeadlinePreempts {
		t.Errorf("a sequence was deadline-preempted %d times, bound is %d", st.PeakSeqPreempts, maxDeadlinePreempts)
	}
	t.Logf("preemptions=%d resumes=%d peakSeqPreempts=%d deadlineMisses=%d byClass=%v",
		st.Preemptions, st.Resumes, st.PeakSeqPreempts, st.DeadlineMisses, e.DeadlineMissesByClass())
}

// TestSchedulerTelemetryCounters: waiting-by-class depths and the
// deadline/preemption counters surface on the typed telemetry snapshot.
func TestSchedulerTelemetryCounters(t *testing.T) {
	cfg := hopsScoutConfig()
	cfg.MaxNumSeqs = 1
	se, e := newEngine(t, cfg)
	var miss *Request
	se.Go("load", func(p *sim.Proc) {
		running := e.SubmitOpts(SubmitOptions{Prompt: 200, MaxNew: 400, Class: "batch"})
		p.Sleep(50 * time.Millisecond)
		// Far too tight to make: counts as a deadline miss on first token.
		miss = e.SubmitOpts(SubmitOptions{Prompt: 200, MaxNew: 2, Class: "interactive", TTFTTarget: time.Microsecond})
		snap := e.Telemetry()
		if snap.WaitingByClass["interactive"] != 1 {
			t.Errorf("WaitingByClass = %v, want interactive:1", snap.WaitingByClass)
		}
		p.Wait(miss.Done())
		p.Wait(running.Done())
	})
	se.Run()
	if miss.Err != nil {
		t.Fatal(miss.Err)
	}
	snap := e.Telemetry()
	if snap.DeadlineMisses == 0 {
		t.Error("no deadline miss recorded for an unmakeable target")
	}
	if got := e.DeadlineMissesByClass()["interactive"]; got == 0 {
		t.Error("per-class miss breakdown missing the interactive miss")
	}
	if snap.Preemptions != int64(e.Stats().Preemptions) || snap.Resumes != int64(e.Stats().Resumes) {
		t.Errorf("snapshot counters diverge from stats: %+v vs %+v", snap, e.Stats())
	}
}
