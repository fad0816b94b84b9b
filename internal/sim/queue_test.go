package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refEvent is one test-visible posting in the reference model: the virtual
// time it is due and the engine sequence number it was posted under.
type refEvent struct {
	at      time.Time
	seq     uint64
	id      int
	stopped bool
	fired   bool
}

// queueModel drives random Schedule/At/Stop/Sleep/Signal interleavings on a
// real Engine and records, beside it, what a sorted (at, seq) reference says
// must happen.
type queueModel struct {
	t      *testing.T
	e      *Engine
	rng    *rand.Rand
	budget int // operations left; callbacks and processes stop issuing more at 0
	refs   []*refEvent
	order  []int // ids in the order their callbacks ran
	timers []modelTimer
	sigs   []*modelSignal
}

type modelTimer struct {
	tm  *Timer
	ref *refEvent
}

type modelSignal struct {
	s       *Signal
	fired   bool
	waiters []*refEvent // registered and not yet woken, in registration order
}

// fail records the first mismatch. Events and processes run on their own
// goroutines, where t.Fatal cannot stop the test.
func (m *queueModel) fail(format string, args ...any) {
	if !m.t.Failed() {
		m.t.Errorf(format, args...)
	}
}

func (m *queueModel) newRef(at time.Time) *refEvent {
	r := &refEvent{at: at, id: len(m.refs)}
	m.refs = append(m.refs, r)
	return r
}

// run is what every test-visible event does when it executes.
func (m *queueModel) run(r *refEvent) {
	switch {
	case r.fired:
		m.fail("event %d ran twice", r.id)
	case r.stopped:
		m.fail("stopped event %d ran", r.id)
	case !m.e.Now().Equal(r.at):
		m.fail("event %d ran at %v, due %v", r.id, m.e.Since(Epoch), r.at.Sub(Epoch))
	}
	r.fired = true
	m.order = append(m.order, r.id)
}

func (m *queueModel) delay() time.Duration {
	return time.Duration(m.rng.Intn(6)) * time.Millisecond
}

// ops issues up to n random operations.
func (m *queueModel) ops(n int) {
	for ; n > 0 && m.budget > 0; n-- {
		m.budget--
		m.op()
	}
}

func (m *queueModel) op() {
	e := m.e
	switch m.rng.Intn(9) {
	case 0, 1: // Schedule
		d := m.delay()
		r := m.newRef(e.Now().Add(d))
		tm := e.Schedule(d, func() { m.run(r); m.ops(m.rng.Intn(3)) })
		r.seq = e.seq
		m.timers = append(m.timers, modelTimer{tm, r})
	case 2: // At, possibly in the past (clamped to now)
		at := e.Now().Add(m.delay() - 2*time.Millisecond)
		r := m.newRef(at)
		if at.Before(e.Now()) {
			r.at = e.Now()
		}
		tm := e.At(at, func() { m.run(r); m.ops(m.rng.Intn(3)) })
		r.seq = e.seq
		m.timers = append(m.timers, modelTimer{tm, r})
	case 3: // Stop
		if len(m.timers) == 0 {
			return
		}
		mt := m.timers[m.rng.Intn(len(m.timers))]
		want := !mt.ref.fired && !mt.ref.stopped
		got := mt.tm.Stop()
		if got != want {
			m.fail("Stop on event %d (fired %v, stopped %v) = %v", mt.ref.id, mt.ref.fired, mt.ref.stopped, got)
		}
		if got {
			mt.ref.stopped = true
		}
	case 4: // a process sleeping a few times
		e.Go("sleeper", func(p *Proc) {
			for k := m.rng.Intn(3) + 1; k > 0; k-- {
				d := m.delay()
				r := m.newRef(p.Now().Add(d))
				r.seq = e.seq + 1 // Sleep posts exactly one event
				p.Sleep(d)
				m.run(r)
				m.ops(m.rng.Intn(2))
			}
		})
	case 5: // OnFire
		ms := m.sigs[m.rng.Intn(len(m.sigs))]
		r := m.newRef(e.Now())
		ms.s.OnFire(func() { m.run(r); m.ops(m.rng.Intn(2)) })
		if ms.fired {
			r.seq = e.seq // a fired signal posts at once
		} else {
			ms.waiters = append(ms.waiters, r)
		}
	case 6: // a process waiting on a signal
		ms := m.sigs[m.rng.Intn(len(m.sigs))]
		e.Go("waiter", func(p *Proc) {
			if ms.fired != ms.s.Fired() {
				m.fail("signal fired = %v, model says %v", ms.s.Fired(), ms.fired)
			}
			var r *refEvent
			if !ms.fired {
				r = m.newRef(time.Time{})
				ms.waiters = append(ms.waiters, r)
			}
			p.Wait(ms.s)
			if r != nil {
				m.run(r)
			}
			m.ops(m.rng.Intn(2))
		})
	case 7: // Fire
		m.fire(m.sigs[m.rng.Intn(len(m.sigs))])
	case 8: // Reset
		ms := m.sigs[m.rng.Intn(len(m.sigs))]
		ms.s.Reset()
		ms.fired = false
	}
}

// fire fires a signal: its waiters are posted at the current time, in
// registration order; firing a fired signal posts nothing.
func (m *queueModel) fire(ms *modelSignal) {
	before, n := m.e.seq, 0
	if !ms.fired {
		for i, r := range ms.waiters {
			r.at, r.seq = m.e.Now(), before+uint64(i)+1
		}
		n = len(ms.waiters)
		ms.waiters, ms.fired = nil, true
	}
	ms.s.Fire()
	if got := m.e.seq - before; got != uint64(n) {
		m.fail("Fire posted %d events, want %d", got, n)
	}
}

// TestQueueMatchesSortedReference: random interleavings of Schedule, At,
// Stop, Sleep and Signal operations, issued both before the run and from
// inside running events and processes, execute exactly the unstopped
// postings, each at its due time, in (at, seq) order.
func TestQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		e := NewEngine(seed)
		m := &queueModel{t: t, e: e, rng: rand.New(rand.NewSource(seed)), budget: 300}
		for i := 0; i < 3; i++ {
			m.sigs = append(m.sigs, &modelSignal{s: e.NewSignal()})
		}
		m.ops(40)
		e.Run()
		// Release every process still parked on a signal, issuing nothing
		// new, so no goroutine outlives the test.
		m.budget = 0
		for pending := true; pending; {
			pending = false
			for _, ms := range m.sigs {
				if len(ms.waiters) > 0 {
					pending = true
					m.fire(ms)
				}
			}
			e.Run()
		}
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
		if e.Pending() != 0 {
			t.Fatalf("seed %d: %d events left after Run", seed, e.Pending())
		}

		var want []*refEvent
		for _, r := range m.refs {
			if !r.stopped {
				want = append(want, r)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if !want[i].at.Equal(want[j].at) {
				return want[i].at.Before(want[j].at)
			}
			return want[i].seq < want[j].seq
		})
		if len(m.order) != len(want) {
			t.Fatalf("seed %d: %d events ran, reference has %d", seed, len(m.order), len(want))
		}
		for i, r := range want {
			if m.order[i] != r.id {
				t.Fatalf("seed %d: position %d ran event %d, reference says %d", seed, i, m.order[i], r.id)
			}
		}
	}
}

// TestStopAfterFireReturnsFalse: a timer that already fired cannot be
// stopped, and says so.
func TestStopAfterFireReturnsFalse(t *testing.T) {
	e := NewEngine(1)
	n := 0
	tm := e.Schedule(time.Second, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("timer ran %d times", n)
	}
	if tm.Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

// TestSignalResetWakesOnlyLaterWaiters: a reset signal's next Fire wakes
// the waiters registered after the reset, and none of the earlier ones a
// second time.
func TestSignalResetWakesOnlyLaterWaiters(t *testing.T) {
	e := NewEngine(1)
	s := e.NewSignal()
	woke := map[string]int{}
	s.OnFire(func() { woke["before"]++ })
	e.Go("early", func(p *Proc) { p.Wait(s); woke["early"]++ })
	e.Run()
	s.Fire()
	e.Run()
	s.Reset()
	if s.Fired() {
		t.Fatal("Fired after Reset")
	}
	s.OnFire(func() { woke["after"]++ })
	e.Go("late", func(p *Proc) { p.Wait(s); woke["late"]++ })
	e.Run()
	if woke["after"] != 0 || woke["late"] != 0 {
		t.Fatalf("woke before the second Fire: %v", woke)
	}
	s.Fire()
	e.Run()
	for _, k := range []string{"before", "early", "after", "late"} {
		if woke[k] != 1 {
			t.Fatalf("woke = %v, want each waiter exactly once", woke)
		}
	}
	// Resetting an unfired signal keeps its waiters.
	s.Reset()
	s.OnFire(func() { woke["kept"]++ })
	s.Reset()
	s.Fire()
	e.Run()
	if woke["kept"] != 1 {
		t.Fatalf("waiter dropped by a Reset of an unfired signal: %v", woke)
	}
}

// TestParkWakeDoesNotAllocate: a process sleeping, or waiting on a reused
// signal that another process fires, allocates nothing per cycle.
func TestParkWakeDoesNotAllocate(t *testing.T) {
	e := NewEngine(1)
	s := e.NewSignal()
	stop := false
	e.Go("sleeper", func(p *Proc) {
		for !stop {
			p.Sleep(time.Millisecond)
		}
	})
	e.Go("waiter", func(p *Proc) {
		for !stop {
			s.Reset()
			p.Wait(s)
		}
	})
	e.Go("firer", func(p *Proc) {
		for !stop {
			p.Sleep(time.Millisecond)
			s.Fire()
		}
	})
	e.RunFor(time.Second) // reach steady state: queue and stacks grown
	allocs := testing.AllocsPerRun(100, func() { e.RunFor(10 * time.Millisecond) })
	stop = true
	s.Fire()
	e.Run()
	if allocs != 0 {
		t.Fatalf("%.1f allocs per 10 ms of park/wake cycles, want 0", allocs)
	}
}
