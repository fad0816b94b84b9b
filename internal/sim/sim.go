// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated subsystems in this repository (networks, filesystems,
// schedulers, inference engines) advance on a single virtual clock owned by an
// Engine. Events fire in (time, sequence) order, so two runs with the same
// seed produce identical histories. Cooperative processes (Proc) layer a
// synchronous programming style on top of the event loop: each runs on a
// coroutine that an event handler resumes and that switches back when the
// process parks, so at most one process or event handler executes at a time.
//
// The engine can run in two modes: Run drains events as fast as possible in
// virtual time (used by tests and benchmark harnesses), while RunRealtime maps
// virtual durations onto scaled wall-clock time so the simulated services can
// be exposed over real sockets (used by cmd/sitesim).
//
// One goroutine owns an engine, the one that runs it, and every event
// handler and process runs there, so the engine takes no lock. Inject is
// the only method another goroutine may call: it hands a function to
// RunRealtime, which runs it as an event.
//
// Events are queued by value. Only Schedule and At allocate a handle (a
// stoppable *Timer); Sleep, Signal.Fire and OnFire, Inject, Go, Kill and
// WaitTimeout post events no caller can cancel. A process's wake-up event
// and signal registration carry the *Proc itself, and a finished process's
// coroutine is kept (up to a small cap) for the next Go, so on a warm
// engine starting a process allocates only its Proc, and parking and
// waking again allocate nothing.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Epoch is the virtual time at which every new Engine starts. The concrete
// date is arbitrary; a fixed epoch keeps logs and golden files stable.
var Epoch = time.Date(2025, 6, 2, 8, 0, 0, 0, time.UTC)

// Timer is a handle to an event scheduled through Schedule or At. It may be
// stopped before it fires.
type Timer struct {
	stopped bool
	popped  bool // left the queue: fired, or collected after Stop
}

// Stop cancels the timer. It is a no-op if the timer already fired.
// It reports whether the call prevented the timer from firing.
func (t *Timer) Stop() bool {
	if t == nil || t.stopped || t.popped {
		return false
	}
	t.stopped = true
	return true
}

// action is what an event or a signal waiter does when it runs: resume the
// process p or, when p is nil, call fn. Carrying the process lets a park
// post its wake-up without a closure.
type action struct {
	fn func()
	p  *Proc
}

func (a action) empty() bool { return a.fn == nil && a.p == nil }

func (a action) run() {
	if a.p != nil {
		a.p.resume()
		return
	}
	a.fn()
}

// event is one queued action, held in the queue by value. Only events
// posted through Schedule or At carry a Timer; the engine's own postings
// (Sleep, Signal wake-ups, Inject, Go, Kill) cannot be stopped and carry
// none, so they cost no allocation.
type event struct {
	at  time.Time
	seq uint64
	action
	tm *Timer
}

// before orders events by (at, seq): time first, posting order within a
// tick. seq is unique, so the order is total and the queue's pop sequence
// does not depend on how the heap is laid out.
func (a *event) before(b *event) bool {
	if a.at.Equal(b.at) {
		return a.seq < b.seq
	}
	return a.at.Before(b.at)
}

// eventQueue is a binary min-heap of events ordered by before.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest event; the queue must be non-empty.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the action's references
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && h[r].before(&h[child]) {
				child = r
			}
			if !h[child].before(&last) {
				break
			}
			h[i] = h[child]
			i = child
		}
		h[i] = last
	}
	*q = h
	if top.tm != nil {
		top.tm.popped = true
	}
	return top
}

// stopped reports whether ev was cancelled through its Timer.
func (ev *event) stopped() bool { return ev.tm != nil && ev.tm.stopped }

// Engine is a discrete-event simulator with a virtual clock.
// The zero value is not usable; call NewEngine.
//
// One goroutine owns an engine: the one that runs it (Step, Run, RunUntil,
// RunFor or RunRealtime), on which every event handler and process runs.
// Every method but Inject must be called on that goroutine (before the
// engine first runs, on the one that built it). Inject is the only method
// another goroutine may call.
type Engine struct {
	now     time.Time
	queue   eventQueue
	seq     uint64
	rng     *rand.Rand
	running bool
	stopped bool
	idle    []*coro     // finished processes' coroutines, at most maxIdle
	inject  chan func() // Inject's functions, taken by RunRealtime

	// Trace, when non-nil, receives a line for every event executed.
	// Intended for debugging; nil in normal operation.
	Trace func(t time.Time, label string)
}

// NewEngine returns an engine positioned at Epoch with a deterministic
// random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		now:    Epoch,
		rng:    rand.New(rand.NewSource(seed)),
		inject: make(chan func()),
	}
}

// Now returns the current virtual time. Like every method but Inject, it
// must be called on the engine's goroutine.
func (e *Engine) Now() time.Time { return e.now }

// Since returns the virtual duration elapsed since t.
func (e *Engine) Since(t time.Time) time.Duration { return e.now.Sub(t) }

// Rand returns the engine's deterministic random source. It must only be
// used from event handlers and processes (the engine goroutine).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule runs fn after d of virtual time. Negative durations are clamped
// to zero. fn executes on the engine's event loop. The returned Timer can
// cancel the event.
func (e *Engine) Schedule(d time.Duration, fn func()) *Timer {
	tm := new(Timer)
	e.push(e.now.Add(max(d, 0)), action{fn: fn}, tm)
	return tm
}

// At runs fn at virtual time t (clamped to now if t is in the past).
func (e *Engine) At(t time.Time, fn func()) *Timer {
	if t.Before(e.now) {
		t = e.now
	}
	tm := new(Timer)
	e.push(t, action{fn: fn}, tm)
	return tm
}

// post runs a after d of virtual time, like Schedule, but returns no
// handle, so queueing it allocates nothing.
func (e *Engine) post(d time.Duration, a action) { e.push(e.now.Add(max(d, 0)), a, nil) }

func (e *Engine) push(t time.Time, a action, tm *Timer) {
	e.seq++
	e.queue.push(event{at: t, seq: e.seq, action: a, tm: tm})
}

// Inject runs fn on the engine's goroutine at the current virtual time. It
// is the only method another goroutine may call, and so the one way for
// code outside the simulation (a real HTTP handler, say) to reach
// simulated state. It blocks until RunRealtime takes fn, so fn runs only
// while RunRealtime does, and a call with no RunRealtime to come never
// returns. Code on the engine's goroutine calls Schedule instead.
func (e *Engine) Inject(fn func()) { e.inject <- fn }

// Stop makes Run, RunUntil and RunRealtime return after the current event
// completes. It must be called on the engine's goroutine, from an event
// handler or a process; RunRealtime also returns when its context is
// cancelled.
func (e *Engine) Stop() { e.stopped = true }

// pop removes and returns the next runnable event, skipping stopped timers.
// It reports false when the queue is empty.
func (e *Engine) pop() (event, bool) {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.stopped() {
			continue
		}
		e.now = ev.at
		return ev, true
	}
	return event{}, false
}

// peekTime returns the time of the next pending event.
func (e *Engine) peekTime() (time.Time, bool) {
	for len(e.queue) > 0 {
		if e.queue[0].stopped() {
			e.queue.pop()
			continue
		}
		return e.queue[0].at, true
	}
	return time.Time{}, false
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	ev, ok := e.pop()
	if !ok {
		return false
	}
	if e.Trace != nil {
		e.Trace(ev.at, fmt.Sprintf("event #%d", ev.seq))
	}
	ev.run()
	return true
}

// begin marks the engine running under the runner name, which must not
// already be running, and clears an earlier Stop.
func (e *Engine) begin(name string) {
	if e.running {
		panic("sim: Engine." + name + " called re-entrantly")
	}
	e.running, e.stopped = true, false
}

// Run drains the event queue in virtual time. It returns when no events
// remain or Stop was called.
func (e *Engine) Run() {
	e.begin("Run")
	defer func() { e.running = false }()
	for !e.stopped && e.Step() {
	}
}

// RunUntil drains events with fire times not after deadline, then advances
// the clock to deadline.
func (e *Engine) RunUntil(deadline time.Time) {
	for {
		t, ok := e.peekTime()
		if !ok || t.After(deadline) {
			break
		}
		e.Step()
		if e.stopped {
			return
		}
	}
	if e.now.Before(deadline) {
		e.now = deadline
	}
}

// RunFor drains events within d of the current virtual time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

// Pending reports how many events are queued (including stopped timers that
// have not been collected yet). Intended for tests.
func (e *Engine) Pending() int { return len(e.queue) }
