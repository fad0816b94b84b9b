package sim

import (
	"fmt"
	"iter"
	"time"
)

// maxIdle bounds an engine's list of idle coroutines. An idle coroutine is
// a parked goroutine, and it stays parked after its engine is discarded, so
// the list is kept small; a burst of more concurrent processes than this
// starts fresh coroutines, and the surplus exits as its processes finish.
const maxIdle = 64

// Proc is a cooperative simulated process. It runs on a coroutine
// (iter.Pull) that only an event handler resumes and that hands control
// back each time the process parks, so at most one process or event
// handler executes at any instant. This preserves determinism while letting
// simulation code read sequentially (sleep, wait, call).
//
// A finished process gives its coroutine back to its engine, which keeps
// up to maxIdle of them, last in first out, for the next Go. On a warm
// engine, starting a process allocates only the Proc, and parking and
// waking allocate nothing: the wake-up event carries the Proc itself.
type Proc struct {
	eng  *Engine
	name string
	fn   func(p *Proc) // the body; nil once it has finished
	co   *coro         // runs the body; nil before the start and after the finish
	kill bool          // set by Kill's event, consumed by the park it resumes
	done bool
}

// coro is a pooled coroutine that runs one process body after another. A
// wake-up names a Proc, never a coro, and an idle coro refers to no process
// and no engine.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	p     *Proc // the process it runs; nil while idle
}

// Go starts fn as a new process at the current virtual time.
// The returned Proc may be used to Kill the process or wait for it.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn}
	e.post(0, action{p: p})
	return p
}

// resume runs the process until it parks or finishes; the first resume,
// Go's start event, gives it a coroutine. It must run on the engine's event
// loop. A wake-up of a finished process is stale and does nothing, even
// when the process's old coroutine now runs another.
func (p *Proc) resume() {
	if p.done {
		return
	}
	if p.co == nil {
		p.co = p.eng.takeCoro()
		p.co.p = p
	}
	p.co.next()
}

// takeCoro returns the most recently idled coroutine, or a new one.
func (e *Engine) takeCoro() *coro {
	n := len(e.idle)
	if n == 0 {
		c := new(coro)
		c.next, _ = iter.Pull(c.serve)
		return c
	}
	c := e.idle[n-1]
	e.idle[n-1] = nil
	e.idle = e.idle[:n-1]
	return c
}

// serve is a coroutine's sequence: it runs the process assigned to it, then
// waits in the engine's idle list for the next one, or returns, ending the
// coroutine, when the list is full.
func (c *coro) serve(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.run()
		if !c.release() {
			return
		}
		yield(struct{}{})
	}
}

// errKillSentinel is the panic value that unwinds a killed process.
var errKillSentinel = new(int)

// run executes the body. Kill unwinds it with errKillSentinel, recovered
// here. Any other panic, and runtime.Goexit, leave through the caller of
// next, that is the caller of Step or Run, and the coroutine is never
// reused.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil && r != errKillSentinel {
			panic(r)
		}
	}()
	p.fn(p)
}

// release marks the finished process done and, room permitting, puts the
// coroutine on the engine's idle list. It reports whether it did.
func (c *coro) release() bool {
	p := c.p
	p.done, p.fn, p.co, c.p = true, nil, nil, nil
	e := p.eng
	if len(e.idle) == maxIdle {
		return false
	}
	e.idle = append(e.idle, c)
	return true
}

// park gives control back to the event handler that resumed the process
// and returns at the next wake-up, unless that wake-up is a Kill: then the
// process unwinds.
func (p *Proc) park() {
	p.co.yield(struct{}{})
	if p.kill {
		p.kill = false
		panic(errKillSentinel)
	}
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() time.Time { return p.eng.Now() }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	p.eng.post(d, action{p: p})
	p.park()
}

// Kill terminates the process the next time it is parked. Pending Sleeps and
// Waits never return; the process unwinds. Safe to call from event handlers
// or other processes. Killing a finished process is a no-op.
func (p *Proc) Kill() {
	p.eng.post(0, action{fn: func() {
		if !p.done {
			p.kill = true
			p.resume()
		}
	}})
}

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }

// Signal is a one-shot broadcast synchronization point in virtual time.
// Processes Wait on it; Fire wakes all current and future waiters. Reset
// re-arms a fired signal, so one Signal can serve a loop that parks over
// and over.
type Signal struct {
	eng   *Engine
	fired bool
	// first is the earliest registered waiter, held inline: most signals
	// have exactly one, and it then costs no slice. rest holds the others
	// in registration order.
	first action
	rest  []action
}

// NewSignal returns an unfired signal bound to e.
func (e *Engine) NewSignal() *Signal { return &Signal{eng: e} }

// Init binds a zero Signal to e. An owner that holds its Signal by value,
// as a field of a larger record, calls it in place of NewSignal, so the
// signal costs no allocation of its own.
func (s *Signal) Init(e *Engine) { s.eng = e }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire wakes every waiter. Waiters run as fresh events at the current
// virtual time, preserving deterministic ordering. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	if s.first.empty() {
		return
	}
	s.eng.post(0, s.first)
	for _, a := range s.rest {
		s.eng.post(0, a)
	}
	s.first, s.rest = action{}, nil
}

// Reset re-arms a fired signal so it can fire again. The waiters of the
// earlier firing were all woken by it; only waiters registered after the
// reset wait for the next Fire. Resetting an unfired signal is a no-op.
func (s *Signal) Reset() { s.fired = false }

// OnFire registers fn to run when the signal fires (immediately, as a new
// event, if it already has).
func (s *Signal) OnFire(fn func()) { s.add(action{fn: fn}) }

func (s *Signal) add(a action) {
	switch {
	case s.fired:
		s.eng.post(0, a)
	case s.first.empty():
		s.first = a
	default:
		s.rest = append(s.rest, a)
	}
}

// Wait suspends the process until the signal fires.
func (p *Proc) Wait(s *Signal) {
	if s.fired {
		return
	}
	s.add(action{p: p})
	p.park()
}

// WaitTimeout waits for the signal for at most d. It reports whether the
// signal fired (false means the timeout elapsed first).
func (p *Proc) WaitTimeout(s *Signal, d time.Duration) bool {
	if s.fired {
		return true
	}
	fired := false
	woken := false
	s.OnFire(func() {
		if woken {
			return
		}
		woken = true
		fired = true
		p.resume()
	})
	p.eng.post(d, action{fn: func() {
		if woken {
			return
		}
		woken = true
		p.resume()
	}})
	p.park()
	return fired
}

// Future carries a value resolved at some virtual time.
type Future[T any] struct {
	sig *Signal
	val T
	err error
}

// NewFuture returns an unresolved future bound to e.
func NewFuture[T any](e *Engine) *Future[T] {
	return &Future[T]{sig: e.NewSignal()}
}

// Resolve sets the value and wakes waiters. Resolving twice is a no-op.
func (f *Future[T]) Resolve(v T, err error) {
	if f.sig.Fired() {
		return
	}
	f.val, f.err = v, err
	f.sig.Fire()
}

// Await suspends the process until the future resolves, returning its value.
func Await[T any](p *Proc, f *Future[T]) (T, error) {
	p.Wait(f.sig)
	return f.val, f.err
}

// Group tracks a set of processes or tasks and fires when all are done,
// analogous to sync.WaitGroup in virtual time.
type Group struct {
	n    int
	done Signal
}

// NewGroup returns an empty group (already satisfied).
func (e *Engine) NewGroup() *Group {
	return &Group{done: Signal{eng: e}}
}

// Add registers n more outstanding tasks.
func (g *Group) Add(n int) { g.n += n }

// Finish marks one task complete, firing the signal at zero outstanding.
func (g *Group) Finish() {
	g.n--
	if g.n < 0 {
		panic("sim: Group.Finish without matching Add")
	}
	if g.n == 0 {
		g.done.Fire()
	}
}

// WaitAll suspends the process until the group drains. A group with no
// outstanding tasks returns immediately.
//
// A group may legitimately drain to zero and refill (an open-loop driver
// whose in-flight set empties between arrivals), and the underlying Signal
// is one-shot — so WaitAll resets a stale fire and keeps waiting until the
// count is zero at wake time, rather than returning with work still
// outstanding.
func (g *Group) WaitAll(p *Proc) {
	for g.n > 0 {
		g.done.Reset()
		p.Wait(&g.done)
	}
}
