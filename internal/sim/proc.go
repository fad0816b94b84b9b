package sim

import (
	"errors"
	"fmt"
	"time"
)

// ErrKilled is delivered to a process blocked in Sleep or Wait when Kill is
// called on it.
var ErrKilled = errors.New("sim: process killed")

// Proc is a cooperative simulated process. A Proc runs on its own goroutine
// but control is handed off strictly: the engine (or the process that woke
// it) blocks until the Proc parks again, so at most one process or event
// handler executes at any instant. This preserves determinism while letting
// simulation code read sequentially (sleep, wait, call).
type Proc struct {
	eng    *Engine
	name   string
	resume chan error    // engine -> proc: run (non-nil error = killed)
	yield  chan struct{} // proc -> engine: parked or finished
	wake   func()        // resumes the process; built once, posted per park
	killed bool
	done   bool
}

// Go starts fn as a new process at the current virtual time.
// The returned Proc may be used to Kill the process or wait for it.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:    e,
		name:   name,
		resume: make(chan error),
		yield:  make(chan struct{}),
	}
	p.wake = func() { p.transfer(nil) }
	e.post(0, func() {
		go func() {
			err := <-p.resume
			if err == nil {
				func() {
					defer func() {
						if r := recover(); r != nil {
							if r != errKillSentinel {
								panic(r)
							}
						}
					}()
					fn(p)
				}()
			}
			p.done = true
			p.yield <- struct{}{}
		}()
		p.transfer(nil)
	})
	return p
}

var errKillSentinel = new(int)

// transfer hands control to the process and blocks until it parks or exits.
// It must run on the engine goroutine (inside an event handler).
func (p *Proc) transfer(err error) {
	if p.done {
		return
	}
	p.resume <- err
	<-p.yield
}

// park gives control back to whoever resumed the process and blocks until
// the next wake-up. Returns a non-nil error if the process was killed.
func (p *Proc) park() error {
	p.yield <- struct{}{}
	err := <-p.resume
	if err != nil {
		p.killed = true
		panic(errKillSentinel)
	}
	return nil
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Time { return p.eng.Now() }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	p.eng.post(d, p.wake)
	_ = p.park()
}

// Kill terminates the process the next time it is parked. Pending Sleeps and
// Waits never return; the process unwinds. Safe to call from event handlers
// or other processes. Killing a finished process is a no-op.
func (p *Proc) Kill() {
	p.eng.post(0, func() {
		if p.done {
			return
		}
		p.transfer(ErrKilled)
	})
}

// Done reports whether the process has finished (normally or via Kill).
func (p *Proc) Done() bool { return p.done }

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
	first func()
	rest  []func()
}

// NewSignal returns an unfired signal bound to e.
func (e *Engine) NewSignal() *Signal { return &Signal{eng: e} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire wakes every waiter. Waiters run as fresh events at the current
// virtual time, preserving deterministic ordering. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	if s.first == nil {
		return
	}
	s.eng.post(0, s.first)
	for _, fn := range s.rest {
		s.eng.post(0, fn)
	}
	s.first, s.rest = nil, nil
}

// Reset re-arms a fired signal so it can fire again. The waiters of the
// earlier firing were all woken by it; only waiters registered after the
// reset wait for the next Fire. Resetting an unfired signal is a no-op.
func (s *Signal) Reset() { s.fired = false }

// OnFire registers fn to run when the signal fires (immediately, as a new
// event, if it already has).
func (s *Signal) OnFire(fn func()) {
	switch {
	case s.fired:
		s.eng.post(0, fn)
	case s.first == nil:
		s.first = fn
	default:
		s.rest = append(s.rest, fn)
	}
}

// Wait suspends the process until the signal fires.
func (p *Proc) Wait(s *Signal) {
	if s.fired {
		return
	}
	s.OnFire(p.wake)
	_ = p.park()
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
		p.transfer(nil)
	})
	p.eng.post(d, func() {
		if woken {
			return
		}
		woken = true
		p.transfer(nil)
	})
	_ = p.park()
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

// Ready reports whether the future has been resolved.
func (f *Future[T]) Ready() bool { return f.sig.Fired() }

// Signal exposes the underlying signal (for OnFire-style consumers).
func (f *Future[T]) Signal() *Signal { return f.sig }

// Value returns the resolved value; valid only after Ready.
func (f *Future[T]) Value() (T, error) { return f.val, f.err }

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
