package sim

import (
	"context"
	"time"
)

// RunRealtime executes events mapping virtual time onto wall-clock time
// divided by scale (scale 60 makes one virtual minute pass per wall second).
// Unlike Run it does not return when the queue drains; it idles until a
// function is injected, and returns when the context is cancelled or an
// event calls Stop.
//
// RunRealtime is how the simulated site is exposed over real sockets: HTTP
// handler goroutines call Engine.Inject to enter the simulation and receive
// results over channels. It is the one place where real goroutines meet the
// simulation: each pass of its loop takes a waiting injected function, if
// there is one, even while events are due, and posts it at the current
// virtual time.
func (e *Engine) RunRealtime(ctx context.Context, scale float64) {
	if scale <= 0 {
		scale = 1
	}
	e.begin("RunRealtime")
	defer func() { e.running = false }()

	// Anchor: virtual vAnchor corresponds to wall wAnchor. Re-anchored when
	// the engine idles so injected events run promptly after quiet periods.
	vAnchor, wAnchor := e.now, time.Now()
	for !e.stopped && ctx.Err() == nil {
		select {
		case fn := <-e.inject:
			e.post(0, action{fn: fn})
		default:
		}

		next, ok := e.peekTime()
		if !ok {
			// Idle: wait for an injection or cancellation.
			select {
			case <-ctx.Done():
				return
			case fn := <-e.inject:
				e.post(0, action{fn: fn})
			}
			vAnchor, wAnchor = e.now, time.Now()
			continue
		}

		wallDue := wAnchor.Add(time.Duration(float64(next.Sub(vAnchor)) / scale))
		if wait := time.Until(wallDue); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				return
			case fn := <-e.inject:
				// An injection is due now, before next; re-evaluate.
				timer.Stop()
				e.post(0, action{fn: fn})
				continue
			case <-timer.C:
			}
		}
		e.Step()
	}
}
