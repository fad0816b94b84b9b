package sim

import (
	"context"
	"time"
)

// RunRealtime executes events mapping virtual time onto wall-clock time
// divided by scale (scale 60 makes one virtual minute pass per wall second).
// Unlike Run it does not return when the queue drains; it idles until new
// events are injected, the context is cancelled, or Stop is called.
//
// RunRealtime is how the simulated site is exposed over real sockets: HTTP
// handler goroutines call Engine.Inject to enter the simulation and receive
// results over channels.
func (e *Engine) RunRealtime(ctx context.Context, scale float64) {
	if scale <= 0 {
		scale = 1
	}
	e.mu.Lock()
	if e.running {
		e.mu.Unlock()
		panic("sim: Engine.RunRealtime called re-entrantly")
	}
	e.running = true
	e.stopped = false
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.running = false
		e.mu.Unlock()
	}()

	// Anchor: virtual vAnchor corresponds to wall wAnchor. Re-anchored when
	// the engine idles so injected events run promptly after quiet periods.
	vAnchor := e.Now()
	wAnchor := time.Now()

	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		e.mu.Lock()
		stop := e.stopped
		e.mu.Unlock()
		if stop {
			return
		}

		next, ok := e.peekTime()
		if !ok {
			// Idle: wait for an injection or cancellation.
			select {
			case <-ctx.Done():
				return
			case <-e.injectCh:
			}
			vAnchor = e.Now()
			wAnchor = time.Now()
			continue
		}

		wallDue := wAnchor.Add(time.Duration(float64(next.Sub(vAnchor)) / scale))
		wait := time.Until(wallDue)
		if wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				return
			case <-e.injectCh:
				timer.Stop()
				// A new (possibly earlier) event arrived; re-evaluate.
				continue
			case <-timer.C:
			}
		}
		e.Step()
	}
}
