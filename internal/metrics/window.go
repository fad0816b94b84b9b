package metrics

import "time"

// WindowCounter counts events over a trailing window using the same
// rotating age-slot ring as Histogram: Add records into the current slot,
// slots retire as virtual time passes, and Total merges the live slots.
// It backs the engine's *windowed* prefix hit/miss pair — the cumulative
// counters never reset, so placement reading them would chase hours-old
// cache behaviour instead of what the replica holds right now.
//
// The zero value is usable; configuration fields are read at the first
// Add. No locking — the simulation's cooperative scheduler serializes
// access.
type WindowCounter struct {
	// MaxAge is the trailing window Total answers over (default 2
	// minutes — several gateway probe rounds, short enough that a
	// replica's hit rate decays once its sessions move away).
	MaxAge time.Duration
	// Slots is the rotation granularity (default 6): counts expire in
	// MaxAge/Slots steps.
	Slots int

	ring []uint64
	age  ageClock
}

func (w *WindowCounter) lazyInit(now time.Time) {
	if w.ring != nil {
		return
	}
	if w.MaxAge <= 0 {
		w.MaxAge = 2 * time.Minute
	}
	if w.Slots <= 0 {
		w.Slots = 6
	}
	w.ring = make([]uint64, w.Slots)
	w.age.end = now.Add(w.MaxAge / time.Duration(w.Slots))
}

// rotate retires age slots that have aged out at time now.
func (w *WindowCounter) rotate(now time.Time) {
	w.age.rotate(now, w.MaxAge, len(w.ring), func(i int) { w.ring[i] = 0 })
}

// Add records n events at virtual time now.
func (w *WindowCounter) Add(now time.Time, n uint64) {
	w.lazyInit(now)
	w.rotate(now)
	w.ring[w.age.cur] += n
}

// Total returns the count of events inside the trailing window at now.
func (w *WindowCounter) Total(now time.Time) uint64 {
	if w.ring == nil {
		return 0
	}
	w.rotate(now)
	var n uint64
	for _, c := range w.ring {
		n += c
	}
	return n
}

// ageClock is the age-slot clock Histogram and WindowCounter share: a
// ring of n slots, each maxAge/n wide, where cur is the slot receiving
// new events and end is the virtual time it closes.
type ageClock struct {
	cur int
	end time.Time
}

// rotate retires the slots that have aged out at time now, calling reset
// with the index of each slot it reuses.
func (c *ageClock) rotate(now time.Time, maxAge time.Duration, n int, reset func(slot int)) {
	width := maxAge / time.Duration(n)
	for !now.Before(c.end) {
		c.cur = (c.cur + 1) % n
		reset(c.cur)
		c.end = c.end.Add(width)
		// A long idle gap: everything expired, jump the slot clock
		// forward instead of spinning through the gap slot by slot.
		if now.Sub(c.end) > maxAge {
			for i := 0; i < n; i++ {
				reset(i)
			}
			c.end = now.Add(width)
			return
		}
	}
}
