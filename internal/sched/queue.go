package sched

import "slices"

// Queue is the gateway's hold queue: tickets wake by priority class
// (interactive before batch) and FIFO within a class, so when capacity
// appears — a cold-started replica registering, a dead replica's
// replacement — interactive work is woken first.
//
// Holders Push a ticket on entry, point it at their current wakeup via
// SetWake, and Remove it when they stop waiting. The zero value is ready
// to use.
type Queue struct {
	tickets []*Ticket // arrival order
}

// Ticket is one held request's place in the queue.
type Ticket struct {
	class Class
	wake  func()
}

// SetWake points the ticket at the holder's current wakeup callback.
// Holders re-arm it each time they park on a fresh signal.
func (t *Ticket) SetWake(fn func()) { t.wake = fn }

// Len reports how many tickets are queued.
func (q *Queue) Len() int { return len(q.tickets) }

// Push enqueues a ticket for class (ClassUnset queues as interactive).
func (q *Queue) Push(class Class) *Ticket {
	t := &Ticket{class: class.Or(ClassInteractive)}
	q.tickets = append(q.tickets, t)
	return t
}

// Remove takes a ticket out of the queue (no-op if already removed).
func (q *Queue) Remove(t *Ticket) {
	if i := slices.Index(q.tickets, t); i >= 0 {
		q.tickets = slices.Delete(q.tickets, i, i+1)
	}
}

// WakeAll invokes every queued ticket's wake callback in priority order —
// the interactive tickets, then the rest, each in arrival order — without
// removing the tickets: holders re-check for capacity themselves and
// Remove on success. Firing in priority order is what makes interactive
// requests win the race for a single fresh replica: the simulation
// schedules woken processes in fire order.
func (q *Queue) WakeAll() {
	for _, interactive := range [...]bool{true, false} {
		for _, t := range q.tickets {
			if (t.class == ClassInteractive) == interactive && t.wake != nil {
				t.wake()
			}
		}
	}
}
