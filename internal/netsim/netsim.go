// Package netsim models shared network and storage bandwidth as a fluid
// max-min fair allocation problem in virtual time.
//
// A Fabric owns Links (capacity in bytes/second). A Flow is a finite transfer
// that traverses an ordered set of links; all concurrent flows sharing a link
// divide its capacity max-min fairly (progressive filling). Whenever the set
// of flows changes, remaining bytes are settled at the old rates and rates are
// recomputed, so transfer completion times emerge from contention — this is
// what reproduces the paper's container-registry pull bottleneck (§2.3) and
// the S3 routing bandwidth fix (§2.4).
package netsim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/sim"
)

// Link is a capacity-constrained segment: a NIC, a switch uplink, a registry's
// egress, a filesystem's aggregate read bandwidth, a WAN route.
type Link struct {
	ID       string
	Capacity float64 // bytes per second
	Latency  time.Duration

	flows []*Flow // active flows traversing this link
}

func (l *Link) removeFlow(f *Flow) {
	for i, g := range l.flows {
		if g == f {
			l.flows = append(l.flows[:i], l.flows[i+1:]...)
			return
		}
	}
}

// Flow is one in-progress transfer.
type Flow struct {
	ID        string
	size      float64
	remaining float64
	route     []*Link
	capLink   *Link // non-nil when a per-flow rate cap was requested

	rate     float64
	settled  time.Time
	done     *sim.Signal
	onDone   func()
	finished bool
	canceled bool
}

// Fabric owns links and flows and drives completions on a sim engine.
type Fabric struct {
	eng   *sim.Engine
	links map[string]*Link
	flows []*Flow
	next  *sim.Timer
	seq   int
}

// New returns an empty fabric bound to eng.
func New(eng *sim.Engine) *Fabric {
	return &Fabric{eng: eng, links: make(map[string]*Link)}
}

// AddLink creates a link with the given capacity (bytes/second).
// It panics on a duplicate ID so wiring mistakes fail fast.
func (fb *Fabric) AddLink(id string, capacity float64, latency time.Duration) *Link {
	if _, dup := fb.links[id]; dup {
		panic(fmt.Sprintf("netsim: duplicate link %q", id))
	}
	l := &Link{ID: id, Capacity: capacity, Latency: latency}
	fb.links[id] = l
	return l
}

// SetCapacity changes a link's capacity and reallocates active flows.
// This models the paper's routing change that improved Hops→S3 bandwidth by
// an order of magnitude, as well as maintenance degradations.
func (fb *Fabric) SetCapacity(id string, capacity float64) {
	l := fb.links[id]
	if l == nil {
		panic(fmt.Sprintf("netsim: unknown link %q", id))
	}
	fb.settleAll()
	l.Capacity = capacity
	fb.reallocate()
}

// StartOptions tune a single transfer.
type StartOptions struct {
	RateCap float64 // bytes/second client-side cap; 0 means none
	OnDone  func()  // invoked (as a fresh event) when the transfer completes
}

// Start begins a transfer of size bytes across route. The transfer begins
// after the route's summed latency and completes when its allocated
// bandwidth has delivered all bytes. Must be called from the engine loop.
func (fb *Fabric) Start(size float64, route []*Link, opts StartOptions) *Flow {
	fb.seq++
	f := &Flow{
		ID:        fmt.Sprintf("flow-%d", fb.seq),
		size:      size,
		remaining: size,
		route:     append([]*Link(nil), route...),
		done:      fb.eng.NewSignal(),
		onDone:    opts.OnDone,
	}
	if opts.RateCap > 0 {
		f.capLink = &Link{ID: f.ID + "/cap", Capacity: opts.RateCap}
		f.route = append(f.route, f.capLink)
	}
	var latency time.Duration
	for _, l := range route {
		latency += l.Latency
	}
	fb.eng.Schedule(latency, func() { fb.admit(f) })
	return f
}

// Transfer runs a flow to completion from a process, returning false if the
// flow was canceled underneath it.
func (fb *Fabric) Transfer(p *sim.Proc, size float64, route []*Link, opts StartOptions) bool {
	f := fb.Start(size, route, opts)
	p.Wait(f.done)
	return !f.canceled
}

// Cancel aborts an in-progress flow; its done signal fires immediately and
// OnDone is not invoked.
func (fb *Fabric) Cancel(f *Flow) {
	if f.finished {
		return
	}
	fb.settleAll()
	f.canceled = true
	fb.retire(f)
	fb.reallocate()
	f.done.Fire()
}

func (fb *Fabric) admit(f *Flow) {
	if f.canceled {
		return
	}
	fb.settleAll()
	fb.flows = append(fb.flows, f)
	for _, l := range f.route {
		l.flows = append(l.flows, f)
	}
	f.settled = fb.eng.Now()
	if f.remaining <= 0 {
		fb.complete(f)
	}
	fb.reallocate()
}

// settleAll charges elapsed time against every active flow's remaining bytes.
func (fb *Fabric) settleAll() {
	now := fb.eng.Now()
	for _, f := range fb.flows {
		dt := now.Sub(f.settled).Seconds()
		if dt > 0 && f.rate > 0 {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		f.settled = now
	}
}

func (fb *Fabric) retire(f *Flow) {
	f.finished = true
	for _, l := range f.route {
		l.removeFlow(f)
	}
	for i, g := range fb.flows {
		if g == f {
			fb.flows = append(fb.flows[:i], fb.flows[i+1:]...)
			break
		}
	}
}

func (fb *Fabric) complete(f *Flow) {
	fb.retire(f)
	f.done.Fire()
	if f.onDone != nil {
		fb.eng.Schedule(0, f.onDone)
	}
}

// reallocate recomputes max-min fair rates via progressive filling and
// schedules the next completion event.
func (fb *Fabric) reallocate() {
	// Collect the links participating in any active flow, deterministically.
	linkSet := make(map[*Link]bool)
	var links []*Link
	for _, f := range fb.flows {
		f.rate = 0
		for _, l := range f.route {
			if !linkSet[l] {
				linkSet[l] = true
				links = append(links, l)
			}
		}
	}
	sort.Slice(links, func(i, j int) bool { return links[i].ID < links[j].ID })

	frozen := make(map[*Flow]bool)
	for {
		bestShare := math.Inf(1)
		var bestLink *Link
		for _, l := range links {
			unfrozen := 0
			used := 0.0
			for _, f := range l.flows {
				if frozen[f] {
					used += f.rate
				} else {
					unfrozen++
				}
			}
			if unfrozen == 0 {
				continue
			}
			avail := l.Capacity - used
			if avail < 0 {
				avail = 0
			}
			share := avail / float64(unfrozen)
			if share < bestShare {
				bestShare = share
				bestLink = l
			}
		}
		if bestLink == nil {
			break
		}
		for _, f := range bestLink.flows {
			if !frozen[f] {
				frozen[f] = true
				f.rate = bestShare
			}
		}
	}
	// Flows with an empty route (no constraining links) finish instantly.
	for _, f := range fb.flows {
		if len(f.route) == 0 {
			f.rate = math.Inf(1)
		}
	}
	fb.scheduleNext()
}

func (fb *Fabric) scheduleNext() {
	if fb.next != nil {
		fb.next.Stop()
		fb.next = nil
	}
	soonest := math.Inf(1)
	for _, f := range fb.flows {
		if math.IsInf(f.rate, 1) {
			soonest = 0
			break
		}
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < soonest {
			soonest = t
		}
	}
	// No completion on the horizon (no flows, all rates zero, or finish
	// times beyond Duration range — which would overflow into a negative
	// delay and spin the event loop). The next topology change reschedules.
	const maxHorizonSeconds = 1e9 // ~31 years
	if math.IsInf(soonest, 1) || soonest > maxHorizonSeconds {
		return
	}
	fb.next = fb.eng.Schedule(time.Duration(soonest*float64(time.Second))+time.Nanosecond, func() {
		fb.next = nil
		fb.settleAll()
		// Complete every drained flow (iterate over a copy; complete mutates).
		var doneFlows []*Flow
		for _, f := range fb.flows {
			if f.remaining <= 1e-6 || math.IsInf(f.rate, 1) {
				doneFlows = append(doneFlows, f)
			}
		}
		for _, f := range doneFlows {
			fb.complete(f)
		}
		fb.reallocate()
	})
}

// Gbps converts gigabits/second to the bytes/second unit links use.
func Gbps(g float64) float64 { return g * 1e9 / 8 }

// GBps converts gigabytes/second to bytes/second.
func GBps(g float64) float64 { return g * 1e9 }
