package metrics

import (
	"testing"
	"time"
)

// TestWindowExpiry drives Histogram's windowed count and WindowCounter's
// total through one schedule with the same window shape (60 s in six 10 s
// age slots, the clock starting at the first event). Both rotate the same
// age-slot ring, so at every instant they must agree on what is still
// inside the window, and both must match the hand-computed expiry.
func TestWindowExpiry(t *testing.T) {
	type step struct {
		at   time.Duration // offset from the first event
		add  uint64        // events recorded at this instant
		want uint64        // windowed count right after the step
	}
	const s = time.Second
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"gradual slot expiry", []step{
			{0, 1, 1}, {15 * s, 2, 3}, {35 * s, 3, 6}, {55 * s, 0, 6},
			{60 * s, 0, 5}, // slot [0s,10s) retires
			{69 * s, 0, 5},
			{70 * s, 0, 3}, // slot [10s,20s) retires
			{89 * s, 0, 3}, // slot [20s,30s) retires empty
			{90 * s, 0, 0}, // slot [30s,40s) retires
		}},
		{"gap stepped slot by slot", []step{
			// 75 s after the start the clock has not fallen a whole
			// window behind, so it walks the ring one slot at a time.
			{0, 4, 4}, {75 * s, 1, 1},
			{129 * s, 0, 1},
			{130 * s, 0, 0}, // slot [70s,80s) retires
		}},
		{"idle gap longer than MaxAge", []step{
			{0, 4, 4}, {25 * s, 1, 5},
			{200 * s, 0, 0}, // everything expired; the clock restarts at 200s
			{205 * s, 7, 7},
			{215 * s, 2, 9},
			{259 * s, 0, 9},
			{260 * s, 0, 2}, // restarted slot [200s,210s) retires
			{270 * s, 0, 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := &Histogram{MaxAge: time.Minute, AgeBuckets: 6}
			w := &WindowCounter{MaxAge: time.Minute, Slots: 6}
			for _, st := range tc.steps {
				now := h0.Add(st.at)
				for i := uint64(0); i < st.add; i++ {
					h.Observe(now, 25)
				}
				if st.add > 0 {
					w.Add(now, st.add)
				}
				if got := h.WindowCount(now); got != st.want {
					t.Errorf("+%v: Histogram.WindowCount = %d, want %d", st.at, got, st.want)
				}
				if got := w.Total(now); got != st.want {
					t.Errorf("+%v: WindowCounter.Total = %d, want %d", st.at, got, st.want)
				}
			}
		})
	}
}

// TestWindowAllocBudget: Histogram.Observe runs on every gateway and
// engine completion and WindowCounter.Add on every engine admission. Once
// the first call has sized their rings, recording and reading — age-slot
// rotation and idle-gap resets included — must not allocate.
func TestWindowAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted by the race detector")
	}
	h := &Histogram{}
	w := &WindowCounter{}
	now := h0
	h.Observe(now, 1)
	w.Add(now, 1)
	i := 0
	tick := func() time.Time {
		i++
		if i%50 == 0 {
			now = now.Add(time.Hour) // an idle gap past every window
		} else {
			now = now.Add(7 * time.Second)
		}
		return now
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Histogram.Observe", func() { h.Observe(tick(), 12.5) }},
		{"Histogram.Quantile", func() { h.Quantile(tick(), 0.95) }},
		{"WindowCounter.Add", func() { w.Add(tick(), 3) }},
		{"WindowCounter.Total", func() { w.Total(tick()) }},
	} {
		if got := testing.AllocsPerRun(200, tc.fn); got != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, got)
		} else {
			t.Logf("%s: 0 allocs/op", tc.name)
		}
	}
}
