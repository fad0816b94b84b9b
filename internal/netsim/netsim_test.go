package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleFlowAnalytic(t *testing.T) {
	e := sim.NewEngine(1)
	fb := New(e)
	l := fb.AddLink("wire", 100, 0) // 100 B/s
	var doneAt time.Duration
	e.Go("xfer", func(p *sim.Proc) {
		fb.Transfer(p, 1000, []*Link{l}, StartOptions{})
		doneAt = e.Since(sim.Epoch)
	})
	e.Run()
	if got := doneAt.Seconds(); !almostEqual(got, 10, 0.01) {
		t.Fatalf("1000B over 100B/s finished at %.3fs, want 10s", got)
	}
}

func TestLatencyAddsToCompletion(t *testing.T) {
	e := sim.NewEngine(1)
	fb := New(e)
	l := fb.AddLink("wan", 100, 2*time.Second)
	var doneAt time.Duration
	e.Go("xfer", func(p *sim.Proc) {
		fb.Transfer(p, 100, []*Link{l}, StartOptions{})
		doneAt = e.Since(sim.Epoch)
	})
	e.Run()
	if got := doneAt.Seconds(); !almostEqual(got, 3, 0.01) {
		t.Fatalf("finished at %.3fs, want 3s (2s latency + 1s transfer)", got)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	e := sim.NewEngine(1)
	fb := New(e)
	l := fb.AddLink("wire", 100, 0)
	var first, second time.Duration
	e.Go("a", func(p *sim.Proc) {
		fb.Transfer(p, 500, []*Link{l}, StartOptions{})
		first = e.Since(sim.Epoch)
	})
	e.Go("b", func(p *sim.Proc) {
		fb.Transfer(p, 1000, []*Link{l}, StartOptions{})
		second = e.Since(sim.Epoch)
	})
	e.Run()
	// Both run at 50 B/s until A finishes at t=10; B then has 500 left at
	// 100 B/s, finishing at t=15.
	if !almostEqual(first.Seconds(), 10, 0.05) {
		t.Fatalf("first done at %.3fs, want 10s", first.Seconds())
	}
	if !almostEqual(second.Seconds(), 15, 0.05) {
		t.Fatalf("second done at %.3fs, want 15s", second.Seconds())
	}
}

func TestBottleneckMaxMin(t *testing.T) {
	// Flow A uses only the big link; flows B and C traverse big + small.
	// Small link (10) gives B and C 5 each; A gets the remaining 90.
	e := sim.NewEngine(1)
	fb := New(e)
	big := fb.AddLink("big", 100, 0)
	small := fb.AddLink("small", 10, 0)
	fa := fb.Start(1e9, []*Link{big}, StartOptions{})
	fbf := fb.Start(1e9, []*Link{big, small}, StartOptions{})
	fc := fb.Start(1e9, []*Link{big, small}, StartOptions{})
	e.RunFor(time.Second)
	if !almostEqual(fa.rate, 90, 0.01) {
		t.Fatalf("A rate = %.2f, want 90", fa.rate)
	}
	if !almostEqual(fbf.rate, 5, 0.01) || !almostEqual(fc.rate, 5, 0.01) {
		t.Fatalf("B,C rates = %.2f,%.2f want 5,5", fbf.rate, fc.rate)
	}
	fb.Cancel(fa)
	fb.Cancel(fbf)
	fb.Cancel(fc)
	e.Run()
}

func TestRateCap(t *testing.T) {
	e := sim.NewEngine(1)
	fb := New(e)
	l := fb.AddLink("wire", 100, 0)
	var doneAt time.Duration
	e.Go("xfer", func(p *sim.Proc) {
		fb.Transfer(p, 100, []*Link{l}, StartOptions{RateCap: 10})
		doneAt = e.Since(sim.Epoch)
	})
	e.Run()
	if !almostEqual(doneAt.Seconds(), 10, 0.05) {
		t.Fatalf("capped flow done at %.3fs, want 10s", doneAt.Seconds())
	}
}

func TestCapacityChangeMidFlight(t *testing.T) {
	e := sim.NewEngine(1)
	fb := New(e)
	l := fb.AddLink("route", 10, 0) // slow default route
	var doneAt time.Duration
	e.Go("xfer", func(p *sim.Proc) {
		fb.Transfer(p, 200, []*Link{l}, StartOptions{})
		doneAt = e.Since(sim.Epoch)
	})
	e.Schedule(10*time.Second, func() { fb.SetCapacity("route", 100) })
	e.Run()
	// 100 B in the first 10 s, then 100 B at 100 B/s = 1 s more.
	if !almostEqual(doneAt.Seconds(), 11, 0.05) {
		t.Fatalf("done at %.3fs, want 11s", doneAt.Seconds())
	}
}

func TestCancelFiresDoneWithoutOnDone(t *testing.T) {
	e := sim.NewEngine(1)
	fb := New(e)
	l := fb.AddLink("wire", 1, 0)
	onDone := false
	f := fb.Start(1e9, []*Link{l}, StartOptions{OnDone: func() { onDone = true }})
	e.Schedule(time.Second, func() { fb.Cancel(f) })
	e.Run()
	if !f.done.Fired() {
		t.Fatal("done signal not fired on cancel")
	}
	if !f.canceled {
		t.Fatal("flow not marked canceled")
	}
	if onDone {
		t.Fatal("OnDone invoked for canceled flow")
	}
	if len(fb.flows) != 0 {
		t.Fatalf("active flows = %d, want 0", len(fb.flows))
	}
}

func TestZeroSizeFlowCompletesAfterLatency(t *testing.T) {
	e := sim.NewEngine(1)
	fb := New(e)
	l := fb.AddLink("wire", 100, 500*time.Millisecond)
	var doneAt time.Duration
	e.Go("xfer", func(p *sim.Proc) {
		fb.Transfer(p, 0, []*Link{l}, StartOptions{})
		doneAt = e.Since(sim.Epoch)
	})
	e.Run()
	if !almostEqual(doneAt.Seconds(), 0.5, 0.01) {
		t.Fatalf("zero-size flow done at %v, want 500ms", doneAt)
	}
}

func TestNFlowsSameImageContention(t *testing.T) {
	// The §2.3 scenario in miniature: N nodes pull from one registry egress.
	// Total bytes N*S over shared capacity C must take N*S/C.
	e := sim.NewEngine(1)
	fb := New(e)
	egress := fb.AddLink("registry-egress", 1000, 0)
	const n, size = 8, 4000.0
	var last time.Duration
	for i := 0; i < n; i++ {
		nic := fb.AddLink("nic-"+string(rune('a'+i)), 10000, 0)
		e.Go("pull", func(p *sim.Proc) {
			fb.Transfer(p, size, []*Link{egress, nic}, StartOptions{})
			if d := e.Since(sim.Epoch); d > last {
				last = d
			}
		})
	}
	e.Run()
	want := n * size / 1000
	if !almostEqual(last.Seconds(), want, 0.1) {
		t.Fatalf("last pull finished at %.2fs, want %.2fs", last.Seconds(), want)
	}
}

// TestMaxMinInvariants drives random topologies and checks that
// (1) no link is oversubscribed and (2) every link is either saturated or
// all of its flows are constrained elsewhere (work conservation).
func TestMaxMinInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine(seed)
		fb := New(e)
		nLinks := 2 + rng.Intn(5)
		links := make([]*Link, nLinks)
		for i := range links {
			links[i] = fb.AddLink(string(rune('A'+i)), 10+float64(rng.Intn(1000)), 0)
		}
		nFlows := 1 + rng.Intn(10)
		flows := make([]*Flow, nFlows)
		for i := range flows {
			perm := rng.Perm(nLinks)
			route := make([]*Link, 1+rng.Intn(nLinks))
			for j := range route {
				route[j] = links[perm[j]]
			}
			flows[i] = fb.Start(1e12, route, StartOptions{})
		}
		e.RunFor(time.Millisecond) // let admissions run
		ok := true
		for _, l := range links {
			sum := 0.0
			for _, f := range l.flows {
				sum += f.rate
			}
			if sum > l.Capacity*(1+1e-9)+1e-9 {
				t.Logf("seed %d: link %s oversubscribed: %.3f > %.3f", seed, l.ID, sum, l.Capacity)
				ok = false
			}
			if len(l.flows) > 0 && sum < l.Capacity-1e-6 {
				// Not saturated: every flow here must be bottlenecked on a
				// link whose fair share is below what this link could give.
				for _, f := range l.flows {
					bottlenecked := false
					for _, rl := range f.route {
						rsum := 0.0
						for _, g := range rl.flows {
							rsum += g.rate
						}
						if rl != l && rsum >= rl.Capacity-1e-6 {
							bottlenecked = true
						}
					}
					if !bottlenecked {
						t.Logf("seed %d: link %s unsaturated (%.3f/%.3f) but flow %s (rate %.3f) not bottlenecked elsewhere",
							seed, l.ID, sum, l.Capacity, f.ID, f.rate)
						ok = false
					}
				}
			}
		}
		for _, f := range flows {
			fb.Cancel(f)
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestConservationOfBytes checks settled accounting: a flow's delivered bytes
// at completion equal its size even across many reallocation events.
func TestConservationOfBytes(t *testing.T) {
	e := sim.NewEngine(7)
	fb := New(e)
	l := fb.AddLink("wire", 100, 0)
	const size = 1000.0
	start := e.Now()
	var doneAt time.Duration
	e.Go("main", func(p *sim.Proc) {
		fb.Transfer(p, size, []*Link{l}, StartOptions{})
		doneAt = e.Since(start)
	})
	// Churn: short flows arriving every second force reallocations.
	for i := 1; i <= 8; i++ {
		d := time.Duration(i) * time.Second
		e.Schedule(d, func() { fb.Start(25, []*Link{l}, StartOptions{}) })
	}
	e.Run()
	// Main flow shares with 8 × 25B flows: total extra bytes 200 → the wire
	// delivers 1200 bytes total; main must finish by the time all bytes pass.
	elapsed := doneAt.Seconds()
	if elapsed < size/100 || elapsed > (size+200)/100+0.1 {
		t.Fatalf("main flow finished at %.3fs, expected within [10, 12.1]", elapsed)
	}
}

func TestUnitHelpers(t *testing.T) {
	if Gbps(8) != 1e9 {
		t.Fatalf("Gbps(8) = %v, want 1e9 B/s", Gbps(8))
	}
	if GBps(2) != 2e9 {
		t.Fatalf("GBps(2) = %v", GBps(2))
	}
}
