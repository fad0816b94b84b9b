package sim

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now().Sub(Epoch) != 3*time.Second {
		t.Fatalf("clock = %v, want 3s after epoch", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.Schedule(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var at []time.Duration
	e.Schedule(time.Second, func() {
		at = append(at, e.Since(Epoch))
		e.Schedule(2*time.Second, func() {
			at = append(at, e.Since(Epoch))
		})
	})
	e.Run()
	if len(at) != 2 || at[0] != time.Second || at[1] != 3*time.Second {
		t.Fatalf("fire times = %v", at)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var count int
	for i := 1; i <= 5; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() { count++ })
	}
	e.RunUntil(Epoch.Add(3 * time.Second))
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if !e.Now().Equal(Epoch.Add(3 * time.Second)) {
		t.Fatalf("clock = %v", e.Now())
	}
	e.Run()
	if count != 5 {
		t.Fatalf("after Run count = %d, want 5", count)
	}
}

func TestRunForAdvancesIdleClock(t *testing.T) {
	e := NewEngine(1)
	e.RunFor(time.Minute)
	if e.Since(Epoch) != time.Minute {
		t.Fatalf("clock = %v, want 1m", e.Since(Epoch))
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	var count int
	e.Schedule(time.Second, func() { count++; e.Stop() })
	e.Schedule(2*time.Second, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop should halt the loop)", count)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(42)
		var trace []int64
		var step func(depth int)
		step = func(depth int) {
			trace = append(trace, e.Since(Epoch).Nanoseconds(), int64(e.Rand().Intn(1000)))
			if depth < 50 {
				e.Schedule(time.Duration(e.Rand().Intn(100))*time.Millisecond, func() { step(depth + 1) })
			}
		}
		e.Schedule(0, func() { step(0) })
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var wake []time.Duration
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Second)
		wake = append(wake, e.Since(Epoch))
		p.Sleep(2 * time.Second)
		wake = append(wake, e.Since(Epoch))
	})
	e.Run()
	if len(wake) != 2 || wake[0] != time.Second || wake[1] != 3*time.Second {
		t.Fatalf("wake times = %v", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.Go("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, "a")
			p.Sleep(2 * time.Second)
		}
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(time.Second)
		for i := 0; i < 3; i++ {
			got = append(got, "b")
			p.Sleep(2 * time.Second)
		}
	})
	e.Run()
	want := "ababab"
	var s string
	for _, g := range got {
		s += g
	}
	if s != want {
		t.Fatalf("interleaving = %q, want %q", s, want)
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine(1)
	s := e.NewSignal()
	var woke int
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			p.Wait(s)
			woke++
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Sleep(5 * time.Second)
		s.Fire()
	})
	e.Run()
	if woke != 3 {
		t.Fatalf("woke = %d, want 3", woke)
	}
	// Late waiter on a fired signal returns immediately.
	late := false
	e.Go("late", func(p *Proc) { p.Wait(s); late = true })
	e.Run()
	if !late {
		t.Fatal("late waiter did not wake on fired signal")
	}
}

func TestWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	s := e.NewSignal()
	var fired, timedOut bool
	e.Go("t1", func(p *Proc) { fired = p.WaitTimeout(s, 10*time.Second) })
	e.Go("t2", func(p *Proc) { timedOut = !p.WaitTimeout(s, time.Second) })
	e.Go("firer", func(p *Proc) { p.Sleep(5 * time.Second); s.Fire() })
	e.Run()
	if !fired {
		t.Fatal("10s waiter should have seen the 5s fire")
	}
	if !timedOut {
		t.Fatal("1s waiter should have timed out")
	}
}

func TestProcKill(t *testing.T) {
	e := NewEngine(1)
	reached := false
	p := e.Go("victim", func(p *Proc) {
		p.Sleep(time.Hour)
		reached = true
	})
	e.Go("killer", func(k *Proc) {
		k.Sleep(time.Second)
		p.Kill()
	})
	e.Run()
	if reached {
		t.Fatal("killed process continued past Sleep")
	}
	if !p.done {
		t.Fatal("killed process not marked done")
	}
}

func TestKillRunsDeferred(t *testing.T) {
	e := NewEngine(1)
	cleaned := false
	p := e.Go("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(time.Hour)
	})
	e.Go("killer", func(k *Proc) { p.Kill() })
	e.Run()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on Kill")
	}
}

func TestFuture(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture[int](e)
	var got int
	e.Go("consumer", func(p *Proc) {
		v, err := Await(p, f)
		if err != nil {
			t.Errorf("Await err = %v", err)
		}
		got = v
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(time.Second)
		f.Resolve(42, nil)
	})
	e.Run()
	if got != 42 {
		t.Fatalf("got = %d, want 42", got)
	}
}

func TestGroup(t *testing.T) {
	e := NewEngine(1)
	g := e.NewGroup()
	var doneAt time.Duration
	for i := 1; i <= 3; i++ {
		i := i
		g.Add(1)
		e.Go("worker", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Second)
			g.Finish()
		})
	}
	e.Go("waiter", func(p *Proc) {
		g.WaitAll(p)
		doneAt = e.Since(Epoch)
	})
	e.Run()
	if doneAt != 3*time.Second {
		t.Fatalf("group drained at %v, want 3s", doneAt)
	}
}

// TestGroupDrainAndRefill covers the open-loop driver shape: the in-flight
// set transiently drains to zero (firing the group's one-shot signal), then
// more work arrives. WaitAll must wait for the final drain, not return on
// the stale fire with work still outstanding.
func TestGroupDrainAndRefill(t *testing.T) {
	e := NewEngine(1)
	g := e.NewGroup()
	finished := 0
	spawn := func(start, dur time.Duration) {
		g.Add(1)
		e.Go("worker", func(p *Proc) {
			p.Sleep(start + dur)
			finished++
			g.Finish()
		})
	}
	var sawFinished int
	var doneAt time.Duration
	e.Go("driver", func(p *Proc) {
		spawn(0, time.Second) // drains at 1s...
		p.Sleep(2 * time.Second)
		spawn(0, 3*time.Second) // ...refills at 2s, drains at 5s
		g.WaitAll(p)
		sawFinished = finished
		doneAt = e.Since(Epoch)
	})
	e.Run()
	if sawFinished != 2 {
		t.Fatalf("WaitAll returned with %d of 2 tasks finished", sawFinished)
	}
	if doneAt != 5*time.Second {
		t.Fatalf("group drained at %v, want 5s", doneAt)
	}
}

func TestRealtimeInjection(t *testing.T) {
	e := NewEngine(1)
	ctx, cancel := context.WithCancel(context.Background())
	go e.RunRealtime(ctx, 1e6) // very fast scaling

	var ran atomic.Bool
	done := make(chan struct{})
	e.Inject(func() {
		e.Schedule(time.Minute, func() { // one virtual minute = 60us wall
			ran.Store(true)
			close(done)
		})
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("realtime runner did not execute injected event")
	}
	cancel()
	if !ran.Load() {
		t.Fatal("event not run")
	}
}

// goid returns the calling goroutine's ID, read from its stack header.
func goid() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return strings.Fields(string(buf[:n]))[1]
}

// TestInjectFromManyGoroutines: functions injected at once from many
// goroutines, while a ticking event keeps the engine's own events due, each
// run exactly once, on the engine's goroutine.
func TestInjectFromManyGoroutines(t *testing.T) {
	const n = 64
	e := NewEngine(1)
	var tick func()
	tick = func() { e.Schedule(time.Millisecond, tick) }
	e.Schedule(0, tick)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	owner := make(chan string, 1)
	ended := make(chan struct{})
	go func() {
		owner <- goid()
		e.RunRealtime(ctx, 1e6) // a virtual millisecond is a wall nanosecond
		close(ended)
	}()

	runs := make([]int, n)
	ranOn := make([]string, n)
	ran := make(chan struct{}, n)
	start := make(chan struct{})
	for i := range n {
		go func() {
			<-start
			e.Inject(func() {
				runs[i]++
				ranOn[i] = goid()
				ran <- struct{}{}
			})
		}()
	}
	close(start)
	for range n {
		select {
		case <-ran:
		case <-time.After(5 * time.Second):
			t.Fatal("injected functions starved while events were due")
		}
	}
	cancel()
	<-ended
	engine := <-owner
	for i := range n {
		if runs[i] != 1 || ranOn[i] != engine {
			t.Fatalf("function %d ran %d times on goroutine %q; want once on the engine's, %q", i, runs[i], ranOn[i], engine)
		}
	}
}

// TestInjectBeforeRealtimeStarts: a function injected before RunRealtime
// starts waits for it and runs once it does, at the current virtual time,
// as cmd/sitesim's deploy does.
func TestInjectBeforeRealtimeStarts(t *testing.T) {
	e := NewEngine(1)
	ran := make(chan time.Time, 1)
	taken := make(chan struct{})
	go func() {
		e.Inject(func() { ran <- e.Now() })
		close(taken)
	}()
	select {
	case <-taken:
		t.Fatal("Inject returned with no runner to take its function")
	case <-time.After(10 * time.Millisecond):
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.RunRealtime(ctx, 1e6)
	select {
	case at := <-ran:
		if !at.Equal(Epoch) {
			t.Fatalf("injected function ran at %v, want the epoch", at)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("injected function did not run once RunRealtime started")
	}
}

// BenchmarkStep measures the kernel's cost per event: one Schedule(0, …)
// event, popped and run by Step, with no process.
func BenchmarkStep(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	for b.Loop() {
		e.Schedule(0, fn)
		e.Step()
	}
}
