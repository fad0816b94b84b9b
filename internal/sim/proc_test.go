package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestProcPanicSurfacesFromRun: a panic inside a process that is not a Kill
// reaches the caller of Run with the same value, and the engine runs later
// processes afterwards.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine(1)
	boom := errors.New("boom")
	e.Go("panicker", func(p *Proc) {
		p.Sleep(time.Second)
		panic(boom)
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if got != boom {
		t.Fatalf("Run panicked with %v, want %v", got, boom)
	}
	ran := false
	e.Go("after", func(p *Proc) {
		p.Sleep(time.Second)
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("a process started after the panic did not run")
	}
}

// TestProcGoexitEndsRunCaller: runtime.Goexit inside a process, which is
// what t.FailNow calls, ends the goroutine that called Run instead of
// leaving it waiting on the process forever.
func TestProcGoexitEndsRunCaller(t *testing.T) {
	e := NewEngine(1)
	e.Go("exiter", func(p *Proc) {
		p.Sleep(time.Second)
		runtime.Goexit()
	})
	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		e.Run()
		returned = true
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("the goroutine running Run did not exit")
	}
	if returned {
		t.Fatal("Run returned normally after the process called Goexit")
	}
}

// TestKillDeferredSleepCompletes: a killed process's deferred cleanup may
// park, and its Sleep returns at the due time instead of unwinding the
// cleanup as a second kill.
func TestKillDeferredSleepCompletes(t *testing.T) {
	e := NewEngine(1)
	cleanedAt := time.Duration(-1)
	victim := e.Go("victim", func(p *Proc) {
		defer func() {
			p.Sleep(time.Second)
			cleanedAt = e.Since(Epoch)
		}()
		p.Sleep(time.Hour)
	})
	e.Go("killer", func(k *Proc) {
		k.Sleep(time.Minute)
		victim.Kill()
	})
	e.Run()
	if cleanedAt != time.Minute+time.Second {
		t.Fatalf("cleanup finished at %v, want 1m1s", cleanedAt)
	}
	if !victim.done {
		t.Fatal("killed process not marked done")
	}
}

// TestStaleWakeSkipsReusedCoroutine: the pending Sleep of a killed process
// still fires, and it must not resume the process that runs on the killed
// one's coroutine now. The victim's is the only idle coroutine when the
// heir starts, so the heir reuses it.
func TestStaleWakeSkipsReusedCoroutine(t *testing.T) {
	e := NewEngine(1)
	victim := e.Go("victim", func(p *Proc) { p.Sleep(time.Hour) })
	e.RunFor(time.Second)
	victim.Kill()
	e.RunFor(time.Second)
	if !victim.done {
		t.Fatal("victim not killed")
	}
	wokeAt := time.Duration(-1)
	e.Go("heir", func(p *Proc) {
		p.Sleep(2 * time.Hour)
		wokeAt = e.Since(Epoch)
	})
	e.Run()
	if want := 2*time.Hour + 2*time.Second; wokeAt != want {
		t.Fatalf("heir woke at %v, want %v", wokeAt, want)
	}
}

// TestIdleCoroutinesAreBounded: once a burst of processes finishes, at
// most maxIdle of their coroutines stay parked for reuse; the rest exit.
func TestIdleCoroutinesAreBounded(t *testing.T) {
	e := NewEngine(1)
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		e.Go("burst", func(p *Proc) { p.Sleep(time.Second) })
	}
	e.Run()
	if n := runtime.NumGoroutine(); n > before+maxIdle {
		t.Fatalf("%d goroutines after the burst, %d before; want at most %d more", n, before, maxIdle)
	}
}

// TestGoAllocBudget: on a warm engine, starting a process that sleeps once
// and finishes allocates only its Proc.
func TestGoAllocBudget(t *testing.T) {
	e := NewEngine(1)
	body := func(p *Proc) { p.Sleep(time.Millisecond) }
	e.Go("warm", body)
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.Go("p", body)
		e.Run()
	})
	if allocs != 1 {
		t.Fatalf("%.1f allocs per process, want 1 (the Proc)", allocs)
	}
}

// BenchmarkProcSwitch measures one park/wake round trip: a process posts
// its wake-up, parks, and the event loop resumes it.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine(1)
	n := b.N
	e.Go("switcher", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkGo measures starting, running and finishing a process whose
// body returns at once.
func BenchmarkGo(b *testing.B) {
	e := NewEngine(1)
	body := func(p *Proc) {}
	b.ReportAllocs()
	for b.Loop() {
		e.Go("p", body)
		e.Run()
	}
}
