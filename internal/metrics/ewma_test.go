package metrics

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2025, 6, 2, 8, 0, 0, 0, time.UTC)

func TestEWMAFirstObservationSeeds(t *testing.T) {
	var e EWMA
	if e.Initialized() {
		t.Fatal("zero EWMA should be uninitialized")
	}
	if got := e.Observe(t0, 10); got != 10 {
		t.Fatalf("first observation = %v, want 10", got)
	}
	if !e.Initialized() || e.Value() != 10 {
		t.Fatalf("value after seed = %v", e.Value())
	}
}

func TestEWMAHalflifeDecay(t *testing.T) {
	e := EWMA{Halflife: time.Minute}
	e.Observe(t0, 10)
	// One halflife later, a zero sample pulls the value exactly halfway.
	if got := e.Observe(t0.Add(time.Minute), 0); math.Abs(got-5) > 1e-9 {
		t.Fatalf("after one halflife = %v, want 5", got)
	}
	// Long gaps make the old value negligible.
	if got := e.Observe(t0.Add(time.Hour), 42); math.Abs(got-42) > 1e-6 {
		t.Fatalf("after many halflives = %v, want ~42", got)
	}
}

func TestEWMAConvergesTowardConstantInput(t *testing.T) {
	e := EWMA{Halflife: 30 * time.Second}
	e.Observe(t0, 0)
	now := t0
	for i := 0; i < 20; i++ {
		now = now.Add(15 * time.Second)
		e.Observe(now, 100)
	}
	if e.Value() < 95 {
		t.Fatalf("EWMA = %v, want near 100 after sustained input", e.Value())
	}
}
