package sched

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/telemetry"
)

type fakeBackend struct {
	key      string
	score    int
	pressure int
	snap     telemetry.Snapshot
}

func (b *fakeBackend) Key() string                   { return b.key }
func (b *fakeBackend) Score() int                    { return b.score }
func (b *fakeBackend) Pressure() int                 { return b.pressure }
func (b *fakeBackend) Telemetry() telemetry.Snapshot { return b.snap }

func backends(n int) []Backend {
	out := make([]Backend, n)
	for i := range out {
		out[i] = &fakeBackend{key: fmt.Sprintf("replica-%d", i)}
	}
	return out
}

func TestParseClass(t *testing.T) {
	if c, err := ParseClass(""); err != nil || c != ClassUnset {
		t.Fatalf("empty = %v %v", c, err)
	}
	if c, err := ParseClass("batch"); err != nil || c != ClassBatch {
		t.Fatalf("batch = %v %v", c, err)
	}
	if c, err := ParseClass("interactive"); err != nil || c != ClassInteractive {
		t.Fatalf("interactive = %v %v", c, err)
	}
	if _, err := ParseClass("urgent"); err == nil {
		t.Fatal("unknown class should error")
	}
	if ClassBatch >= ClassInteractive {
		t.Fatal("interactive must outrank batch")
	}
	if got := ClassUnset.Or(ClassInteractive); got != ClassInteractive {
		t.Fatalf("Or default = %v", got)
	}
	if got := ClassBatch.Or(ClassInteractive); got != ClassBatch {
		t.Fatalf("Or explicit = %v", got)
	}
}

func TestDescribe(t *testing.T) {
	body := []byte(`{"model":"chat","session_id":"s-1","priority":"batch"}`)
	r, err := Describe(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if r.Model != "chat" || r.SessionKey != "s-1" || r.Class != ClassBatch {
		t.Fatalf("body attrs = %+v", r)
	}

	// Headers outrank body fields.
	r, _ = Describe(map[string]string{SessionHeader: "hdr", PriorityHeader: "interactive"}, body)
	if r.SessionKey != "hdr" || r.Class != ClassInteractive {
		t.Fatalf("header override = %+v", r)
	}

	// The OpenAI `user` field is the fallback affinity key.
	r, _ = Describe(nil, []byte(`{"model":"chat","user":"alice"}`))
	if r.SessionKey != "alice" {
		t.Fatalf("user fallback = %+v", r)
	}

	// Invalid JSON errors but still surfaces header attributes.
	r, err = Describe(map[string]string{PriorityHeader: "batch"}, []byte("not json"))
	if err == nil {
		t.Fatal("invalid JSON should error")
	}
	if r.Class != ClassBatch {
		t.Fatalf("header attrs lost on body error: %+v", r)
	}

	// Unknown priority names fail safe to batch: a mislabeled request
	// must not claim interactive priority.
	r, _ = Describe(nil, []byte(`{"model":"chat","priority":"vip"}`))
	if r.Class != ClassBatch {
		t.Fatalf("unknown priority = %+v, want batch", r)
	}
	r, _ = Describe(map[string]string{PriorityHeader: "Batch"}, nil)
	if r.Class != ClassBatch {
		t.Fatalf("case-mismatched priority = %+v, want batch", r)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	p := &RoundRobin{}
	cands := backends(3)
	var got []string
	for i := 0; i < 6; i++ {
		got = append(got, p.Pick(cands, nil).Key())
	}
	want := []string{"replica-0", "replica-1", "replica-2", "replica-0", "replica-1", "replica-2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pick %d = %s, want %s", i, got[i], want[i])
		}
	}
	if p.Pick(nil, nil) != nil {
		t.Fatal("empty candidates should pick nil")
	}
}

func TestLeastLoadedPrefersSmallestScore(t *testing.T) {
	cands := []Backend{
		&fakeBackend{key: "a", score: 5},
		&fakeBackend{key: "b", score: 2},
		&fakeBackend{key: "c", score: 2},
	}
	if got := (LeastLoaded{}).Pick(cands, nil).Key(); got != "b" {
		t.Fatalf("pick = %s, want the first smallest-score backend", got)
	}
}

func TestSessionStableMapping(t *testing.T) {
	s := &Session{}
	cands := backends(4)
	req := &Request{SessionKey: "conversation-42"}
	first := s.Pick(cands, req).Key()
	for i := 0; i < 20; i++ {
		if got := s.Pick(cands, req).Key(); got != first {
			t.Fatalf("pick %d = %s, want stable %s", i, got, first)
		}
	}
	// The mapping is independent of candidate order.
	reversed := make([]Backend, len(cands))
	for i, b := range cands {
		reversed[len(cands)-1-i] = b
	}
	if got := s.Pick(reversed, req).Key(); got != first {
		t.Fatalf("reordered candidates remapped %s -> %s", first, got)
	}
}

func TestSessionSpreadAndRemapOnRemoval(t *testing.T) {
	const sessions = 200
	cands := backends(5)
	owner := map[string]string{}
	hit := map[string]int{}
	for i := 0; i < sessions; i++ {
		key := fmt.Sprintf("session-%d", i)
		b := Affine(cands, key)
		owner[key] = b.Key()
		hit[b.Key()]++
	}
	for _, b := range cands {
		if hit[b.Key()] == 0 {
			t.Fatalf("backend %s owns no sessions; hash does not spread: %v", b.Key(), hit)
		}
	}

	// Remove one backend: only its sessions remap (the consistent-hashing
	// property that preserves every other replica's warm KV cache).
	removed := cands[2].Key()
	remaining := append(append([]Backend{}, cands[:2]...), cands[3:]...)
	for key, prev := range owner {
		now := Affine(remaining, key).Key()
		if prev != removed && now != prev {
			t.Fatalf("session %s remapped %s -> %s though its replica survived", key, prev, now)
		}
		if prev == removed && now == removed {
			t.Fatalf("session %s still mapped to the removed replica", key)
		}
	}
}

func TestSessionSpillOnSaturation(t *testing.T) {
	a := &fakeBackend{key: "a"}
	b := &fakeBackend{key: "b", score: 3}
	c := &fakeBackend{key: "c", score: 1}
	cands := []Backend{a, b, c}
	s := &Session{SpillDepth: 4}

	// Find a key affine to a.
	key := ""
	for i := 0; ; i++ {
		key = fmt.Sprintf("k-%d", i)
		if Affine(cands, key).Key() == "a" {
			break
		}
	}
	req := &Request{SessionKey: key}
	if got := s.Pick(cands, req).Key(); got != "a" {
		t.Fatalf("unsaturated pick = %s, want the affine replica", got)
	}
	a.score = 5 // past SpillDepth
	if got := s.Pick(cands, req).Key(); got != "c" {
		t.Fatalf("saturated pick = %s, want the least-loaded other replica", got)
	}
	if s.Spills() != 1 {
		t.Fatalf("spills = %d, want 1", s.Spills())
	}
	a.score = 0
	if got := s.Pick(cands, req).Key(); got != "a" {
		t.Fatalf("post-drain pick = %s, want the affine replica again", got)
	}
	// A saturated sole replica still serves its sessions.
	a.score = 50
	if got := s.Pick([]Backend{a}, req).Key(); got != "a" {
		t.Fatalf("sole saturated replica pick = %s", got)
	}
}

func TestLeastLoadedTieBreaksOnKVPressure(t *testing.T) {
	full := telemetry.Snapshot{KVBlocksTotal: 100, KVBlocksUsed: 90, KVBlocksCached: 5}
	roomy := telemetry.Snapshot{KVBlocksTotal: 100, KVBlocksUsed: 40, KVBlocksCached: 30}
	cands := []Backend{
		&fakeBackend{key: "a", score: 2, snap: full},
		&fakeBackend{key: "b", score: 2, snap: roomy},
	}
	if got := (LeastLoaded{}).Pick(cands, nil).Key(); got != "b" {
		t.Fatalf("tie pick = %s, want the replica with KV headroom", got)
	}
	// A lower score still outranks better KV headroom.
	cands[0].(*fakeBackend).score = 1
	if got := (LeastLoaded{}).Pick(cands, nil).Key(); got != "a" {
		t.Fatalf("score pick = %s, want the lower-score replica", got)
	}
	// Without telemetry, ties keep PR 1's earliest-registered rule.
	plain := []Backend{
		&fakeBackend{key: "a", score: 2},
		&fakeBackend{key: "b", score: 2},
	}
	if got := (LeastLoaded{}).Pick(plain, nil).Key(); got != "a" {
		t.Fatalf("telemetry-less tie pick = %s, want the earliest", got)
	}
}

func TestSessionSpillsOnKVPressure(t *testing.T) {
	a := &fakeBackend{key: "a"}
	b := &fakeBackend{key: "b", score: 1}
	cands := []Backend{a, b}
	s := &Session{SpillDepth: 10}
	key := ""
	for i := 0; ; i++ {
		key = fmt.Sprintf("k-%d", i)
		if Affine(cands, key).Key() == "a" {
			break
		}
	}
	req := &Request{SessionKey: key}
	// Short queue, but the engine's KV is nearly all held by live
	// sequences: the warm cache the session came back for is gone, so the
	// pick spills despite Score being far under SpillDepth.
	a.snap = telemetry.Snapshot{KVBlocksTotal: 100, KVBlocksUsed: 95, KVBlocksCached: 2}
	if got := s.Pick(cands, req).Key(); got != "b" {
		t.Fatalf("KV-pressed pick = %s, want spill to b", got)
	}
	if s.Spills() != 1 {
		t.Fatalf("spills = %d, want 1", s.Spills())
	}
	// Heavy residency that is mostly reclaimable cache is NOT pressure:
	// the session stays affine.
	a.snap = telemetry.Snapshot{KVBlocksTotal: 100, KVBlocksUsed: 95, KVBlocksCached: 80}
	if got := s.Pick(cands, req).Key(); got != "a" {
		t.Fatalf("cache-resident pick = %s, want the affine replica", got)
	}
	// KVSpillPressure >= 1 disables the check — including exactly 1.0,
	// which a fully saturated engine's pressure can equal.
	a.snap = telemetry.Snapshot{KVBlocksTotal: 100, KVBlocksUsed: 100}
	for _, off := range []float64{1.0, 1.1} {
		s.KVSpillPressure = off
		if got := s.Pick(cands, req).Key(); got != "a" {
			t.Fatalf("KVSpillPressure=%g pick = %s, want the affine replica (check disabled)", off, got)
		}
	}
}

func TestSessionKeylessFallsBackToLeastLoaded(t *testing.T) {
	cands := []Backend{
		&fakeBackend{key: "a", score: 9},
		&fakeBackend{key: "b", score: 1},
	}
	s := &Session{}
	if got := s.Pick(cands, &Request{}).Key(); got != "b" {
		t.Fatalf("keyless pick = %s, want least-loaded", got)
	}
}

func TestQueueDepthAdmitter(t *testing.T) {
	a := QueueDepth{MaxWaiting: 8}
	st := State{Backends: []Backend{
		&fakeBackend{key: "a", pressure: 12},
		&fakeBackend{key: "b", pressure: 3},
	}}
	if out := a.Admit(&Request{}, st); !out.Admit {
		t.Fatalf("one clear replica should admit: %+v", out)
	}
	st.Backends[1].(*fakeBackend).pressure = 9
	if out := a.Admit(&Request{}, st); out.Admit {
		t.Fatal("every replica past threshold should shed")
	}
	if out := a.Admit(&Request{}, State{}); !out.Admit {
		t.Fatal("zero routable replicas defer to the hold path")
	}
	if out := (QueueDepth{}).Admit(&Request{}, st); !out.Admit {
		t.Fatal("MaxWaiting 0 disables the breaker")
	}
}

func TestSLOHysteresis(t *testing.T) {
	slo := &SLO{Target: 4 * time.Second}
	p95 := 1 * time.Second
	st := State{
		Backends: backends(1),
		P95:      func() time.Duration { return p95 },
	}
	batch := &Request{Class: ClassBatch}
	inter := &Request{Class: ClassInteractive}

	if out := slo.Admit(batch, st); !out.Admit || slo.Engaged() {
		t.Fatalf("under target: %+v engaged=%v", out, slo.Engaged())
	}
	p95 = 5 * time.Second
	if out := slo.Admit(batch, st); out.Admit {
		t.Fatal("breach should shed batch")
	}
	if !slo.Engaged() || slo.Sheds() != 1 {
		t.Fatalf("engaged=%v sheds=%d", slo.Engaged(), slo.Sheds())
	}
	if out := slo.Admit(inter, st); !out.Admit {
		t.Fatal("interactive is never SLO-shed")
	}
	// Hysteresis: p95 back under target but above the release fraction
	// (0.85 × 4s = 3.4s) keeps the breaker engaged.
	p95 = 3700 * time.Millisecond
	if out := slo.Admit(batch, st); out.Admit {
		t.Fatal("inside the hysteresis band the breaker must stay engaged")
	}
	p95 = 3 * time.Second
	if out := slo.Admit(batch, st); !out.Admit || slo.Engaged() {
		t.Fatalf("below release the breaker must clear: %+v engaged=%v", out, slo.Engaged())
	}
	// Unset classes default to interactive: never shed.
	p95 = 10 * time.Second
	if out := slo.Admit(&Request{}, st); !out.Admit {
		t.Fatal("unset class defaults to interactive and is admitted")
	}
	// Zero routable replicas defer to the hold path even while engaged.
	if out := slo.Admit(batch, st); out.Admit {
		t.Fatal("engaged breaker with backends should shed batch")
	}
	if out := slo.Admit(batch, State{P95: st.P95}); !out.Admit {
		t.Fatal("no routable replicas: the hold path owns the request")
	}
}

func TestQueuePriorityOrdering(t *testing.T) {
	var q Queue
	b1 := q.Push(ClassBatch)
	i1 := q.Push(ClassInteractive)
	b2 := q.Push(ClassBatch)
	i2 := q.Push(ClassUnset) // queues as interactive
	if q.Len() != 4 {
		t.Fatalf("len = %d", q.Len())
	}
	for n, want := range []*Ticket{i1, i2, b1, b2} {
		if got := q.Pop(); got != want {
			t.Fatalf("pop %d = %+v, want %+v (interactive preempts batch, FIFO within class)", n, got, want)
		}
	}
	if q.Pop() != nil || q.Len() != 0 {
		t.Fatal("drained queue should be empty")
	}
}

func TestQueueRemoveAndWakeOrder(t *testing.T) {
	var q Queue
	var woken []string
	push := func(name string, class Class) *Ticket {
		t := q.Push(class)
		t.SetWake(func() { woken = append(woken, name) })
		return t
	}
	push("batch-1", ClassBatch)
	mid := push("batch-2", ClassBatch)
	push("inter-1", ClassInteractive)
	q.Remove(mid)
	q.Remove(mid) // double-remove is a no-op
	if q.Len() != 2 {
		t.Fatalf("len after remove = %d", q.Len())
	}
	q.WakeAll()
	if len(woken) != 2 || woken[0] != "inter-1" || woken[1] != "batch-1" {
		t.Fatalf("wake order = %v, want interactive first", woken)
	}
	// Tickets stay queued after WakeAll (holders remove themselves).
	if q.Len() != 2 {
		t.Fatalf("len after wake = %d", q.Len())
	}
}
