package sched

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// cand is a candidate that has never reported telemetry.
func cand(key string, score int) Candidate {
	return Candidate{Key: key, Score: score, Snap: &telemetry.Snapshot{}}
}

func backends(n int) []Candidate {
	out := make([]Candidate, n)
	for i := range out {
		out[i] = cand(fmt.Sprintf("replica-%d", i), 0)
	}
	return out
}

// pickKey runs one pick and names the chosen candidate ("" for none).
func pickKey(p Picker, cands []Candidate, req *Request) string {
	if i := p.Pick(cands, req); i >= 0 {
		return cands[i].Key
	}
	return ""
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
		got = append(got, pickKey(p, cands, nil))
	}
	want := []string{"replica-0", "replica-1", "replica-2", "replica-0", "replica-1", "replica-2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pick %d = %s, want %s", i, got[i], want[i])
		}
	}
	if p.Pick(nil, nil) != -1 {
		t.Fatal("empty candidates should pick -1")
	}
}

func TestLeastLoadedPrefersSmallestScore(t *testing.T) {
	cands := []Candidate{cand("a", 5), cand("b", 2), cand("c", 2)}
	if got := pickKey(LeastLoaded{}, cands, nil); got != "b" {
		t.Fatalf("pick = %s, want the first smallest-score backend", got)
	}
}

func TestSessionStableMapping(t *testing.T) {
	s := &Session{}
	cands := backends(4)
	req := &Request{SessionKey: "conversation-42"}
	first := pickKey(s, cands, req)
	for i := 0; i < 20; i++ {
		if got := pickKey(s, cands, req); got != first {
			t.Fatalf("pick %d = %s, want stable %s", i, got, first)
		}
	}
	// The mapping is independent of candidate order.
	reversed := make([]Candidate, len(cands))
	for i, b := range cands {
		reversed[len(cands)-1-i] = b
	}
	if got := pickKey(s, reversed, req); got != first {
		t.Fatalf("reordered candidates remapped %s -> %s", first, got)
	}
	if Affine(nil, req.SessionKey) != -1 {
		t.Fatal("no candidates: Affine should return -1")
	}
}

func TestSessionSpreadAndRemapOnRemoval(t *testing.T) {
	const sessions = 200
	cands := backends(5)
	owner := map[string]string{}
	hit := map[string]int{}
	for i := 0; i < sessions; i++ {
		key := fmt.Sprintf("session-%d", i)
		b := cands[Affine(cands, key)]
		owner[key] = b.Key
		hit[b.Key]++
	}
	for _, b := range cands {
		if hit[b.Key] == 0 {
			t.Fatalf("backend %s owns no sessions; hash does not spread: %v", b.Key, hit)
		}
	}

	// Remove one backend: only its sessions remap (the consistent-hashing
	// property that preserves every other replica's warm KV cache).
	removed := cands[2].Key
	remaining := append(append([]Candidate{}, cands[:2]...), cands[3:]...)
	for key, prev := range owner {
		now := remaining[Affine(remaining, key)].Key
		if prev != removed && now != prev {
			t.Fatalf("session %s remapped %s -> %s though its replica survived", key, prev, now)
		}
		if prev == removed && now == removed {
			t.Fatalf("session %s still mapped to the removed replica", key)
		}
	}
}

func TestSessionSpillOnSaturation(t *testing.T) {
	cands := []Candidate{cand("a", 0), cand("b", 3), cand("c", 1)}
	a := &cands[0]
	s := &Session{}
	req := &Request{SessionKey: affineKeyTo(t, cands, "a")}
	if got := pickKey(s, cands, req); got != "a" {
		t.Fatalf("unsaturated pick = %s, want the affine replica", got)
	}
	a.Score = 9 // past DefaultSpillDepth
	if got := pickKey(s, cands, req); got != "c" {
		t.Fatalf("saturated pick = %s, want the least-loaded other replica", got)
	}
	if s.Spills() != 1 {
		t.Fatalf("spills = %d, want 1", s.Spills())
	}
	a.Score = 0
	if got := pickKey(s, cands, req); got != "a" {
		t.Fatalf("post-drain pick = %s, want the affine replica again", got)
	}
	// A saturated sole replica still serves its sessions.
	a.Score = 50
	if got := pickKey(s, cands[:1], req); got != "a" {
		t.Fatalf("sole saturated replica pick = %s", got)
	}
}

func TestLeastLoadedTieBreaksOnKVPressure(t *testing.T) {
	full := telemetry.Snapshot{KVBlocksTotal: 100, KVBlocksUsed: 90, KVBlocksCached: 5}
	roomy := telemetry.Snapshot{KVBlocksTotal: 100, KVBlocksUsed: 40, KVBlocksCached: 30}
	cands := []Candidate{
		{Key: "a", Score: 2, Snap: &full},
		{Key: "b", Score: 2, Snap: &roomy},
	}
	if got := pickKey(LeastLoaded{}, cands, nil); got != "b" {
		t.Fatalf("tie pick = %s, want the replica with KV headroom", got)
	}
	// A lower score still outranks better KV headroom.
	cands[0].Score = 1
	if got := pickKey(LeastLoaded{}, cands, nil); got != "a" {
		t.Fatalf("score pick = %s, want the lower-score replica", got)
	}
	// Without telemetry, ties keep PR 1's earliest-registered rule.
	plain := []Candidate{cand("a", 2), cand("b", 2)}
	if got := pickKey(LeastLoaded{}, plain, nil); got != "a" {
		t.Fatalf("telemetry-less tie pick = %s, want the earliest", got)
	}
}

func TestSessionSpillsOnKVPressure(t *testing.T) {
	cands := []Candidate{cand("a", 0), cand("b", 1)}
	a := &cands[0]
	s := &Session{}
	req := &Request{SessionKey: affineKeyTo(t, cands, "a")}
	// Short queue, but the engine's KV is nearly all held by live
	// sequences: the warm cache the session came back for is gone, so the
	// pick spills despite Score being far under DefaultSpillDepth.
	*a.Snap = telemetry.Snapshot{KVBlocksTotal: 100, KVBlocksUsed: 95, KVBlocksCached: 2}
	if got := pickKey(s, cands, req); got != "b" {
		t.Fatalf("KV-pressed pick = %s, want spill to b", got)
	}
	if s.Spills() != 1 {
		t.Fatalf("spills = %d, want 1", s.Spills())
	}
	// Heavy residency that is mostly reclaimable cache is NOT pressure:
	// the session stays affine.
	*a.Snap = telemetry.Snapshot{KVBlocksTotal: 100, KVBlocksUsed: 95, KVBlocksCached: 80}
	if got := pickKey(s, cands, req); got != "a" {
		t.Fatalf("cache-resident pick = %s, want the affine replica", got)
	}
}

func TestSessionKeylessFallsBackToLeastLoaded(t *testing.T) {
	cands := []Candidate{cand("a", 9), cand("b", 1)}
	s := &Session{}
	if got := pickKey(s, cands, &Request{}); got != "b" {
		t.Fatalf("keyless pick = %s, want least-loaded", got)
	}
}

func TestSLOHysteresis(t *testing.T) {
	slo := &SLO{Target: 4 * time.Second}
	batch := &Request{Class: ClassBatch}
	inter := &Request{Class: ClassInteractive}

	if out := slo.Admit(batch, 1*time.Second); !out.Admit || slo.Engaged() {
		t.Fatalf("under target: %+v engaged=%v", out, slo.Engaged())
	}
	if out := slo.Admit(batch, 5*time.Second); out.Admit {
		t.Fatal("breach should shed batch")
	}
	if !slo.Engaged() || slo.Sheds() != 1 {
		t.Fatalf("engaged=%v sheds=%d", slo.Engaged(), slo.Sheds())
	}
	if out := slo.Admit(inter, 5*time.Second); !out.Admit {
		t.Fatal("interactive is never SLO-shed")
	}
	// Hysteresis: p95 back under target but above the release fraction
	// (0.85 × 4s = 3.4s) keeps the breaker engaged.
	if out := slo.Admit(batch, 3700*time.Millisecond); out.Admit {
		t.Fatal("inside the hysteresis band the breaker must stay engaged")
	}
	if out := slo.Admit(batch, 3*time.Second); !out.Admit || slo.Engaged() {
		t.Fatalf("below release the breaker must clear: %+v engaged=%v", out, slo.Engaged())
	}
	// Unset classes default to interactive: never shed.
	if out := slo.Admit(&Request{}, 10*time.Second); !out.Admit {
		t.Fatal("unset class defaults to interactive and is admitted")
	}
	if out := slo.Admit(batch, 10*time.Second); out.Admit {
		t.Fatal("engaged breaker should shed batch")
	}
}

func TestQueuePriorityOrdering(t *testing.T) {
	var q Queue
	var woken []string
	push := func(name string, class Class) *Ticket {
		t := q.Push(class)
		t.SetWake(func() { woken = append(woken, name) })
		return t
	}
	tickets := []*Ticket{
		push("b1", ClassBatch),
		push("i1", ClassInteractive),
		push("b2", ClassBatch),
		push("i2", ClassUnset), // queues as interactive
	}
	if q.Len() != 4 {
		t.Fatalf("len = %d", q.Len())
	}
	q.WakeAll()
	if got, want := fmt.Sprint(woken), "[i1 i2 b1 b2]"; got != want {
		t.Fatalf("wake order = %s, want %s (interactive preempts batch, FIFO within class)", got, want)
	}
	for _, tk := range tickets {
		q.Remove(tk)
	}
	if q.Len() != 0 {
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
