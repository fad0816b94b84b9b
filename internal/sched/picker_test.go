package sched

import (
	"fmt"
	"testing"

	"repro/internal/telemetry"
)

// affineKeyTo finds a session key whose rendezvous owner among cands is
// the backend named want.
func affineKeyTo(t testing.TB, cands []Candidate, want string) string {
	t.Helper()
	for i := 0; i < 1<<16; i++ {
		key := fmt.Sprintf("k-%d", i)
		if cands[Affine(cands, key)].Key == want {
			return key
		}
	}
	t.Fatalf("no key maps to %s", want)
	return ""
}

// sketchWith is a candidate whose snapshot publishes keys.
func sketchWith(key string, score int, keys ...uint64) Candidate {
	return Candidate{Key: key, Score: score, Snap: &telemetry.Snapshot{PrefixSketch: keys}}
}

func TestSessionStickySpill(t *testing.T) {
	cands := []Candidate{cand("a", 0), cand("b", 2), cand("c", 1)}
	a, b, c := &cands[0], &cands[1], &cands[2]
	s := &Session{}
	req := &Request{SessionKey: affineKeyTo(t, cands, "a")}

	a.Score = 9
	if got := pickKey(s, cands, req); got != "c" {
		t.Fatalf("first spill = %s, want least-loaded c", got)
	}
	// Load inverts, but the spilled session sticks to c: its prefix is
	// accumulating there, and re-picking least-loaded every turn would
	// scatter the conversation across the fleet.
	b.Score, c.Score = 0, 3
	for i := 0; i < 3; i++ {
		if got := pickKey(s, cands, req); got != "c" {
			t.Fatalf("sticky pick %d = %s, want c despite b being idle", i, got)
		}
	}
	// The sticky target saturating is the one thing that breaks the pin.
	c.Score = 9
	if got := pickKey(s, cands, req); got != "b" {
		t.Fatalf("saturated-target pick = %s, want re-pick to b", got)
	}
	if s.Spills() != 5 {
		t.Fatalf("spills = %d, want 5", s.Spills())
	}
	// Going home clears the pin: the next spill re-picks on current load.
	a.Score = 0
	if got := pickKey(s, cands, req); got != "a" {
		t.Fatalf("post-drain pick = %s, want home", got)
	}
	a.Score, b.Score, c.Score = 9, 9, 0
	if got := pickKey(s, cands, req); got != "c" {
		t.Fatalf("re-spill pick = %s, want a fresh least-loaded choice", got)
	}
}

func TestSessionStickySpillMarksRequest(t *testing.T) {
	cands := []Candidate{cand("a", 9), cand("b", 0)}
	s := &Session{}
	req := &Request{SessionKey: affineKeyTo(t, cands, "a")}
	s.Pick(cands, req)
	if !req.Spilled {
		t.Fatal("spilled pick must mark the request")
	}
	cands[0].Score = 0
	req.Spilled = false
	s.Pick(cands, req)
	if req.Spilled {
		t.Fatal("home pick must not mark the request")
	}
}

func TestPrefixWithoutKeyIsSession(t *testing.T) {
	p := &Prefix{}
	cands := []Candidate{cand("a", 9), cand("b", 1)}
	if got := pickKey(p, cands, nil); got != "b" {
		t.Fatalf("nil req pick = %s, want least-loaded", got)
	}
	req := &Request{SessionKey: "conversation-42"}
	want := cands[Affine(cands, req.SessionKey)].Key
	if got := pickKey(p, cands, req); got != want {
		t.Fatalf("keyless-prefix pick = %s, want affine %s", got, want)
	}
	if p.Pick(nil, req) != -1 {
		t.Fatal("empty candidates should pick -1")
	}
	if p.SketchRoutes() != 0 {
		t.Fatalf("sketch routes = %d, want 0", p.SketchRoutes())
	}
}

func TestPrefixAffineWithSketchWins(t *testing.T) {
	const key = 0xfeedface
	cands := []Candidate{sketchWith("a", 3, key), sketchWith("b", 0, key)}
	p := &Prefix{}
	req := &Request{SessionKey: affineKeyTo(t, cands, "a"), PrefixKey: key}
	// The affine replica holds the conversation's deepest chain, not just
	// the shared head block: it outranks a less-loaded sketch match.
	if got := pickKey(p, cands, req); got != "a" {
		t.Fatalf("pick = %s, want the affine sketch holder", got)
	}
	if p.SketchRoutes() != 0 || req.Spilled {
		t.Fatalf("affine pick counted as sketch route (%d) or spill (%v)", p.SketchRoutes(), req.Spilled)
	}
}

func TestPrefixRoutesNewSessionToSketchMatch(t *testing.T) {
	const key = 0x1234
	warm := telemetry.Snapshot{PrefixSketch: []uint64{key}, WindowPrefixHits: 8, WindowPrefixMisses: 2}
	cold := telemetry.Snapshot{PrefixSketch: []uint64{key}, WindowPrefixHits: 1, WindowPrefixMisses: 9}
	cands := []Candidate{
		cand("a", 0), // no sketch entry
		{Key: "b", Score: 1, Snap: &cold},
		{Key: "c", Score: 1, Snap: &warm},
	}
	p := &Prefix{}
	req := &Request{SessionKey: affineKeyTo(t, cands, "a"), PrefixKey: key}

	// The rendezvous hash says a, but b and c already hold the prompt's
	// head block; the score tie breaks on windowed hit rate.
	if got := pickKey(p, cands, req); got != "c" {
		t.Fatalf("pick = %s, want the warm sketch match", got)
	}
	if p.SketchRoutes() != 1 {
		t.Fatalf("sketch routes = %d, want 1", p.SketchRoutes())
	}
	if !req.Spilled {
		t.Fatal("off-affine sketch route must mark the request for warm-up")
	}
	// Lower score outranks the hit-rate tiebreak.
	cands[1].Score = 0
	if got := pickKey(p, cands, req); got != "b" {
		t.Fatalf("pick = %s, want the less-loaded match", got)
	}
	// A keyless request (no session) still routes by sketch, but there is
	// no affinity to spill from.
	anon := &Request{PrefixKey: key}
	if got := pickKey(p, cands, anon); got != "b" {
		t.Fatalf("anonymous pick = %s, want the sketch match", got)
	}
	if anon.Spilled {
		t.Fatal("no affine replica: nothing spilled")
	}
}

func TestPrefixSaturatedMatchesAreSkipped(t *testing.T) {
	const key = 0x9
	cands := []Candidate{cand("a", 0), sketchWith("b", 9, key)}
	p := &Prefix{}
	req := &Request{SessionKey: affineKeyTo(t, cands, "a"), PrefixKey: key}
	// The only sketch match is past DefaultSpillDepth: a cache hit is not
	// worth queueing behind a saturated engine, so the pick degrades to
	// Session affinity.
	if got := pickKey(p, cands, req); got != "a" {
		t.Fatalf("pick = %s, want the unsaturated affine replica", got)
	}
	if p.SketchRoutes() != 0 {
		t.Fatalf("sketch routes = %d, want 0", p.SketchRoutes())
	}
}

func TestPrefixSketchRouteIsSticky(t *testing.T) {
	const key = 0x77
	cands := []Candidate{cand("a", 0), sketchWith("b", 1, key), cand("c", 2)}
	p := &Prefix{}
	req := &Request{SessionKey: affineKeyTo(t, cands, "a"), PrefixKey: key}
	if got := pickKey(p, cands, req); got != "b" {
		t.Fatalf("pick = %s, want the sketch match", got)
	}
	// Later turns arrive after b's sketch rotated the head out (or before
	// the next scrape): with the affine replica saturated, the sticky
	// record keeps the session on b rather than re-rolling least-loaded.
	cands[0].Score, cands[1].Snap, cands[2].Score = 9, &telemetry.Snapshot{}, 0
	follow := &Request{SessionKey: req.SessionKey}
	if got := pickKey(p, cands, follow); got != "b" {
		t.Fatalf("follow-up pick = %s, want the sticky sketch target", got)
	}
}
