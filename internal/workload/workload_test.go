package workload

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func twoPhaseSpec() Spec {
	return Spec{
		Name: "t",
		Seed: 7,
		Cohorts: []Cohort{
			{Name: "chat", Model: "m", Class: "interactive", Weight: 3,
				Clients: 10, Turns: 3, ThinkTime: 10 * time.Second},
			{Name: "batch", Model: "m", Class: "batch", Weight: 1, Clients: 5},
		},
		Arrivals: Arrivals{Periods: []RatePeriod{
			{Dur: time.Minute, StartsPerSec: 1},
			{Dur: time.Minute, StartsPerSec: 5},
		}},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(twoPhaseSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(twoPhaseSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := Identical(a, b); err != nil {
		t.Fatal(err)
	}
	spec := twoPhaseSpec()
	spec.Seed = 8
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if Identical(a, c) == nil {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGenerateDiurnalRates(t *testing.T) {
	// The 5x rate period must carry ~5x the session starts of the 1x
	// period, and the stream must be sorted by arrival offset.
	reqs, err := Generate(twoPhaseSpec())
	if err != nil {
		t.Fatal(err)
	}
	var loStarts, hiStarts int
	for i, r := range reqs {
		if i > 0 && r.AtMicros < reqs[i-1].AtMicros {
			t.Fatalf("stream not sorted at %d: %d after %d", i, r.AtMicros, reqs[i-1].AtMicros)
		}
		if r.Turn != 0 {
			continue // session continuation, not an arrival
		}
		if r.At() < time.Minute {
			loStarts++
		} else if r.At() < 2*time.Minute {
			hiStarts++
		}
	}
	// Poisson expectation: 60 and 300 starts. Allow generous slack.
	if loStarts < 40 || loStarts > 85 {
		t.Fatalf("low-period starts = %d, want ~60", loStarts)
	}
	if hiStarts < 240 || hiStarts > 370 {
		t.Fatalf("high-period starts = %d, want ~300", hiStarts)
	}
	if ratio := float64(hiStarts) / float64(loStarts); ratio < 3.3 || ratio > 7.5 {
		t.Fatalf("high/low start ratio = %.1f, want ~5", ratio)
	}
}

func TestGenerateCohortMixAndWeights(t *testing.T) {
	reqs, err := Generate(twoPhaseSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := Summarize(reqs)
	chat, batch := st.PerCohort["chat"], st.PerCohort["batch"]
	if chat == 0 || batch == 0 {
		t.Fatalf("missing cohort: %+v", st.PerCohort)
	}
	// chat has 3x the arrival weight AND 3 turns per session: 9x requests.
	if ratio := float64(chat) / float64(batch); ratio < 5 || ratio > 16 {
		t.Fatalf("chat/batch request ratio = %.1f, want ~9", ratio)
	}
	// Client populations are capped by the cohort's Clients.
	clients := make(map[string]map[int]bool)
	for _, r := range reqs {
		if clients[r.Cohort] == nil {
			clients[r.Cohort] = make(map[int]bool)
		}
		clients[r.Cohort][r.Client] = true
	}
	if n := len(clients["chat"]); n != 10 {
		t.Fatalf("chat clients = %d, want 10", n)
	}
	if n := len(clients["batch"]); n != 5 {
		t.Fatalf("batch clients = %d, want 5", n)
	}
}

func TestSessionStructure(t *testing.T) {
	reqs, err := Generate(twoPhaseSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Group chat turns by session: each session has exactly turns 0,1,2 in
	// time order, with a growing shared prefix that equals the sum of all
	// prior turns' fresh prompt and output tokens.
	type turn struct{ at, newTok, prefix, prompt, out int64 }
	sessions := make(map[int][]turn)
	for _, r := range reqs {
		if r.Cohort != "chat" {
			if r.Turn != 0 || r.PrefixTokens != 0 {
				t.Fatalf("single-turn cohort has session structure: %+v", r)
			}
			continue
		}
		sessions[r.Session] = append(sessions[r.Session],
			turn{r.AtMicros, int64(r.NewTokens), int64(r.PrefixTokens), int64(r.PromptTokens), int64(r.OutputTokens)})
	}
	if len(sessions) == 0 {
		t.Fatal("no chat sessions")
	}
	for id, turns := range sessions {
		if len(turns) != 3 {
			t.Fatalf("session %d has %d turns, want 3", id, len(turns))
		}
		wantPrefix := int64(0)
		prevAt := int64(-1)
		for i, tr := range turns {
			if tr.at < prevAt {
				t.Fatalf("session %d turn %d scheduled before its predecessor", id, i)
			}
			prevAt = tr.at
			if tr.prefix != wantPrefix {
				t.Fatalf("session %d turn %d prefix = %d, want %d", id, i, tr.prefix, wantPrefix)
			}
			if tr.prompt != tr.prefix+tr.newTok {
				t.Fatalf("session %d turn %d prompt %d != prefix %d + new %d", id, i, tr.prompt, tr.prefix, tr.newTok)
			}
			wantPrefix += tr.newTok + tr.out
		}
	}
}

func TestLengthDistDefaultsToShareGPTCalibration(t *testing.T) {
	// A cohort with zero-valued dists inherits the sharegpt calibration:
	// mean prompt ≈ 220 tokens, mean output ≈ 190 (single-turn cohort so
	// NewTokens == PromptTokens).
	spec := Spec{
		Name:    "cal",
		Seed:    3,
		Cohorts: []Cohort{{Name: "c", Model: "m", Clients: 1000}},
		Arrivals: Arrivals{Periods: []RatePeriod{
			{Dur: 1000 * time.Second, StartsPerSec: 10},
		}},
	}
	reqs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) < 5000 {
		t.Fatalf("only %d requests", len(reqs))
	}
	var ps, os float64
	for _, r := range reqs {
		ps += float64(r.PromptTokens)
		os += float64(r.OutputTokens)
	}
	n := float64(len(reqs))
	if p := ps / n; math.Abs(p-220) > 30 {
		t.Fatalf("mean prompt = %.1f, want ~220", p)
	}
	if o := os / n; math.Abs(o-190) > 30 {
		t.Fatalf("mean output = %.1f, want ~190", o)
	}
}

func TestArrivalsCycles(t *testing.T) {
	spec := twoPhaseSpec()
	spec.Arrivals.Cycles = 2
	reqs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The second cycle's high period (minute 3..4) must again carry ~5x
	// the starts of the preceding low period (minute 2..3), and no start
	// falls past the two cycles' 4 minutes.
	var lo2, hi2, late int
	for _, r := range reqs {
		if r.Turn != 0 {
			continue
		}
		switch {
		case r.At() >= 2*time.Minute && r.At() < 3*time.Minute:
			lo2++
		case r.At() >= 3*time.Minute && r.At() < 4*time.Minute:
			hi2++
		case r.At() >= 4*time.Minute:
			late++
		}
	}
	if lo2 == 0 || hi2 == 0 || float64(hi2)/float64(lo2) < 3 || late != 0 {
		t.Fatalf("cycle 2 starts lo=%d hi=%d, %d after 4m; want the diurnal shape to repeat once", lo2, hi2, late)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	spec := twoPhaseSpec()
	reqs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, spec, reqs); err != nil {
		t.Fatal(err)
	}
	gotSpec, got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := Identical(reqs, got); err != nil {
		t.Fatalf("replay differs from recording: %v", err)
	}
	if gotSpec.Name != spec.Name || gotSpec.Seed != spec.Seed || len(gotSpec.Cohorts) != len(spec.Cohorts) {
		t.Fatalf("trace header spec = %+v", gotSpec)
	}
	// Regenerating from the replayed header spec reproduces the stream:
	// the trace is self-describing.
	regen, err := Generate(gotSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := Identical(reqs, regen); err != nil {
		t.Fatalf("regeneration from trace header differs: %v", err)
	}
	if _, _, err := ReadTrace(bytes.NewReader([]byte("not json\n"))); err == nil {
		t.Fatal("bad trace should error")
	}
	if _, _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty trace should error")
	}
}

// TestReadTraceRejectsUnreplayable: a header spec Validate rejects, and a
// request with a negative arrival offset, turn or token count, fail the
// read with an error naming the line, before anything replays them.
func TestReadTraceRejectsUnreplayable(t *testing.T) {
	const traceHead = `{"format":"workload-trace/v1","spec":{"name":"t","seed":7,"cohorts":[{"name":"chat","model":"m","turns":2}],"arrivals":{"periods":[{"dur":60000000000,"starts_per_sec":1}]}}}`
	// req returns a request line; a field repeated in extra overrides the
	// base value, since encoding/json keeps the last of duplicate keys.
	req := func(extra string) string {
		return `{"at_us":10,"cohort":"chat","client":0,"session":0,"turn":0,"model":"m","new_tokens":8,"prompt_tokens":8,"output_tokens":4` + extra + `}`
	}
	for _, tc := range []struct {
		name, trace, want string
	}{
		{"spec without cohorts", `{"format":"workload-trace/v1","spec":{"name":"t","arrivals":{"periods":[{"dur":1,"starts_per_sec":1}]}}}`, "bad trace header"},
		{"negative new_tokens", traceHead + "\n" + req("") + "\n" + req(`,"new_tokens":-1`), "line 3: negative new_tokens -1"},
		{"negative at_us", traceHead + "\n" + req(`,"at_us":-5`), "line 2: negative at_us -5"},
		{"negative turn", traceHead + "\n" + req(`,"turn":-1`), "line 2: negative turn -1"},
		{"negative prefix_tokens", traceHead + "\n" + req(`,"prefix_tokens":-2`), "line 2: negative prefix_tokens -2"},
		{"negative prompt_tokens", traceHead + "\n" + req(`,"prompt_tokens":-3`), "line 2: negative prompt_tokens -3"},
		{"negative output_tokens", traceHead + "\n" + req(`,"output_tokens":-4`), "line 2: negative output_tokens -4"},
	} {
		_, _, err := ReadTrace(strings.NewReader(tc.trace))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
	if _, reqs, err := ReadTrace(strings.NewReader(traceHead + "\n" + req(""))); err != nil || len(reqs) != 1 {
		t.Fatalf("valid trace: %d requests, err %v", len(reqs), err)
	}
}

// FuzzReadTrace: whatever ReadTrace accepts has a spec Validate accepts
// and no negative arrival offset, turn or token count, and it survives a
// WriteTrace round trip unchanged.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, reqs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted a header spec Validate rejects: %v", err)
		}
		for i, r := range reqs {
			if r.AtMicros < 0 || r.Turn < 0 || r.NewTokens < 0 || r.PrefixTokens < 0 || r.PromptTokens < 0 || r.OutputTokens < 0 {
				t.Fatalf("accepted request %d with a negative count: %+v", i, r)
			}
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, spec, reqs); err != nil {
			t.Fatalf("write back: %v", err)
		}
		spec2, reqs2, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if !reflect.DeepEqual(spec, spec2) {
			t.Fatalf("spec changed in the round trip: %+v vs %+v", spec, spec2)
		}
		if err := Identical(reqs, reqs2); err != nil {
			t.Fatalf("round trip: %v", err)
		}
	})
}

func TestSpecValidate(t *testing.T) {
	good := twoPhaseSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*Spec){
		func(s *Spec) { s.Cohorts = nil },
		func(s *Spec) { s.Cohorts[0].Name = "" },
		func(s *Spec) { s.Cohorts[0].Model = "" },
		func(s *Spec) { s.Cohorts[0].Weight = -1 },
		func(s *Spec) { s.Arrivals.Periods = nil },
		func(s *Spec) { s.Arrivals.Periods[0].Dur = 0 },
		func(s *Spec) { s.Arrivals.Periods[0].StartsPerSec = -1 },
	} {
		s := twoPhaseSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Fatalf("mutated spec should be rejected: %+v", s)
		}
	}
}

func TestPresets(t *testing.T) {
	for _, name := range []string{"diurnal-chat", "steady"} {
		spec, err := Preset(name, "m")
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", name, err)
		}
		reqs, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) == 0 {
			t.Fatalf("preset %s generated nothing", name)
		}
		for _, r := range reqs {
			if r.Model != "m" {
				t.Fatalf("preset %s request targets %q", name, r.Model)
			}
		}
	}
	if _, err := Preset("nope", "m"); err == nil {
		t.Fatal("unknown preset should error")
	}
}
