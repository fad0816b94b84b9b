package vllm

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/vhttp"
)

// postStream issues a stream:true chat completion and drains the SSE body
// on the client's process, returning the raw events, the client-observed
// TTFT, and the stream's terminal error.
func postStream(se *sim.Engine, net *vhttp.Net, maxNew int) (resp *vhttp.Response, raw [][]byte, ttft time.Duration, streamErr error) {
	body, _ := json.Marshal(ChatRequest{
		Messages:  []ChatMessage{{Role: "user", Content: "Count to a thousand."}},
		MaxTokens: maxNew,
		Stream:    true,
	})
	se.Go("client", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net}
		start := p.Now()
		var err error
		resp, err = c.Do(p, &vhttp.Request{
			Method: "POST", URL: "http://hops15:8000/v1/chat/completions",
			Header: map[string]string{"Content-Type": "application/json"},
			Body:   body,
		})
		if err != nil || resp.Stream == nil {
			return
		}
		for {
			ch, ok := resp.Stream.Next(p)
			if !ok {
				break
			}
			if ttft == 0 {
				ttft = p.Now().Sub(start)
			}
			raw = append(raw, bytes.Clone(ch.Data)) // Data is valid only until the next Next
		}
		streamErr = resp.Stream.Err()
	})
	se.Run()
	return resp, raw, ttft, streamErr
}

// collectSSE parses events out of a drained stream, separating content
// chunks from the [DONE] terminator and rejecting malformed framing.
func collectSSE(t *testing.T, raw [][]byte) (chunks []ChatChunk, sawDone bool) {
	t.Helper()
	for _, data := range raw {
		payload, ok := ParseSSE(data)
		if !ok {
			t.Fatalf("not an SSE event: %q", data)
		}
		if string(payload) == "[DONE]" {
			sawDone = true
			continue
		}
		if sawDone {
			t.Fatal("event after [DONE]")
		}
		var c ChatChunk
		if err := json.Unmarshal(payload, &c); err != nil {
			t.Fatalf("bad chunk %q: %v", payload, err)
		}
		chunks = append(chunks, c)
	}
	return chunks, sawDone
}

// TestChatStreamSSE: stream:true yields one delta per token in decode
// order, a finish chunk carrying usage, and a [DONE] terminator; the
// concatenated deltas equal the buffered completion text.
func TestChatStreamSSE(t *testing.T) {
	se, net, _ := apiFixture(t)
	const maxNew = 24
	resp, raw, ttft, streamErr := postStream(se, net, maxNew)
	if resp == nil || resp.Status != 200 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Stream == nil {
		t.Fatal("no stream on a stream:true response")
	}
	if streamErr != nil {
		t.Fatalf("stream error: %v", streamErr)
	}
	if ct := resp.Header["Content-Type"]; ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if resp.Header["X-Request-Ttft-Micros"] == "" {
		t.Fatal("TTFT header missing")
	}
	chunks, sawDone := collectSSE(t, raw)
	if !sawDone {
		t.Fatal("no [DONE] terminator")
	}
	// maxNew content deltas plus one finish chunk.
	if len(chunks) != maxNew+1 {
		t.Fatalf("chunks = %d, want %d", len(chunks), maxNew+1)
	}
	var text strings.Builder
	for i, c := range chunks[:maxNew] {
		if len(c.Choices) != 1 || c.Object != "chat.completion.chunk" {
			t.Fatalf("chunk %d envelope = %+v", i, c)
		}
		delta := c.Choices[0].Delta
		if i == 0 && delta.Role != "assistant" {
			t.Fatalf("first delta role = %q", delta.Role)
		}
		if i > 0 && delta.Role != "" {
			t.Fatalf("chunk %d repeats the role", i)
		}
		if delta.Content != TokenText(i+1) {
			t.Fatalf("chunk %d content = %q, want %q", i, delta.Content, TokenText(i+1))
		}
		text.WriteString(delta.Content)
	}
	if text.String() != SynthesizeText(maxNew) {
		t.Fatalf("streamed text diverges from buffered synthesis:\n%q\n%q", text.String(), SynthesizeText(maxNew))
	}
	fin := chunks[maxNew]
	if fin.Choices[0].FinishReason != "stop" || fin.Choices[0].Delta.Content != "" {
		t.Fatalf("finish chunk = %+v", fin)
	}
	if fin.Usage == nil || fin.Usage.CompletionTokens != maxNew {
		t.Fatalf("finish usage = %+v", fin.Usage)
	}
	if ttft <= 0 {
		t.Fatal("no client-observed TTFT")
	}
}

// TestChatStreamTTFTBeforeCompletion: the first chunk arrives while decode
// is still running — client-observed TTFT is a small fraction of the whole
// response time on a long generation.
func TestChatStreamTTFTBeforeCompletion(t *testing.T) {
	se, net, _ := apiFixture(t)
	const maxNew = 512
	var ttft, total time.Duration
	body, _ := json.Marshal(ChatRequest{
		Messages:  []ChatMessage{{Role: "user", Content: "Write a long story."}},
		MaxTokens: maxNew,
		Stream:    true,
	})
	se.Go("client", func(p *sim.Proc) {
		c := &vhttp.Client{Net: net}
		start := p.Now()
		resp, err := c.Do(p, &vhttp.Request{
			Method: "POST", URL: "http://hops15:8000/v1/chat/completions", Body: body,
		})
		if err != nil || resp.Stream == nil {
			t.Errorf("no stream: %v %+v", err, resp)
			return
		}
		for {
			if _, ok := resp.Stream.Next(p); !ok {
				break
			}
			if ttft == 0 {
				ttft = p.Now().Sub(start)
			}
		}
		total = p.Now().Sub(start)
	})
	se.Run()
	if ttft <= 0 || total <= 0 {
		t.Fatalf("ttft=%v total=%v", ttft, total)
	}
	// 512 decode steps dominate: first token must land in well under half
	// the full response time (it is roughly total/512 + prefill).
	if ttft*2 >= total {
		t.Fatalf("ttft %v not ahead of completion %v", ttft, total)
	}
}

// TestChatStreamTruncatedOnCrash: an engine crash mid-generation truncates
// the stream — the consumer keeps the tokens that arrived, sees a non-nil
// Err, and never receives [DONE].
func TestChatStreamTruncatedOnCrash(t *testing.T) {
	se, net, api := apiFixture(t)
	se.Go("saboteur", func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		api.Engine.Crash(errTest)
	})
	resp, raw, _, streamErr := postStream(se, net, 4096)
	if resp == nil || resp.Status != 200 {
		t.Fatalf("resp = %+v (the first byte preceded the crash)", resp)
	}
	if streamErr == nil {
		t.Fatal("crash mid-stream must surface on Err")
	}
	chunks, sawDone := collectSSE(t, raw)
	if sawDone {
		t.Fatal("[DONE] on a truncated stream")
	}
	if len(chunks) == 0 || len(chunks) >= 4096 {
		t.Fatalf("got %d chunks, want a partial prefix", len(chunks))
	}
}

// TestChatStreamFailsBufferedBeforeFirstByte: a request that dies before
// its first token returns a buffered 500 (retryable), not a stream.
func TestChatStreamFailsBufferedBeforeFirstByte(t *testing.T) {
	se, net, api := apiFixture(t)
	api.Engine.Crash(errTest)
	resp, raw, _, _ := postStream(se, net, 64)
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.Status != 500 {
		t.Fatalf("status = %d, want 500", resp.Status)
	}
	if resp.Stream != nil || len(raw) != 0 {
		t.Fatal("pre-first-byte failure must be buffered, not streamed")
	}
}

// TestChatStreamPreemptResume: a streaming batch-class generation is
// preempted mid-decode by a tight-deadline interactive request on a
// one-slot engine, then resumed recompute-style. The already-streamed
// tokens must not re-emit on resume — the SSE stream stays an exact,
// duplicate-free prefix-to-completion of the buffered synthesis.
func TestChatStreamPreemptResume(t *testing.T) {
	se := sim.NewEngine(1)
	net := vhttp.NewNet(netsim.New(se))
	cfg := hopsScoutConfig()
	cfg.MaxNumSeqs = 1
	e, err := New(se, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	api := &APIServer{Engine: e, ServedName: cfg.Model.Name}
	if err := net.Listen("hops15", 8000, api, vhttp.ListenOptions{}); err != nil {
		t.Fatal(err)
	}

	const maxNew = 64
	var raw [][]byte
	var streamErr error
	var streamStatus int
	se.Go("batch-streamer", func(p *sim.Proc) {
		body, _ := json.Marshal(ChatRequest{
			Messages:  []ChatMessage{{Role: "user", Content: "Write a long report."}},
			MaxTokens: maxNew,
			Stream:    true,
		})
		c := &vhttp.Client{Net: net}
		resp, derr := c.Do(p, &vhttp.Request{
			Method: "POST", URL: "http://hops15:8000/v1/chat/completions",
			Header: map[string]string{"X-Priority": "batch"},
			Body:   body,
		})
		if derr != nil || resp.Stream == nil {
			t.Errorf("no stream: %v %+v", derr, resp)
			return
		}
		streamStatus = resp.Status
		for {
			ch, ok := resp.Stream.Next(p)
			if !ok {
				break
			}
			raw = append(raw, bytes.Clone(ch.Data)) // Data is valid only until the next Next
		}
		streamErr = resp.Stream.Err()
	})
	var rescue *vhttp.Response
	se.Go("interactive", func(p *sim.Proc) {
		p.Sleep(150 * time.Millisecond) // batch is mid-decode by now
		body, _ := json.Marshal(ChatRequest{
			Messages:  []ChatMessage{{Role: "user", Content: "Quick question."}},
			MaxTokens: 2,
		})
		c := &vhttp.Client{Net: net}
		rescue, _ = c.Do(p, &vhttp.Request{
			Method: "POST", URL: "http://hops15:8000/v1/chat/completions",
			Header: map[string]string{"X-TTFT-Target-Micros": "250000"},
			Body:   body,
		})
	})
	se.Run()

	if streamStatus != 200 || streamErr != nil {
		t.Fatalf("stream status=%d err=%v", streamStatus, streamErr)
	}
	if rescue == nil || rescue.Status != 200 {
		t.Fatalf("interactive rescue response = %+v", rescue)
	}
	st := e.Stats()
	if st.Preemptions == 0 || st.Resumes == 0 {
		t.Fatalf("preemptions=%d resumes=%d; the scenario must actually evict and resume the streamer",
			st.Preemptions, st.Resumes)
	}
	chunks, sawDone := collectSSE(t, raw)
	if !sawDone {
		t.Fatal("no [DONE] terminator after resume")
	}
	if len(chunks) != maxNew+1 {
		t.Fatalf("chunks = %d, want %d + finish (preemption must not duplicate or drop deltas)", len(chunks), maxNew+1)
	}
	var text strings.Builder
	for i, c := range chunks[:maxNew] {
		if c.Choices[0].Delta.Content != TokenText(i+1) {
			t.Fatalf("chunk %d content = %q, want %q (replayed token after recompute?)",
				i, c.Choices[0].Delta.Content, TokenText(i+1))
		}
		text.WriteString(c.Choices[0].Delta.Content)
	}
	if text.String() != SynthesizeText(maxNew) {
		t.Fatal("streamed text diverges from buffered synthesis across the preemption")
	}
}

// TestTokenTextMatchesSynthesize: the per-token text function and the
// whole-body synthesizer agree for every prefix length, so streamed and
// buffered clients see identical completions.
func TestTokenTextMatchesSynthesize(t *testing.T) {
	var b strings.Builder
	for n := 1; n <= 100; n++ {
		b.WriteString(TokenText(n))
		if b.String() != SynthesizeText(n) {
			t.Fatalf("divergence at %d tokens", n)
		}
	}
}

// TestTokenTextWrapDoesNotAllocate: token text is a substring of the
// synthesized words even where a token spans the wrap-around.
func TestTokenTextWrapDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted by -race instrumentation")
	}
	n := 0
	if allocs := testing.AllocsPerRun(200, func() {
		n++
		_ = TokenText(n)
	}); allocs != 0 {
		t.Fatalf("TokenText: %.1f allocs/op, want 0", allocs)
	}
}

// TestDeltaEncoderMatchesSSEEvent: the stream's direct event encoder writes
// exactly the bytes SSEEvent(ChatChunk) would, for every token position
// across two laps of the synthesized words and a model name JSON must
// escape.
func TestDeltaEncoderMatchesSSEEvent(t *testing.T) {
	for _, model := range []string{llm.Scout.Name, `org/"quoted" <b>&amp;\tab\u2028`} {
		enc := newDeltaEncoder("chatcmpl-req-7", model)
		for n := 1; n <= 2*len(synthWords); n++ {
			chunk := ChatChunk{
				ID: "chatcmpl-req-7", Object: "chat.completion.chunk", Model: model,
				Choices: []ChatChunkChoice{{Delta: ChatDelta{Content: TokenText(n)}}},
			}
			if n == 1 {
				chunk.Choices[0].Delta.Role = "assistant"
			}
			want := SSEEvent(chunk)
			got := enc.event(n)
			if !bytes.Equal(got, want) {
				t.Fatalf("model %q token %d:\n got %q\nwant %q", model, n, got, want)
			}
			if len(got) != cap(got) {
				t.Fatalf("token %d: event len %d cap %d, want an exact-size slice", n, len(got), cap(got))
			}
		}
	}
}

// TestFinishEventMatchesSSEEvent: the stream's terminal event, hand-encoded
// after the same JSON head as the deltas, is exactly the bytes
// SSEEvent(ChatChunk) writes for the finish chunk with its usage.
func TestFinishEventMatchesSSEEvent(t *testing.T) {
	for _, model := range []string{llm.Scout.Name, `org/"quoted" <b>&amp;\tab\u2028`} {
		enc := newDeltaEncoder("chatcmpl-req-7", model)
		for _, u := range []struct{ prompt, gen int }{{0, 0}, {1, 1}, {123, 4567}, {99999, 1}} {
			enc.event(1) // the finish event is written over a delta in the shared buffer
			want := SSEEvent(ChatChunk{
				ID: "chatcmpl-req-7", Object: "chat.completion.chunk", Model: model,
				Choices: []ChatChunkChoice{{FinishReason: "stop"}},
				Usage:   &Usage{PromptTokens: u.prompt, CompletionTokens: u.gen, TotalTokens: u.prompt + u.gen},
			})
			if got := enc.finish(u.prompt, u.gen); !bytes.Equal(got, want) {
				t.Fatalf("model %q usage %d/%d:\n got %q\nwant %q", model, u.prompt, u.gen, got, want)
			}
		}
	}
}

// TestStreamTokenAllocBudget: a streamed token costs no heap allocation
// from engine decode to the client's read. The engine step parks and
// wakes, the API server writes the event into its reused buffer, the body
// stream copies it into its recycled buffer and wakes its reader, and the
// client hop passes the chunk through. Per-request costs cancel in the
// difference between a 2,001-token and a 1-token stream drained through
// vhttp.Client and the APIServer. The budget keeps 1% of slack: a GC
// cycle during the long streams empties the sync.Pools that json and fmt
// draw on, so a few per-request allocations can recur. The 1-token stream
// is held to its own ceiling, so per-request work cannot grow unseen.
func TestStreamTokenAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted by -race instrumentation")
	}
	se, net, _ := apiFixture(t)
	drain := func(maxNew int) func() {
		body, _ := json.Marshal(ChatRequest{
			Messages:  []ChatMessage{{Role: "user", Content: "Count to a thousand."}},
			MaxTokens: maxNew,
			Stream:    true,
		})
		return func() {
			se.Go("client", func(p *sim.Proc) {
				c := vhttp.Client{Net: net}
				resp, err := c.Do(p, &vhttp.Request{
					Method: "POST", URL: "http://hops15:8000/v1/chat/completions", Body: body,
				})
				if err != nil || resp.Stream == nil {
					t.Errorf("no stream: %v %+v", err, resp)
					return
				}
				for {
					if _, ok := resp.Stream.Next(p); !ok {
						break
					}
				}
			})
			se.Run()
		}
	}
	const extra = 2000
	short := testing.AllocsPerRun(10, drain(1))
	long := testing.AllocsPerRun(10, drain(1+extra))
	t.Logf("1-token stream %.0f allocs, %d-token %.0f", short, 1+extra, long)
	if perToken := (long - short) / extra; perToken > 0.01 {
		t.Fatalf("%.4f allocs per streamed token (1-token stream %.0f, %d-token %.0f), budget 0",
			perToken, short, 1+extra, long)
	}
	if short > 13 {
		t.Fatalf("1-token stream: %.0f allocs, budget 13", short)
	}
}

// parseSSERef is ParseSSE as it was before it returned subslices: a
// round trip through strings that copies the event twice.
func parseSSERef(raw []byte) (payload []byte, ok bool) {
	s := strings.TrimSuffix(string(raw), "\n\n")
	if !strings.HasPrefix(s, SSEData) {
		return nil, false
	}
	return []byte(strings.TrimPrefix(s, SSEData)), true
}

// FuzzParseSSE: for any input ParseSSE returns what the string-based
// reference does, as a subslice of its input, and it returns the JSON an
// SSEEvent framed unchanged.
func FuzzParseSSE(f *testing.F) {
	for _, seed := range []string{SSEDone, SSEData, "data: {}\n", "event: ping\n\n", "data: x\n\n\n\n", ""} {
		f.Add([]byte(seed))
	}
	f.Add(SSEEvent(ChatChunk{ID: "chatcmpl-req-1", Object: "chat.completion.chunk",
		Choices: []ChatChunkChoice{{Delta: ChatDelta{Role: "assistant", Content: TokenText(1)}}}}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, ok := ParseSSE(raw)
		want, wantOK := parseSSERef(raw)
		if ok != wantOK || !bytes.Equal(got, want) {
			t.Fatalf("ParseSSE(%q) = %q, %v; reference %q, %v", raw, got, ok, want, wantOK)
		}
		if len(got) > 0 && &got[0] != &raw[len(SSEData)] {
			t.Fatalf("ParseSSE(%q) copied the payload", raw)
		}
		v := string(raw)
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if payload, ok := ParseSSE(SSEEvent(v)); !ok || !bytes.Equal(payload, body) {
			t.Fatalf("ParseSSE(SSEEvent(%q)) = %q, %v; want %q", v, payload, ok, body)
		}
	})
}
