package vllm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/llm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/vhttp"
)

// bodyAttrs mirrors sched's type of the same name, so its decode errors
// read the same once the package is renamed (describeRef).
type bodyAttrs struct {
	Model     string `json:"model"`
	SessionID string `json:"session_id"`
	User      string `json:"user"`
	Priority  string `json:"priority"`
}

// describeRef is sched.Describe as it read every body before the shared
// scan: an encoding/json decode of the scheduling attributes.
func describeRef(body []byte) (sched.Request, error) {
	var a bodyAttrs
	var err error
	if jerr := json.Unmarshal(body, &a); jerr != nil {
		// A type error at the top level names the type with its package.
		msg := strings.ReplaceAll(jerr.Error(), "vllm.bodyAttrs", "sched.bodyAttrs")
		err = fmt.Errorf("request body is not valid JSON (%s)", msg)
	}
	r := sched.Request{Model: a.Model, SessionKey: a.SessionID}
	if r.SessionKey == "" {
		r.SessionKey = a.User
	}
	if c, cerr := sched.ParseClass(a.Priority); cerr == nil {
		r.Class = c
	} else {
		r.Class = sched.ClassBatch
	}
	return r, err
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkScanned fails t unless the scan c of a body reads what encoding/json
// decoded from it as cr: every field and message, and for block sizes 1
// and 16 the engine's prompt token count and block keys and the gateway's
// prefix key.
func checkScanned(t *testing.T, c sched.Chat, cr ChatRequest, body []byte) {
	t.Helper()
	if string(c.Model) != cr.Model || string(c.SessionID) != cr.SessionID || string(c.User) != cr.User ||
		string(c.Priority) != cr.Priority || c.MaxTokens != cr.MaxTokens || c.Stream != cr.Stream {
		t.Fatalf("scanned fields differ from the decoded request %+v\nbody %q", cr, body)
	}
	var msgs []ChatMessage
	for it := c.Messages; ; {
		role, content, ok := it.Next()
		if !ok {
			break
		}
		msgs = append(msgs, ChatMessage{Role: string(role), Content: string(content)})
	}
	if !slices.Equal(msgs, cr.Messages) {
		t.Fatalf("scanned messages %q, decoded %q\nbody %q", msgs, cr.Messages, body)
	}
	prompt := 0
	for _, m := range cr.Messages {
		prompt += messageTokens(m)
	}
	for _, bs := range []int{1, 16} {
		got, err := readChat(bs, body)
		want := ChatPromptHashes(bs, cr.Messages)
		if err != nil || got.prompt != prompt || !slices.Equal(got.hashes, want) || len(got.hashes) != cap(got.hashes) {
			t.Fatalf("block %d: scanned prompt %d tokens, %d keys (cap %d), err %v; decoded %d tokens, %d keys\nbody %q",
				bs, got.prompt, len(got.hashes), cap(got.hashes), err, prompt, len(want), body)
		}
		var first uint64
		if len(want) > 0 {
			first = want[0]
		}
		if key := ChatPrefixKeyOf(bs, c.Messages); key != first {
			t.Fatalf("block %d: prefix key %#x, want %#x\nbody %q", bs, key, first, body)
		}
	}
}

// FuzzScanChat: sched.Describe reads every body as the encoding/json
// path does; whenever sched.ScanChat accepts a body, encoding/json
// accepts it as a ChatRequest and as Describe's attributes and the scan
// reads what it decodes; and the scan accepts every body json.Marshal
// writes for a decoded request without an escape.
func FuzzScanChat(f *testing.F) {
	for _, req := range []ChatRequest{
		{Model: "scout", Messages: []ChatMessage{bigSystemPrompt(), {Role: "user", Content: "what changed?"}},
			MaxTokens: 64, Temperature: 0.7, User: "alice", SessionID: "conv-1", Priority: "batch", Stream: true},
		{Messages: []ChatMessage{{Role: "user", Content: "hi"}}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := sched.Describe(nil, body)
		want, wantErr := describeRef(body)
		if errText(gotErr) != errText(wantErr) || got.Model != want.Model || got.SessionKey != want.SessionKey || got.Class != want.Class {
			t.Fatalf("Describe = %+v, %v; encoding/json path %+v, %v\nbody %q", got, gotErr, want, wantErr, body)
		}
		var cr ChatRequest
		decodeErr := json.Unmarshal(body, &cr)
		if c, ok := sched.ScanChat(body); ok {
			if decodeErr != nil || wantErr != nil {
				t.Fatalf("scan accepted a body encoding/json rejects (%v, %v)\nbody %q", decodeErr, wantErr, body)
			}
			checkScanned(t, c, cr, body)
		}
		if decodeErr != nil {
			return
		}
		canonical, err := json.Marshal(cr)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.IndexByte(canonical, '\\') < 0 {
			c, ok := sched.ScanChat(canonical)
			if !ok {
				t.Fatalf("scan declined a body json.Marshal wrote\nbody %q", canonical)
			}
			checkScanned(t, c, cr, canonical)
		}
	})
}

// TestScanChatDeclines: the scan declines each kind of body it cannot
// read exactly, and encoding/json then answers for it.
func TestScanChatDeclines(t *testing.T) {
	long := strings.Repeat("x", 80)
	for _, body := range []string{
		``,
		`[{"model":"m"}]`,
		`{"model":"m"} {}`,
		`{"model":"a","MODEL":"b"}`,
		`{"model":"a\u0062"}`,
		`{"model":"` + "\xff" + `"}`,
		`{"m\u006fdel":"m"}`,
		`{"max_tokens":1.0}`,
		`{"max_tokens":"1"}`,
		`{"max_tokens":1e2}`,
		`{"max_tokens":9223372036854775808}`,
		`{"temperature":1e400}`,
		`{"stream":"true"}`,
		`{"messages":{}}`,
		`{"messages":[null]}`,
		`{"messages":[{"role":null,"content":"` + long + `"}]}`,
		`{"messages":[{"role":"user","content":5}]}`,
		`{"messages":[{"role":"user","role":"system","content":"` + long + `"}]}`,
		`{"messages":[{"role":"user","content":"line\nbreak"}]}`,
	} {
		if _, ok := sched.ScanChat([]byte(body)); ok {
			t.Errorf("scan accepted %q", body)
		}
	}
}

// TestChatAnswersAsDecoded: the API server answers a body the scan
// accepts exactly as one it declines and decodes: the same status, and
// the same error text when it rejects the body.
func TestChatAnswersAsDecoded(t *testing.T) {
	msgs := `"messages":[{"role":"user","content":"hi"}]`
	for _, body := range []string{
		`{` + msgs + `,"max_tokens":3}`,
		`{"MODEL":"` + llm.Scout.Name + `",` + msgs + `,"max_tokens":3,"temperature":0.5}`,
		`{"model":"gpt-4",` + msgs + `}`,
		`{"model":"gpt-\u0034",` + msgs + `}`,
		`{"model":5,` + msgs + `}`,
		`{"max_tokens":1.5,` + msgs + `}`,
		`{"temperature":1e400,` + msgs + `}`,
		`{"messages":[{"role":"user","content":"a \"quoted\" prompt"}],"max_tokens":2}`,
		`{"messages":[{"role":null,"content":"hi"}],"max_tokens":2}`,
		`{"messages":[{"role":"user","content":["hi"]}]}`,
		`{` + msgs + `} trailing`,
		`[` + msgs + `]`,
	} {
		se, net, _ := apiFixture(t)
		var resp *vhttp.Response
		se.Go("client", func(p *sim.Proc) {
			c := &vhttp.Client{Net: net}
			var err error
			if resp, err = c.Do(p, &vhttp.Request{Method: "POST", URL: "http://hops15:8000/v1/chat/completions", Body: []byte(body)}); err != nil {
				t.Error(err)
			}
		})
		se.Run()
		if resp == nil {
			t.Fatal("no response")
		}
		var cr ChatRequest
		derr := json.Unmarshal([]byte(body), &cr)
		var er ErrorResponse
		_ = json.Unmarshal(resp.Body, &er)
		switch {
		case derr != nil:
			if resp.Status != 400 || er.Error.Message != "bad request body: "+derr.Error() {
				t.Errorf("%s: %d %q, want 400 %q", body, resp.Status, er.Error.Message, derr)
			}
		case cr.Model != "" && cr.Model != llm.Scout.Name:
			if want := fmt.Sprintf("model %q does not exist; serving %q", cr.Model, llm.Scout.Name); resp.Status != 404 || er.Error.Message != want {
				t.Errorf("%s: %d %q, want 404 %q", body, resp.Status, er.Error.Message, want)
			}
		default:
			var out ChatResponse
			if resp.Status != 200 || json.Unmarshal(resp.Body, &out) != nil {
				t.Fatalf("%s: %d %s", body, resp.Status, resp.Body)
			}
			prompt := 0
			for _, m := range cr.Messages {
				prompt += messageTokens(m)
			}
			if out.Usage.PromptTokens != prompt || (cr.MaxTokens > 0 && out.Usage.CompletionTokens != cr.MaxTokens) {
				t.Errorf("%s: usage %+v, want %d prompt tokens and %d completion tokens", body, out.Usage, prompt, cr.MaxTokens)
			}
		}
	}
}

// TestChatParseAllocBudget: scanning a body and folding its block keys
// allocates the key slice and nothing else, however many messages the
// body holds, and nothing for a prompt shorter than one block; reading its
// priority class allocates nothing, for a name the scheduling layer does
// not know too.
func TestChatParseAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted by the race detector")
	}
	history := chatHistory()
	for _, tc := range []struct {
		name     string
		msgs     []ChatMessage
		priority string
		budget   float64
	}{
		{"1-message", history[:1], "", 1},
		{"9-message", history, "", 1},
		{"sub-block", []ChatMessage{{Role: "user", Content: "hi"}}, "", 0},
		{"batch-class", history[:1], "batch", 1},
		{"unknown-class", history[:1], "vip", 1},
	} {
		body, err := json.Marshal(ChatRequest{Model: llm.Scout.Name, Messages: tc.msgs, MaxTokens: 64, SessionID: "conv-1", Stream: true, Priority: tc.priority})
		if err != nil {
			t.Fatal(err)
		}
		want := ChatPromptHashes(DefaultBlockSize, tc.msgs)
		got := testing.AllocsPerRun(200, func() {
			cr, err := readChat(DefaultBlockSize, body)
			if err != nil || len(cr.hashes) != len(want) {
				t.Fatalf("%s: %d keys, err %v; want %d keys", tc.name, len(cr.hashes), err, len(want))
			}
		})
		if got != tc.budget {
			t.Fatalf("%s: %.1f allocs/op, want %.0f", tc.name, got, tc.budget)
		}
		t.Logf("%s: %.1f allocs/op", tc.name, got)
	}
}

// TestChatResponseMatchesMarshal: the hand-encoded buffered response is
// exactly the bytes json.Marshal writes for its ChatResponse, in a slice
// of exactly that size, for model names and ids JSON must escape too.
func TestChatResponseMatchesMarshal(t *testing.T) {
	for _, name := range []struct{ id, model string }{
		{"req-7", llm.Scout.Name},
		{"req-7", `org/"quoted" <b>&amp;`},
		{"r\"<&>\\7", "a\x00b\tc\u2028d\u2029e\xffé\x7f"},
	} {
		for _, u := range []struct{ prompt, gen int }{{0, 0}, {1, 1}, {123, 4567}} {
			want, err := json.Marshal(ChatResponse{
				ID: "chatcmpl-" + name.id, Object: "chat.completion", Model: name.model,
				Choices: []ChatChoice{{
					Message:      ChatMessage{Role: "assistant", Content: SynthesizeText(u.gen)},
					FinishReason: "stop",
				}},
				Usage: Usage{PromptTokens: u.prompt, CompletionTokens: u.gen, TotalTokens: u.prompt + u.gen},
			})
			if err != nil {
				t.Fatal(err)
			}
			got := chatResponseBody(name.id, name.model, u.prompt, u.gen)
			if !bytes.Equal(got, want) {
				t.Fatalf("id %q model %q usage %d/%d:\n got %q\nwant %q", name.id, name.model, u.prompt, u.gen, got, want)
			}
			if len(got) != cap(got) {
				t.Fatalf("body len %d cap %d, want an exact-size slice", len(got), cap(got))
			}
		}
	}
}

// TestChatResponseAllocBudget: a buffered response body is one allocation.
func TestChatResponseAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted by the race detector")
	}
	got := testing.AllocsPerRun(200, func() {
		if len(chatResponseBody("req-7", llm.Scout.Name, 123, 4567)) == 0 {
			t.Fatal("empty body")
		}
	})
	if got > 1 {
		t.Fatalf("%.1f allocs/op, budget 1", got)
	}
	t.Logf("%.1f allocs/op (budget 1)", got)
}

// BenchmarkChatParse is the engine's read of a later chat turn
// (chatHistory): the body scanned, its prompt counted and its block keys
// folded.
func BenchmarkChatParse(b *testing.B) {
	b.ReportAllocs()
	body := longHistoryBody(b)
	for b.Loop() {
		if cr, err := readChat(DefaultBlockSize, body); err != nil || len(cr.hashes) == 0 {
			b.Fatal("no keys")
		}
	}
}

// BenchmarkChatParseDecoded is BenchmarkChatParse through encoding/json,
// the path a body the scan declines takes.
func BenchmarkChatParseDecoded(b *testing.B) {
	b.ReportAllocs()
	body := longHistoryBody(b)
	for b.Loop() {
		if cr, err := decodeChat(DefaultBlockSize, body); err != nil || len(cr.hashes) == 0 {
			b.Fatal("no keys")
		}
	}
}

// BenchmarkChatResponse encodes a buffered response of 256 tokens.
func BenchmarkChatResponse(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		chatResponseBody("req-7", llm.Scout.Name, 1024, 256)
	}
}

// chatHistory is a later turn's prompt: the system prompt and four
// exchanges, nine messages and about 6.5 KB of content.
func chatHistory() []ChatMessage {
	msgs := []ChatMessage{bigSystemPrompt()}
	for turn := 0; turn < 4; turn++ {
		msgs = append(msgs,
			ChatMessage{Role: "user", Content: SynthesizeText(80)},
			ChatMessage{Role: "assistant", Content: SynthesizeText(300)})
	}
	return msgs
}

func longHistoryBody(b *testing.B) []byte {
	body, err := json.Marshal(ChatRequest{Model: llm.Scout.Name, Messages: chatHistory(), MaxTokens: 128, SessionID: "conv-9"})
	if err != nil {
		b.Fatal(err)
	}
	return body
}
