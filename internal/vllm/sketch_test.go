package vllm

import (
	"encoding/json"
	"strings"
	"testing"
)

func bigSystemPrompt() ChatMessage {
	return ChatMessage{Role: "system", Content: strings.Repeat("You are a careful HPC serving assistant. ", 12)}
}

func TestChatPrefixKeyMatchesPromptHashes(t *testing.T) {
	cases := [][]ChatMessage{
		{bigSystemPrompt()},
		{bigSystemPrompt(), {Role: "user", Content: "explain tiered KV caches in one paragraph"}},
		{bigSystemPrompt(), {Role: "user", Content: "hi"}, {Role: "assistant", Content: strings.Repeat("blocks ", 40)}},
	}
	for i, msgs := range cases {
		hashes := ChatPromptHashes(DefaultBlockSize, msgs)
		if len(hashes) == 0 {
			t.Fatalf("case %d: prompt shorter than one block, pick a longer fixture", i)
		}
		if got := ChatPrefixKey(DefaultBlockSize, msgs); got != hashes[0] {
			t.Errorf("case %d: ChatPrefixKey = %#x, want depth-0 hash %#x", i, got, hashes[0])
		}
	}
	// Prompts shorter than one block have no depth-0 block to route on.
	short := []ChatMessage{{Role: "user", Content: "hi"}}
	if len(ChatPromptHashes(DefaultBlockSize, short)) != 0 {
		t.Fatal("fixture unexpectedly fills a block")
	}
	if got := ChatPrefixKey(DefaultBlockSize, short); got != 0 {
		t.Errorf("short prompt key = %#x, want 0", got)
	}
}

func TestChatPrefixKeyRawMatchesDecoded(t *testing.T) {
	reqs := []ChatRequest{
		{Model: "scout", Messages: []ChatMessage{bigSystemPrompt()}},
		{Model: "scout", Messages: []ChatMessage{bigSystemPrompt(), {Role: "user", Content: "what changed?"}},
			MaxTokens: 64, SessionID: "conv-1", Stream: true},
		{Model: "scout", Messages: []ChatMessage{{Role: "user", Content: "hi"}}},
	}
	for i, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		want := ChatPrefixKey(DefaultBlockSize, req.Messages)
		if got := ChatPrefixKeyRaw(DefaultBlockSize, body); got != want {
			t.Errorf("case %d: raw key %#x != decoded key %#x", i, got, want)
		}
	}
	// Bodies encoding/json accepts in shapes json.Marshal never writes:
	// case-variant keys (json matches field names case-insensitively) and a
	// nested "messages" key ahead of the top-level one.
	long := strings.Repeat("x", 160)
	caseVariant := strings.Repeat(`{"Role":"user","Content":"`+long+`"},`, 4)
	for i, body := range []string{
		`{"messages":[` + strings.TrimSuffix(caseVariant, ",") + `]}`,
		`{"metadata":{"messages":[{"role":"system","content":"` + strings.Repeat("n", 160) + `"}]},` +
			`"messages":[{"role":"system","content":"` + long + `"}]}`,
	} {
		var req ChatRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		want := ChatPrefixKey(DefaultBlockSize, req.Messages)
		if got := ChatPrefixKeyRaw(DefaultBlockSize, []byte(body)); got != want || want == 0 {
			t.Errorf("raw body %d: raw key %#x != decoded key %#x", i, got, want)
		}
	}
}

func TestChatPrefixKeyRawBailsOnHardInput(t *testing.T) {
	bodies := []string{
		``,
		`{}`,
		`{"model":"scout"}`,
		`{"messages":[]}`,
		`{"messages":`,
		`{"messages":[{"role":"system"`,
		// Escapes inside a string need a real JSON decoder; the scanner
		// must give up rather than hash the wrong bytes.
		`{"messages":[{"role":"system","content":"a \"quoted\" prompt ` + strings.Repeat("x", 600) + `"}]}`,
		// Non-string content (multimodal parts) is beyond the fast path.
		`{"messages":[{"role":"user","content":[{"type":"text","text":"hello"}]}]}`,
		// encoding/json decodes a repeated top-level messages key into the
		// first one's elements, so a role the second omits survives.
		`{"messages":[{"role":"system","content":"` + strings.Repeat("a", 160) + `"}],` +
			`"messages":[{"content":"` + strings.Repeat("b", 160) + `"}]}`,
		// A key spelled with escapes may be "messages" in disguise.
		`{"m\u0065ssages":[{"role":"system","content":"` + strings.Repeat("x", 600) + `"}]}`,
		// Invalid UTF-8 decodes as U+FFFD, not as the raw bytes.
		`{"messages":[{"role":"system","content":"` + "\xff" + strings.Repeat("x", 600) + `"}]}`,
	}
	for i, body := range bodies {
		if got := ChatPrefixKeyRaw(DefaultBlockSize, []byte(body)); got != 0 {
			t.Errorf("case %d: got key %#x from unparseable body, want 0", i, got)
		}
	}
}

func BenchmarkChatPrefixKeyRaw(b *testing.B) {
	benchChatPrefixKeyRaw(b, []ChatMessage{bigSystemPrompt(), {Role: "user", Content: "summarize the last answer"}})
}

// BenchmarkChatPrefixKeyRawLongHistory is a later turn of a chat session:
// the same system prompt fills the first block, then ~7 KB of earlier
// turns follow that the scanner must step over to the end of the object.
func BenchmarkChatPrefixKeyRawLongHistory(b *testing.B) {
	msgs := []ChatMessage{bigSystemPrompt()}
	for turn := 0; turn < 3; turn++ {
		msgs = append(msgs,
			ChatMessage{Role: "user", Content: SynthesizeText(80)},
			ChatMessage{Role: "assistant", Content: SynthesizeText(500)})
	}
	benchChatPrefixKeyRaw(b, append(msgs, ChatMessage{Role: "user", Content: "summarize the last answer"}))
}

func benchChatPrefixKeyRaw(b *testing.B, msgs []ChatMessage) {
	body, err := json.Marshal(ChatRequest{Model: "scout", Messages: msgs, SessionID: "conv-9"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ChatPrefixKeyRaw(DefaultBlockSize, body) == 0 {
			b.Fatal("key vanished")
		}
	}
}
