package vllm

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// A two-pass reference for the single-pass keyChain folds: one hash per
// token into a slice, then chained into per-full-block keys.

// chainBlocks folds a per-token hash stream into per-full-block chain
// keys: block i's key covers its own tokens and, through the chain, every
// token before it.
func chainBlocks(tokens []uint64, blockSize int) []uint64 {
	if blockSize <= 0 {
		return nil
	}
	n := len(tokens) / blockSize
	out := make([]uint64, 0, n)
	h := uint64(fnvOffset64)
	for i := 0; i < n; i++ {
		for _, t := range tokens[i*blockSize : (i+1)*blockSize] {
			h = fnvUint(h, t)
		}
		out = append(out, h)
	}
	return out
}

// refChatPromptHashes hashes every token of every message into one slice
// and chains it.
func refChatPromptHashes(blockSize int, msgs []ChatMessage) []uint64 {
	var tokens []uint64
	for _, m := range msgs {
		base := fnvString(fnvString(fnvOffset64, m.Role), m.Content)
		for j := 0; j < EstimateTokens(m.Content)+4; j++ {
			tokens = append(tokens, fnvUint(base, uint64(j)))
		}
	}
	return chainBlocks(tokens, blockSize)
}

// refTextPromptHashes hashes each 4-byte span of text into one slice and
// chains it.
func refTextPromptHashes(blockSize int, text string) []uint64 {
	var tokens []uint64
	for j := 0; j < EstimateTokens(text); j++ {
		tokens = append(tokens, fnvString(fnvOffset64, text[j*4:min(j*4+4, len(text))]))
	}
	return chainBlocks(tokens, blockSize)
}

// randomContent returns 0 to 3 KB of mixed ASCII and multi-byte UTF-8,
// empty a tenth of the time.
func randomContent(rng *rand.Rand) string {
	if rng.Intn(10) == 0 {
		return ""
	}
	pieces := []string{"a", "cluster ", "GPU", " ", "é", "日本", "🚀", "\n", "ß", "0123456789"}
	var b strings.Builder
	for n := rng.Intn(3 << 10); b.Len() < n; {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

// TestPromptHashesMatchTwoPassReference: the single-pass hashing produces
// the reference's keys exactly, in a slice of exactly that many keys, and
// ChatPrefixKey is the first of them (0 when there is none), over random
// conversations and block sizes 1 to 64.
func TestPromptHashesMatchTwoPassReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	roles := []string{"system", "user", "assistant", ""}
	for trial := 0; trial < 400; trial++ {
		bs := 1 + rng.Intn(64)
		msgs := make([]ChatMessage, rng.Intn(6))
		for i := range msgs {
			msgs[i] = ChatMessage{Role: roles[rng.Intn(len(roles))], Content: randomContent(rng)}
		}
		want := refChatPromptHashes(bs, msgs)
		got := ChatPromptHashes(bs, msgs)
		if !slices.Equal(got, want) || len(got) != cap(got) {
			t.Fatalf("trial %d (block %d, %d messages): ChatPromptHashes = %d keys (cap %d), reference %d keys, equal %v",
				trial, bs, len(msgs), len(got), cap(got), len(want), slices.Equal(got, want))
		}
		var first uint64
		if len(want) > 0 {
			first = want[0]
		}
		if key := ChatPrefixKey(bs, msgs); key != first {
			t.Fatalf("trial %d (block %d): ChatPrefixKey = %#x, want %#x", trial, bs, key, first)
		}
		text := randomContent(rng)
		if got, want := TextPromptHashes(bs, text), refTextPromptHashes(bs, text); !slices.Equal(got, want) || len(got) != cap(got) {
			t.Fatalf("trial %d (block %d, %d bytes): TextPromptHashes = %d keys (cap %d), reference %d keys",
				trial, bs, len(text), len(got), cap(got), len(want))
		}
	}
	for _, bs := range []int{0, -1} {
		if ChatPromptHashes(bs, []ChatMessage{bigSystemPrompt()}) != nil || TextPromptHashes(bs, "text") != nil ||
			ChatPrefixKey(bs, []ChatMessage{bigSystemPrompt()}) != 0 {
			t.Fatalf("block size %d must produce no keys", bs)
		}
	}
}

// FuzzChatPrefixKeyRaw: for every body encoding/json accepts as a
// ChatRequest, the raw scanner returns the decoded first-block key or 0,
// never a different key; and when the request's canonical encoding has
// no escapes, it returns that key.
func FuzzChatPrefixKeyRaw(f *testing.F) {
	for _, req := range []ChatRequest{
		{Model: "scout", Messages: []ChatMessage{bigSystemPrompt(), {Role: "user", Content: "what changed?"}}, SessionID: "conv-1"},
		{Messages: []ChatMessage{{Role: "user", Content: "hi"}}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var cr ChatRequest
		if json.Unmarshal(body, &cr) != nil {
			return
		}
		canonical, err := json.Marshal(cr)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range []int{1, 16} {
			var want uint64
			if keys := ChatPromptHashes(bs, cr.Messages); len(keys) > 0 {
				want = keys[0]
			}
			if got := ChatPrefixKeyRaw(bs, body); got != 0 && got != want {
				t.Fatalf("block %d: raw key %#x, decoded key %#x\nbody %q", bs, got, want, body)
			}
			if bytes.IndexByte(canonical, '\\') < 0 {
				if got := ChatPrefixKeyRaw(bs, canonical); got != want {
					t.Fatalf("block %d: raw key of the canonical body %#x, decoded key %#x\nbody %q", bs, got, want, canonical)
				}
			}
		}
	})
}
