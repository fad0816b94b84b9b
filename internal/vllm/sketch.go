package vllm

import (
	"bytes"
	"unicode/utf8"
)

// Router-side prefix keys. The gateway's cache-aware picker needs the chain
// key of a request's *first* full prompt block — the same key block 0 of
// ChatPromptHashes would produce — to test against each replica's published
// prefix-membership sketch. Computing the full hash slice per pick would
// allocate on the hot path, so these fold the leading block's token stream
// directly into a single uint64.

// ChatPrefixKey returns the chain key of the first full prompt block for a
// chat prompt, identical to ChatPromptHashes(blockSize, msgs)[0]. Zero when
// the prompt is shorter than one block (no full block exists to match).
func ChatPrefixKey(blockSize int, msgs []ChatMessage) uint64 {
	if blockSize <= 0 {
		return 0
	}
	var first [1]uint64
	keys, c := first[:0], newKeyChain(blockSize)
	for _, m := range msgs {
		if keys = c.message(keys, messageBase(m), messageTokens(m)); len(keys) == 1 {
			return keys[0]
		}
	}
	return 0
}

// ChatPrefixKeyRaw computes ChatPrefixKey straight from the raw JSON body
// of a chat-completions request, without unmarshalling — the replica-pick
// path holds a zero-allocation budget, so the gateway cannot afford a
// ChatRequest decode per request. The scanner walks the top-level object,
// matching keys the way encoding/json does (case-insensitively, so "Role"
// is role), and folds the role/content byte spans of its one messages
// array in place. Any body whose decoded messages it cannot be sure of —
// an escaped key or string, invalid UTF-8, a non-string message field, a
// second top-level messages key (encoding/json would decode the last one
// into the first one's elements), an absent array — returns 0 (no prefix
// signal), never a wrong key.
func ChatPrefixKeyRaw(blockSize int, body []byte) uint64 {
	if blockSize <= 0 {
		return 0
	}
	i := skipSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return 0
	}
	i = skipSpace(body, i+1)
	var key uint64
	seen := false
	for i < len(body) && body[i] != '}' {
		// A key spelled with escapes could decode to "messages": bail.
		name, j, ok := scanString(body, i)
		if !ok {
			return 0
		}
		i = skipSpace(body, j)
		if i >= len(body) || body[i] != ':' {
			return 0
		}
		i = skipSpace(body, i+1)
		if bytes.EqualFold(name, msgsKey) {
			if seen {
				return 0
			}
			seen = true
			key, i, ok = scanMessages(body, i, blockSize)
		} else {
			i, ok = skipValue(body, i)
		}
		if !ok {
			return 0
		}
		if i = skipSpace(body, i); i < len(body) && body[i] == ',' {
			i = skipSpace(body, i+1)
		}
	}
	if i >= len(body) {
		return 0
	}
	return key
}

// scanMessages folds the messages array starting at body[i] into the
// chain key of the first full prompt block — 0 when the messages end
// before one fills — and returns the index past the array. Messages after
// that block are skipped unread.
func scanMessages(body []byte, i, blockSize int) (key uint64, next int, ok bool) {
	if i >= len(body) || body[i] != '[' {
		return 0, 0, false
	}
	var first [1]uint64
	keys, c := first[:0], newKeyChain(blockSize)
	for i = skipSpace(body, i+1); i < len(body) && body[i] != ']'; {
		if len(keys) == 1 {
			i, ok = skipValue(body, i)
		} else {
			var role, content []byte
			role, content, i, ok = scanMessage(body, i)
			if ok {
				keys = c.message(keys, fnvBytes(fnvBytes(fnvOffset64, role), content), estimateTokensBytes(content)+4)
			}
		}
		if !ok {
			return 0, 0, false
		}
		if i = skipSpace(body, i); i < len(body) && body[i] == ',' {
			i = skipSpace(body, i+1)
		}
	}
	if i >= len(body) {
		return 0, 0, false
	}
	if len(keys) == 1 {
		key = keys[0]
	}
	return key, i + 1, true
}

var msgsKey = []byte("messages")

// scanMessage parses one {"role": "...", "content": "...", ...} object
// starting at body[i] (which must be '{'), returning the role and content
// spans and the index just past the closing '}'. Keys match as
// encoding/json matches them, and a repeated key keeps its last value, as
// it does there. ok is false on any shape the scanner cannot handle
// without allocating.
func scanMessage(body []byte, i int) (role, content []byte, next int, ok bool) {
	if body[i] != '{' {
		return nil, nil, 0, false
	}
	for i = skipSpace(body, i+1); i < len(body) && body[i] != '}'; {
		key, j, kok := scanString(body, i)
		if !kok {
			return nil, nil, 0, false
		}
		i = skipSpace(body, j)
		if i >= len(body) || body[i] != ':' {
			return nil, nil, 0, false
		}
		// Non-string message fields (nested content parts, numbers, null)
		// are out of scope for the fast path.
		val, j, vok := scanString(body, skipSpace(body, i+1))
		if !vok {
			return nil, nil, 0, false
		}
		switch {
		case bytes.EqualFold(key, roleKey):
			role = val
		case bytes.EqualFold(key, contentKey):
			content = val
		}
		if i = skipSpace(body, j); i < len(body) && body[i] == ',' {
			i = skipSpace(body, i+1)
		}
	}
	if i >= len(body) {
		return nil, nil, 0, false
	}
	return role, content, i + 1, true
}

var (
	roleKey    = []byte("role")
	contentKey = []byte("content")
)

// scanString returns the span inside a JSON string literal starting at
// body[i] == '"' and the index past the closing quote. A string that would
// not decode to exactly its raw bytes fails: one with escape sequences
// (unescaping would allocate; callers fall back to no prefix signal, and
// the simulation's prompt generators emit none) or with invalid UTF-8
// (encoding/json decodes it as U+FFFD).
func scanString(body []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(body) || body[i] != '"' {
		return nil, 0, false
	}
	n := bytes.IndexByte(body[i+1:], '"')
	if n < 0 {
		return nil, 0, false
	}
	s = body[i+1 : i+1+n]
	if bytes.IndexByte(s, '\\') >= 0 || !utf8.Valid(s) {
		return nil, 0, false
	}
	return s, i + 2 + n, true
}

// skipString returns the index past the JSON string literal starting at
// body[i] == '"', escapes included: a quote closes it unless an odd run of
// backslashes precedes it.
func skipString(body []byte, i int) (int, bool) {
	for j := i + 1; j < len(body); j++ {
		n := bytes.IndexByte(body[j:], '"')
		if n < 0 {
			return 0, false
		}
		j += n
		escapes := 0
		for body[j-1-escapes] == '\\' {
			escapes++
		}
		if escapes%2 == 0 {
			return j + 1, true
		}
	}
	return 0, false
}

// skipValue returns the index past the JSON value starting at body[i]: a
// string, an object or array (nesting followed, strings skipped whole), or
// a number or literal, which runs to the next delimiter.
func skipValue(body []byte, i int) (int, bool) {
	if i >= len(body) {
		return 0, false
	}
	switch body[i] {
	case '"':
		return skipString(body, i)
	case '{', '[':
		depth := 0
		for i < len(body) {
			switch body[i] {
			case '"':
				j, ok := skipString(body, i)
				if !ok {
					return 0, false
				}
				i = j
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1, true
				}
			}
			i++
		}
		return 0, false
	}
	for j := i; j < len(body); j++ {
		switch body[j] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			return j, j > i
		}
	}
	return 0, false
}

func skipSpace(body []byte, i int) int {
	for i < len(body) {
		switch body[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// fnvBytes is fnvString over a byte span (same separator round), so raw
// JSON spans hash identically to the decoded strings they contain.
func fnvBytes(h uint64, b []byte) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	h *= fnvPrime64 // separator round
	return h
}

// estimateTokensBytes mirrors EstimateTokens without a string conversion.
func estimateTokensBytes(b []byte) int {
	n := (len(b) + 3) / 4
	if n < 1 {
		n = 1
	}
	return n
}
