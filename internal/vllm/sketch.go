package vllm

import "repro/internal/sched"

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
// of a chat-completions request: it reads the body with sched.ScanChat
// and returns ChatPrefixKeyOf its messages. A body the scan declines
// returns 0 (no prefix signal), never a wrong key.
func ChatPrefixKeyRaw(blockSize int, body []byte) uint64 {
	c, ok := sched.ScanChat(body)
	if !ok {
		return 0
	}
	return ChatPrefixKeyOf(blockSize, c.Messages)
}

// ChatPrefixKeyOf is ChatPrefixKey over scanned messages. It does not
// allocate, and stops reading the messages once the first block is full.
// The gateway keys each chat request from the messages sched.Describe
// scanned.
func ChatPrefixKeyOf(blockSize int, msgs sched.Messages) uint64 {
	if blockSize <= 0 {
		return 0
	}
	var first [1]uint64
	if keys := foldMessages(first[:0], blockSize, msgs); len(keys) == 1 {
		return keys[0]
	}
	return 0
}
