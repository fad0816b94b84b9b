package sched

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// Each hop of the request path reads an OpenAI chat-completions body with
// one scan, without decoding it into Go strings: the front door reads its
// scheduling attributes and leading prefix key, the engine its prompt and
// generation limits. The scan reads exactly what encoding/json would
// decode into vllm.ChatRequest, or declines the body, and the caller then
// decodes it with encoding/json as before: every status code and error
// text stays that decoder's.

// Chat is a chat-completions body as ScanChat read it. Every []byte is a
// span of the scanned body, valid as long as the body and never written.
type Chat struct {
	Model, SessionID, User, Priority []byte
	MaxTokens                        int
	Stream                           bool
	// Messages iterates the messages array in place.
	Messages Messages
}

// Messages iterates the role and content spans of a scanned messages
// array, in order. The zero value holds no messages. Copy it to iterate
// again from the start.
type Messages struct {
	body []byte
	i    int // the next element, or the array's closing ']'
}

// Next returns the next message's role and content spans; ok is false
// once the array is exhausted.
func (m *Messages) Next() (role, content []byte, ok bool) {
	if m.body == nil || m.body[m.i] == ']' {
		return nil, nil, false
	}
	role, content, m.i, _ = nextMessage(m.body, m.i)
	return role, content, true
}

// Top-level keys the scan reads, indexing chatKeys.
const (
	keyModel = iota
	keySessionID
	keyUser
	keyPriority
	keyMaxTokens
	keyTemperature
	keyStream
	keyMessages
)

// chatKeys are the JSON names of vllm.ChatRequest's fields. A body key
// names a field when bytes.EqualFold matches them, as encoding/json
// matches field names.
var chatKeys = [...][]byte{
	keyModel:       []byte("model"),
	keySessionID:   []byte("session_id"),
	keyUser:        []byte("user"),
	keyPriority:    []byte("priority"),
	keyMaxTokens:   []byte("max_tokens"),
	keyTemperature: []byte("temperature"),
	keyStream:      []byte("stream"),
	keyMessages:    []byte("messages"),
}

var (
	roleKey    = []byte("role")
	contentKey = []byte("content")
)

// ScanChat reads a chat-completions body in place. It does not allocate.
// ok is false, and the caller must decode the body with encoding/json
// instead, for any body whose decoded fields it cannot read straight from
// the bytes or that encoding/json would reject as a vllm.ChatRequest:
//   - invalid JSON, or a top level that is not an object;
//   - an escape or invalid UTF-8 in a key or in a string field it reads;
//   - a field named twice (encoding/json keeps the last value, and decodes
//     a second messages array into the first one's elements);
//   - a value of the wrong type, or a message, role or content that is
//     null;
//   - a max_tokens that is not an int64 literal, or a temperature that
//     does not parse as a float64.
//
// A top-level null leaves its field unset, as encoding/json does.
func ScanChat(body []byte) (c Chat, ok bool) {
	if !json.Valid(body) {
		return Chat{}, false
	}
	// From here on the body is well-formed: every key is followed by a
	// colon, every value by a comma or the closing bracket.
	i := skipSpace(body, 0)
	if body[i] != '{' {
		return Chat{}, false
	}
	var seen uint
	for i = skipSpace(body, i+1); body[i] != '}'; i = skipComma(body, i) {
		name, j, ok := readString(body, i)
		if !ok {
			return Chat{}, false
		}
		i = skipSpace(body, skipSpace(body, j)+1)
		k := chatKey(name)
		if k < 0 {
			i = skipValue(body, i)
			continue
		}
		if seen&(1<<k) != 0 {
			return Chat{}, false
		}
		seen |= 1 << k
		if body[i] == 'n' {
			i += len("null")
			continue
		}
		if i, ok = c.read(k, body, i); !ok {
			return Chat{}, false
		}
	}
	return c, true
}

// chatKey returns the index of the field a body key names, -1 for none.
func chatKey(name []byte) int {
	for k, key := range chatKeys {
		if bytes.EqualFold(name, key) {
			return k
		}
	}
	return -1
}

// read stores the non-null value at body[i] into field k and returns the
// index past it; ok is false when the value cannot be read as that field.
func (c *Chat) read(k int, body []byte, i int) (next int, ok bool) {
	switch k {
	case keyModel:
		c.Model, next, ok = readString(body, i)
	case keySessionID:
		c.SessionID, next, ok = readString(body, i)
	case keyUser:
		c.User, next, ok = readString(body, i)
	case keyPriority:
		c.Priority, next, ok = readString(body, i)
	case keyMaxTokens:
		// encoding/json parses a number for an int field with ParseInt,
		// so 1.0, 1e2 and 2^63 are type errors there; so is any value
		// that is not a number, and ParseInt rejects each of those too.
		next = skipValue(body, i)
		n, err := strconv.ParseInt(string(body[i:next]), 10, 64)
		c.MaxTokens = int(n)
		ok = err == nil && int64(c.MaxTokens) == n
	case keyTemperature:
		// Likewise ParseFloat, which rejects 1e400.
		next = skipValue(body, i)
		_, err := strconv.ParseFloat(string(body[i:next]), 64)
		ok = err == nil
	case keyStream:
		next = skipValue(body, i)
		switch string(body[i:next]) {
		case "true":
			c.Stream, ok = true, true
		case "false":
			ok = true
		}
	case keyMessages:
		if body[i] != '[' {
			return 0, false
		}
		c.Messages = Messages{body: body, i: skipSpace(body, i+1)}
		for i = c.Messages.i; body[i] != ']'; {
			if _, _, i, ok = nextMessage(body, i); !ok {
				return 0, false
			}
		}
		next, ok = i+1, true
	}
	return next, ok
}

// nextMessage reads the message object at body[i] and returns its role and
// content spans and the index of the next element or of the closing ']'.
// ok is false for an element that is not an object, and for a message
// whose role or content is not a plain string or is named twice; other
// keys are skipped, as encoding/json ignores them.
func nextMessage(body []byte, i int) (role, content []byte, next int, ok bool) {
	if body[i] != '{' {
		return nil, nil, 0, false
	}
	var seen uint8
	for i = skipSpace(body, i+1); body[i] != '}'; i = skipComma(body, i) {
		name, j, ok := readString(body, i)
		if !ok {
			return nil, nil, 0, false
		}
		i = skipSpace(body, skipSpace(body, j)+1)
		var k uint8
		switch {
		case bytes.EqualFold(name, roleKey):
			k = 1
		case bytes.EqualFold(name, contentKey):
			k = 2
		default:
			i = skipValue(body, i)
			continue
		}
		if seen&k != 0 {
			return nil, nil, 0, false
		}
		seen |= k
		var s []byte
		if s, i, ok = readString(body, i); !ok {
			return nil, nil, 0, false
		}
		if k == 1 {
			role = s
		} else {
			content = s
		}
	}
	return role, content, skipComma(body, i+1), true
}

// readString returns the span inside the string literal at body[i] and
// the index past its closing quote. ok is false unless the span is exactly
// what encoding/json decodes the literal to: a value that is not a string,
// or a string with an escape (unescaping would allocate) or invalid UTF-8
// (encoding/json decodes it as U+FFFD).
func readString(body []byte, i int) (s []byte, next int, ok bool) {
	if body[i] != '"' {
		return nil, 0, false
	}
	n := bytes.IndexByte(body[i+1:], '"')
	s = body[i+1 : i+1+n]
	if bytes.IndexByte(s, '\\') >= 0 || !utf8.Valid(s) {
		return nil, 0, false
	}
	return s, i + 2 + n, true
}

// skipValue returns the index past the well-formed JSON value at body[i].
func skipValue(body []byte, i int) int {
	switch body[i] {
	case '"':
		return skipString(body, i)
	case '{', '[':
		for depth := 0; ; i++ {
			switch body[i] {
			case '"':
				i = skipString(body, i) - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
	}
	// A number or literal runs to the next delimiter.
	for i < len(body) {
		switch body[i] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			return i
		}
		i++
	}
	return i
}

// skipString returns the index past the well-formed string literal at
// body[i]: a quote closes it unless an odd run of backslashes precedes it.
func skipString(body []byte, i int) int {
	for j := i + 1; ; j++ {
		j += bytes.IndexByte(body[j:], '"')
		k := j
		for body[k-1] == '\\' {
			k--
		}
		if (j-k)%2 == 0 {
			return j + 1
		}
	}
}

// skipComma returns the index of the next member or element after the
// value ending before body[i], or of the closing bracket.
func skipComma(body []byte, i int) int {
	if i = skipSpace(body, i); body[i] == ',' {
		i = skipSpace(body, i+1)
	}
	return i
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
