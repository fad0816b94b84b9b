package yamlite

// The YAML reader, the oracle FuzzParse and the round-trip tests check
// Marshal against: block mappings and sequences, core-schema scalars,
// quoted strings, flow sequences and mappings, comments, literal block
// scalars and multi-document streams. Unsupported on purpose:
// anchors/aliases, tags, folded scalars, and complex keys. Parse errors
// carry line numbers. No program reads YAML, so the reader lives with the
// tests.

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse decodes a single YAML document into map[string]any, []any, or a
// scalar (string, bool, int64, float64, nil).
func Parse(data []byte) (any, error) {
	docs, err := ParseAll(data)
	if err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, nil
	}
	return docs[0], nil
}

// ParseAll decodes a multi-document stream ("---" separators).
func ParseAll(data []byte) ([]any, error) {
	var docs []any
	for _, chunk := range splitDocs(string(data)) {
		lines, err := scan(chunk)
		if err != nil {
			return nil, err
		}
		if len(lines) == 0 {
			continue
		}
		p := &parser{lines: lines}
		v, err := p.parseNode(0)
		if err != nil {
			return nil, err
		}
		if p.pos < len(p.lines) {
			l := p.lines[p.pos]
			return nil, fmt.Errorf("yamlite: line %d: unexpected content %q", l.num, l.text)
		}
		docs = append(docs, v)
	}
	return docs, nil
}

func splitDocs(s string) []string {
	var docs []string
	var cur []string
	for _, ln := range strings.Split(s, "\n") {
		if strings.TrimSpace(ln) == "---" {
			docs = append(docs, strings.Join(cur, "\n"))
			cur = nil
			continue
		}
		cur = append(cur, ln)
	}
	docs = append(docs, strings.Join(cur, "\n"))
	// Drop documents that are entirely blank.
	var out []string
	for _, d := range docs {
		if strings.TrimSpace(stripAllComments(d)) != "" {
			out = append(out, d)
		}
	}
	return out
}

func stripAllComments(s string) string {
	var b strings.Builder
	for _, ln := range strings.Split(s, "\n") {
		b.WriteString(stripComment(ln))
		b.WriteByte('\n')
	}
	return b.String()
}

type line struct {
	indent int
	text   string
	num    int
	// raw is set for literal-block continuation lines, preserving content.
	raw string
}

// scan splits source into significant lines with indentation.
func scan(src string) ([]line, error) {
	var out []line
	rawLines := strings.Split(src, "\n")
	for i := 0; i < len(rawLines); i++ {
		ln := rawLines[i]
		if strings.ContainsRune(ln, '\t') {
			return nil, fmt.Errorf("yamlite: line %d: tabs are not allowed for indentation", i+1)
		}
		stripped := stripComment(ln)
		trimmed := strings.TrimSpace(stripped)
		if trimmed == "" {
			continue
		}
		indent := len(stripped) - len(strings.TrimLeft(stripped, " "))
		out = append(out, line{indent: indent, text: trimmed, num: i + 1, raw: ln})
		// Literal block scalar: swallow deeper raw lines verbatim.
		if strings.HasSuffix(trimmed, ": |") || trimmed == "|" || strings.HasSuffix(trimmed, ":|") {
			var block []string
			blockIndent := -1
			for i+1 < len(rawLines) {
				nxt := rawLines[i+1]
				nxtTrim := strings.TrimSpace(nxt)
				nxtIndent := len(nxt) - len(strings.TrimLeft(nxt, " "))
				if nxtTrim != "" && nxtIndent <= indent {
					break
				}
				if nxtTrim != "" && blockIndent == -1 {
					blockIndent = nxtIndent
				}
				if blockIndent >= 0 && len(nxt) >= blockIndent {
					block = append(block, nxt[blockIndent:])
				} else {
					block = append(block, "")
				}
				i++
			}
			out[len(out)-1].raw = strings.Join(block, "\n")
		}
	}
	return out, nil
}

// stripComment removes a trailing # comment not inside quotes.
func stripComment(s string) string {
	inS, inD := false, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			// Inside a double-quoted scalar, \" is an escaped quote, not a
			// closing delimiter (Marshal emits strconv.Quote output).
			if inD {
				i++
			}
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '#':
			if !inS && !inD && (i == 0 || s[i-1] == ' ') {
				return s[:i]
			}
		}
	}
	return s
}

type parser struct {
	lines []line
	pos   int
}

func (p *parser) peek() *line {
	if p.pos >= len(p.lines) {
		return nil
	}
	return &p.lines[p.pos]
}

func (p *parser) next() *line {
	l := p.peek()
	if l != nil {
		p.pos++
	}
	return l
}

func isSeqItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

// parseNode parses the block starting at the current line, which must be
// indented at least minIndent.
func (p *parser) parseNode(minIndent int) (any, error) {
	l := p.peek()
	if l == nil || l.indent < minIndent {
		return nil, nil
	}
	if isSeqItem(l.text) {
		return p.parseSeq(l.indent)
	}
	if _, _, ok := splitKV(l.text); ok {
		return p.parseMap(l.indent)
	}
	// A bare scalar document.
	p.next()
	return parseScalar(l.text)
}

func (p *parser) parseSeq(indent int) (any, error) {
	var items []any
	for {
		l := p.peek()
		if l == nil || l.indent != indent || !isSeqItem(l.text) {
			break
		}
		p.next()
		rest := strings.TrimSpace(strings.TrimPrefix(l.text, "-"))
		if rest == "" {
			v, err := p.parseNode(indent + 1)
			if err != nil {
				return nil, err
			}
			items = append(items, v)
			continue
		}
		// Inline content: re-inject as a virtual line two columns deeper.
		virt := line{indent: indent + 2, text: rest, num: l.num, raw: l.raw}
		p.lines = append(p.lines[:p.pos], append([]line{virt}, p.lines[p.pos:]...)...)
		if _, _, ok := splitKV(rest); ok || isSeqItem(rest) {
			v, err := p.parseNode(indent + 1)
			if err != nil {
				return nil, err
			}
			items = append(items, v)
		} else {
			p.next()
			v, err := parseScalar(rest)
			if err != nil {
				return nil, err
			}
			items = append(items, v)
		}
	}
	return items, nil
}

func (p *parser) parseMap(indent int) (any, error) {
	m := map[string]any{}
	for {
		l := p.peek()
		if l == nil || l.indent != indent || isSeqItem(l.text) {
			break
		}
		key, val, ok := splitKV(l.text)
		if !ok {
			return nil, fmt.Errorf("yamlite: line %d: expected 'key: value', got %q", l.num, l.text)
		}
		p.next()
		key = unquote(key)
		switch {
		case val == "|":
			m[key] = l.raw
		case val == "":
			nxt := p.peek()
			if nxt != nil && nxt.indent > indent {
				v, err := p.parseNode(indent + 1)
				if err != nil {
					return nil, err
				}
				m[key] = v
			} else {
				m[key] = nil
			}
		default:
			v, err := parseScalar(val)
			if err != nil {
				return nil, fmt.Errorf("yamlite: line %d: %v", l.num, err)
			}
			m[key] = v
		}
	}
	if len(m) == 0 {
		return nil, nil
	}
	return m, nil
}

// splitKV splits "key: value" at the first unquoted colon followed by a
// space or end of line. ok is false when the line has no such colon.
func splitKV(s string) (key, val string, ok bool) {
	inS, inD := false, false
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			// Skip escapes inside double quotes so a scalar like "1\": "
			// cannot masquerade as a key-value split point.
			if inD {
				i++
			}
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '[', '{':
			if !inS && !inD {
				depth++
			}
		case ']', '}':
			if !inS && !inD {
				depth--
			}
		case ':':
			if inS || inD || depth > 0 {
				continue
			}
			if i == len(s)-1 {
				return strings.TrimSpace(s[:i]), "", true
			}
			if s[i+1] == ' ' {
				return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+2:]), true
			}
		}
	}
	return "", "", false
}

// parseScalar applies the core schema, including flow collections.
func parseScalar(s string) (any, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return nil, nil
	case strings.HasPrefix(s, "["):
		return parseFlowSeq(s)
	case strings.HasPrefix(s, "{"):
		return parseFlowMap(s)
	}
	if (strings.HasPrefix(s, `"`) && strings.HasSuffix(s, `"`) && len(s) >= 2) ||
		(strings.HasPrefix(s, `'`) && strings.HasSuffix(s, `'`) && len(s) >= 2) {
		return unquote(s), nil
	}
	return plainScalar(s), nil
}

func unquote(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		if u, err := strconv.Unquote(s); err == nil {
			return u
		}
		return s[1 : len(s)-1]
	}
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'")
	}
	return s
}

// splitFlow splits a flow body on top-level commas.
func splitFlow(s string) []string {
	var parts []string
	depth := 0
	inS, inD := false, false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inD {
				i++
			}
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '[', '{':
			if !inS && !inD {
				depth++
			}
		case ']', '}':
			if !inS && !inD {
				depth--
			}
		case ',':
			if depth == 0 && !inS && !inD {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, s[start:])
	return parts
}

func parseFlowSeq(s string) (any, error) {
	if !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("unterminated flow sequence %q", s)
	}
	body := strings.TrimSpace(s[1 : len(s)-1])
	if body == "" {
		return []any{}, nil
	}
	var items []any
	for _, part := range splitFlow(body) {
		v, err := parseScalar(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		items = append(items, v)
	}
	return items, nil
}

func parseFlowMap(s string) (any, error) {
	if !strings.HasSuffix(s, "}") {
		return nil, fmt.Errorf("unterminated flow mapping %q", s)
	}
	body := strings.TrimSpace(s[1 : len(s)-1])
	m := map[string]any{}
	if body == "" {
		return m, nil
	}
	for _, part := range splitFlow(body) {
		k, v, ok := splitKV(strings.TrimSpace(part))
		if !ok {
			// allow "key:value" without space inside flow maps
			if idx := strings.Index(part, ":"); idx >= 0 {
				k, v, ok = strings.TrimSpace(part[:idx]), strings.TrimSpace(part[idx+1:]), true
			}
		}
		if !ok {
			return nil, fmt.Errorf("bad flow mapping entry %q", part)
		}
		pv, err := parseScalar(v)
		if err != nil {
			return nil, err
		}
		m[unquote(k)] = pv
	}
	return m, nil
}

// Get walks a parsed tree by dotted path ("image.repository"); numeric path
// segments index sequences. It returns nil when any segment is missing.
func Get(v any, path string) any {
	if path == "" {
		return v
	}
	for _, seg := range strings.Split(path, ".") {
		switch t := v.(type) {
		case map[string]any:
			v = t[seg]
		case []any:
			var idx int
			if _, err := fmt.Sscanf(seg, "%d", &idx); err != nil || idx < 0 || idx >= len(t) {
				return nil
			}
			v = t[idx]
		default:
			return nil
		}
	}
	return v
}
