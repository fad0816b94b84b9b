// Package yamlite implements the YAML subset the repository needs — block
// mappings and sequences, scalars with the core schema (null, bool, int,
// float, string), quoted strings, flow sequences/mappings, comments, literal
// block scalars, and multi-document streams — entirely on the standard
// library. Marshal writes the Helm values file of a Kubernetes plan (the
// paper's Figure 6), Merge layers a release's values over a chart's
// defaults, and Parse reads a values file back: the tests read the engine
// flags out of a plan's file with it and check Marshal's round trip.
//
// Unsupported on purpose: anchors/aliases, tags, folded scalars, and complex
// keys. Parse errors carry line numbers.
package yamlite

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"unicode"
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
	switch s {
	case "null", "~", "Null", "NULL":
		return nil, nil
	case "true", "True", "TRUE":
		return true, nil
	case "false", "False", "FALSE":
		return false, nil
	}
	return coreNumber(s), nil
}

// The int and float forms of the YAML 1.2 core schema. Anything else that
// strconv would read as a number — Go's 0b and legacy 0 prefixes, digit
// separators, hex floats, NaN and Inf spelled without the dot — is a
// string.
var (
	coreDecimal = regexp.MustCompile(`^[-+]?[0-9]+$`)
	coreOctal   = regexp.MustCompile(`^0o[0-7]+$`)
	coreHex     = regexp.MustCompile(`^0x[0-9a-fA-F]+$`)
	coreFloat   = regexp.MustCompile(`^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?$`)
)

// coreNumber reads a plain scalar that is not null or a bool: an int64 or
// a float64 where the core schema says it is one, otherwise s itself. A
// decimal int too large for int64 reads as the float nearest it, and a
// float out of float64's range, or an octal or hex int out of int64's,
// stays a string.
func coreNumber(s string) any {
	switch {
	case coreOctal.MatchString(s):
		if i, err := strconv.ParseInt(s[2:], 8, 64); err == nil {
			return i
		}
		return s
	case coreHex.MatchString(s):
		if i, err := strconv.ParseInt(s[2:], 16, 64); err == nil {
			return i
		}
		return s
	case coreDecimal.MatchString(s):
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return i
		}
	}
	switch s {
	case ".nan", ".NaN", ".NAN":
		return math.NaN()
	case ".inf", ".Inf", ".INF", "+.inf", "+.Inf", "+.INF":
		return math.Inf(1)
	case "-.inf", "-.Inf", "-.INF":
		return math.Inf(-1)
	}
	if coreFloat.MatchString(s) {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return f
		}
	}
	return s
}

// formatFloat writes f so that coreNumber reads it back as the same
// float64: NaN and the infinities in their core-schema spellings, and an
// integral value with a ".0", which would otherwise read as an int.
func formatFloat(f float64) string {
	switch {
	case math.IsNaN(f):
		return ".nan"
	case math.IsInf(f, 1):
		return ".inf"
	case math.IsInf(f, -1):
		return "-.inf"
	}
	out := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(out, ".e") {
		out += ".0"
	}
	return out
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

// Marshal renders v as YAML with two-space indentation and sorted map keys,
// so a plan's Helm values file (Fig 6) is the same on every run.
func Marshal(v any) []byte {
	var b strings.Builder
	writeValue(&b, v, 0, false)
	out := b.String()
	if !strings.HasSuffix(out, "\n") {
		out += "\n"
	}
	return []byte(out)
}

func writeValue(b *strings.Builder, v any, indent int, inline bool) {
	pad := strings.Repeat(" ", indent)
	switch t := v.(type) {
	case nil:
		b.WriteString("null")
	case map[string]any:
		if len(t) == 0 {
			b.WriteString("{}")
			return
		}
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 || !inline {
				if i > 0 {
					b.WriteString("\n")
				}
				b.WriteString(pad)
			}
			b.WriteString(quoteKey(k))
			b.WriteString(":")
			child := t[k]
			if isScalar(child) || isEmptyColl(child) {
				b.WriteString(" ")
				writeValue(b, child, 0, true)
			} else {
				b.WriteString("\n")
				writeValue(b, child, indent+2, false)
			}
		}
	case []any:
		if len(t) == 0 {
			b.WriteString("[]")
			return
		}
		for i, item := range t {
			if i > 0 {
				b.WriteString("\n")
			}
			b.WriteString(pad)
			b.WriteString("-")
			if isScalar(item) || isEmptyColl(item) {
				b.WriteString(" ")
				writeValue(b, item, 0, true)
			} else {
				b.WriteString(" ")
				writeValue(b, item, indent+2, true)
			}
		}
	case string:
		b.WriteString(quoteString(t))
	case bool:
		b.WriteString(strconv.FormatBool(t))
	case int:
		b.WriteString(strconv.Itoa(t))
	case int64:
		b.WriteString(strconv.FormatInt(t, 10))
	case float64:
		b.WriteString(formatFloat(t))
	default:
		b.WriteString(fmt.Sprintf("%v", t))
	}
}

func isScalar(v any) bool {
	switch v.(type) {
	case nil, string, bool, int, int64, float64:
		return true
	}
	return false
}

func isEmptyColl(v any) bool {
	switch t := v.(type) {
	case map[string]any:
		return len(t) == 0
	case []any:
		return len(t) == 0
	}
	return false
}

func quoteKey(k string) string {
	if k == "" || strings.ContainsAny(k, ":#{}[],\"' ") || strings.ContainsFunc(k, unicode.IsControl) {
		return strconv.Quote(k)
	}
	return k
}

func quoteString(s string) string {
	if s == "" {
		return `""`
	}
	needs := strings.ContainsAny(s, ":#{}[],&*?|>'\"%@`") || strings.ContainsFunc(s, unicode.IsControl) ||
		s == "-" || s == "---" || strings.HasPrefix(s, "- ") || s != strings.TrimSpace(s)
	if !needs {
		// Strings that would re-parse as another scalar type must be quoted.
		if v, _ := parseScalar(s); v != s {
			needs = true
		}
	}
	if needs {
		return strconv.Quote(s)
	}
	return s
}
