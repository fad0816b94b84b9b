// Package yamlite writes the YAML subset the repository needs — block
// mappings and sequences, and scalars with the core schema (null, bool,
// int, float, string) — entirely on the standard library. Marshal writes
// the Helm values file of a Kubernetes plan (the paper's Figure 6). No
// program reads YAML: the package's tests hold the reader, which Marshal's
// round trip is checked against.
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

// plainScalar reads a plain scalar that holds no quote, flow or comment
// character, as the core schema does: null, a bool, a number, or else s
// itself.
func plainScalar(s string) any {
	switch s {
	case "null", "~", "Null", "NULL":
		return nil
	case "true", "True", "TRUE":
		return true
	case "false", "False", "FALSE":
		return false
	}
	return coreNumber(s)
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

// Marshal renders v, a tree of map[string]any, []any and scalars, as YAML
// with two-space indentation and sorted map keys, so a plan's Helm values
// file (Fig 6) is the same on every run. A string that would read back as
// another scalar, or as structure, is written quoted.
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
		// Strings that would re-read as another scalar type must be quoted.
		needs = plainScalar(s) != s
	}
	if needs {
		return strconv.Quote(s)
	}
	return s
}
