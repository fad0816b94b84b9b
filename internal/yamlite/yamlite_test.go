package yamlite

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string) any {
	t.Helper()
	v, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, src)
	}
	return v
}

func TestScalars(t *testing.T) {
	v := mustParse(t, `
str: hello world
quoted: "v0.9.1"
single: 'it''s quoted'
num: 42
hex: 0x10
neg: -7
fl: 3.14
yes: true
no: false
nul: null
tilde: ~
empty:
`)
	m := v.(map[string]any)
	want := map[string]any{
		"str": "hello world", "quoted": "v0.9.1", "single": "it's quoted",
		"num": int64(42), "hex": int64(16), "neg": int64(-7), "fl": 3.14,
		"yes": true, "no": false, "nul": nil, "tilde": nil, "empty": nil,
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("got %#v\nwant %#v", m, want)
	}
}

// TestCoreSchemaScalars: plain scalars read as ints and floats exactly
// where the YAML 1.2 core schema says so; Go's other number spellings stay
// strings.
func TestCoreSchemaScalars(t *testing.T) {
	for _, c := range []struct {
		in   string
		want any
	}{
		{"080000", int64(80000)}, {"017", int64(17)}, {"+5", int64(5)}, {"0o17", int64(15)}, {"0x1F", int64(31)},
		{"99999999999999999999", 1e20}, {"1e3", 1000.0}, {"5.", 5.0}, {".5", 0.5}, {"-.inf", math.Inf(-1)},
		{".Inf", math.Inf(1)}, {"1e400", "1e400"},
		{"NAN", "NAN"}, {"NaN", "NaN"}, {"Inf", "Inf"}, {"-Infinity", "-Infinity"}, {"1_000", "1_000"},
		{"0b101", "0b101"}, {"0x1p-2", "0x1p-2"}, {"0X1F", "0X1F"}, {"0o-7", "0o-7"}, {"0xFFFFFFFFFFFFFFFFF", "0xFFFFFFFFFFFFFFFFF"},
	} {
		if got := mustParse(t, c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Parse(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
	if got, ok := mustParse(t, ".nan").(float64); !ok || !math.IsNaN(got) {
		t.Errorf("Parse(.nan) = %#v, want NaN", got)
	}
	for _, f := range []float64{80000, -0.5, 1e20, 1e-7, math.Inf(1), math.NaN()} {
		if got := mustParse(t, string(Marshal(f))); !sameValue(got, f) {
			t.Errorf("Marshal(%v) = %q, which parses to %#v", f, Marshal(f), got)
		}
	}
}

func TestNestedStructure(t *testing.T) {
	v := mustParse(t, `
image:
  repository: "vllm/vllm-openai"
  tag: "v0.9.1"
resources:
  limits:
    nvidia.com/gpu: 4
env:
  - name: HOME
    value: "/data"
  - name: HF_HUB_DISABLE_TELEMETRY
    value: "1"
command: ["vllm", "serve", "/data/", "--port", "8000"]
`)
	if got := Get(v, "image.repository"); got != "vllm/vllm-openai" {
		t.Fatalf("image.repository = %q", got)
	}
	lim := Get(v, "resources.limits").(map[string]any)
	if lim["nvidia.com/gpu"] != int64(4) {
		t.Fatalf("gpu limit = %v", lim["nvidia.com/gpu"])
	}
	env := Get(v, "env").([]any)
	if len(env) != 2 {
		t.Fatalf("env len = %d", len(env))
	}
	e0 := env[0].(map[string]any)
	if e0["name"] != "HOME" || e0["value"] != "/data" {
		t.Fatalf("env[0] = %v", e0)
	}
	cmd := Get(v, "command").([]any)
	if len(cmd) != 5 || cmd[0] != "vllm" || cmd[4] != "8000" {
		t.Fatalf("command = %v", cmd)
	}
}

func TestSequences(t *testing.T) {
	v := mustParse(t, `
plain:
  - a
  - b
nested:
  - - 1
    - 2
  - - 3
maps:
  - name: x
    port: 80
  - name: y
    port: 443
`)
	plain := Get(v, "plain").([]any)
	if !reflect.DeepEqual(plain, []any{"a", "b"}) {
		t.Fatalf("plain = %v", plain)
	}
	nested := Get(v, "nested").([]any)
	if !reflect.DeepEqual(nested[0], []any{int64(1), int64(2)}) {
		t.Fatalf("nested[0] = %v", nested[0])
	}
	maps := Get(v, "maps").([]any)
	m1 := maps[1].(map[string]any)
	if m1["name"] != "y" || m1["port"] != int64(443) {
		t.Fatalf("maps[1] = %v", m1)
	}
}

func TestComments(t *testing.T) {
	v := mustParse(t, `
# -- vLLM Image configuration
image: x # trailing comment
url: "http://host:8000/#frag" # hash inside quotes survives
`)
	m := v.(map[string]any)
	if m["image"] != "x" {
		t.Fatalf("image = %v", m["image"])
	}
	if m["url"] != "http://host:8000/#frag" {
		t.Fatalf("url = %v", m["url"])
	}
}

func TestFlowCollections(t *testing.T) {
	v := mustParse(t, `
seq: [1, two, true, 3.5]
map: {a: 1, b: "x", c: [1, 2]}
empty_seq: []
empty_map: {}
`)
	if !reflect.DeepEqual(Get(v, "seq"), []any{int64(1), "two", true, 3.5}) {
		t.Fatalf("seq = %v", Get(v, "seq"))
	}
	m := Get(v, "map").(map[string]any)
	if m["a"] != int64(1) || m["b"] != "x" {
		t.Fatalf("map = %v", m)
	}
	if !reflect.DeepEqual(m["c"], []any{int64(1), int64(2)}) {
		t.Fatalf("map.c = %v", m["c"])
	}
	if len(Get(v, "empty_seq").([]any)) != 0 {
		t.Fatal("empty_seq")
	}
	if len(Get(v, "empty_map").(map[string]any)) != 0 {
		t.Fatal("empty_map")
	}
}

func TestLiteralBlock(t *testing.T) {
	v := mustParse(t, `
script: |
  line one
  line two
after: 1
`)
	m := v.(map[string]any)
	if m["script"] != "line one\nline two" {
		t.Fatalf("script = %q", m["script"])
	}
	if m["after"] != int64(1) {
		t.Fatalf("after = %v", m["after"])
	}
}

func TestMultiDocument(t *testing.T) {
	docs, err := ParseAll([]byte(`
kind: Service
---
kind: Deployment
---
# only comments here

`))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("docs = %d, want 2", len(docs))
	}
	if Get(docs[1], "kind") != "Deployment" {
		t.Fatalf("doc[1] = %v", docs[1])
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte("a:\n\tb: 1")); err == nil {
		t.Fatal("tab indentation should error")
	}
	if _, err := Parse([]byte("x: [1, 2")); err == nil {
		t.Fatal("unterminated flow seq should error")
	}
}

func TestMarshalRoundTripFixed(t *testing.T) {
	orig := map[string]any{
		"name": "vllm",
		"port": int64(8000),
		"env": []any{
			map[string]any{"name": "HF_HUB_OFFLINE", "value": "1"},
		},
		"nested": map[string]any{"a": []any{int64(1), int64(2)}, "b": true},
		"weird":  "needs: quoting #really",
		"numstr": "0123",
		"boolst": "true",
	}
	out := Marshal(orig)
	back, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if !reflect.DeepEqual(back, orig) {
		t.Fatalf("round trip:\norig: %#v\nback: %#v\nyaml:\n%s", orig, back, out)
	}
}

func TestMarshalRoundTripStructuralStrings(t *testing.T) {
	// Strings whose quoted form embeds YAML-structural substrings (an
	// escaped quote followed by ": ", a "#" inside quotes, a trailing
	// backslash) used to re-parse as maps: the line scanners treated the
	// escaped \" as a closing delimiter. Regression for the quick-seed
	// flake in TestMarshalParsePropertyRoundTrip.
	for _, tree := range []any{
		[]any{`1": `},
		[]any{`a": b`},
		map[string]any{"k": []any{`x#": `}},
		map[string]any{"k": `1": `},
		[]any{`tail\`},
		map[string]any{"k": []any{`a\", "b`}},
	} {
		data := Marshal(tree)
		back, err := Parse(data)
		if err != nil {
			t.Errorf("%#v: reparse error %v\nyaml:\n%s", tree, err, data)
			continue
		}
		if !reflect.DeepEqual(back, tree) {
			t.Errorf("round trip:\norig: %#v\nback: %#v\nyaml:\n%s", tree, back, data)
		}
	}
}

// randomTree builds a random YAML-representable tree.
func randomTree(r *rand.Rand, depth int) any {
	if depth <= 0 {
		switch r.Intn(5) {
		case 0:
			return int64(r.Intn(1000) - 500)
		case 1:
			return r.Float64()*100 - 50
		case 2:
			return r.Intn(2) == 0
		case 3:
			return nil
		default:
			letters := []rune("abcXYZ-_./ :#'\"1")
			n := r.Intn(8) + 1
			s := make([]rune, n)
			for i := range s {
				s[i] = letters[r.Intn(len(letters))]
			}
			return string(s)
		}
	}
	switch r.Intn(3) {
	case 0:
		n := r.Intn(4)
		m := map[string]any{}
		for i := 0; i < n; i++ {
			m["k"+string(rune('a'+i))] = randomTree(r, depth-1)
		}
		return m
	case 1:
		n := r.Intn(4)
		s := make([]any, 0, n)
		for i := 0; i < n; i++ {
			s = append(s, randomTree(r, depth-1))
		}
		if len(s) == 0 {
			return []any{}
		}
		return s
	default:
		return randomTree(r, 0)
	}
}

func TestMarshalParsePropertyRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randomTree(r, 3)
		data := Marshal(tree)
		back, err := Parse(data)
		if err != nil {
			t.Logf("seed %d: parse error %v\nyaml:\n%s", seed, err, data)
			return false
		}
		// nil trees marshal to "null" → parse to nil; normalize.
		if tree == nil {
			return back == nil
		}
		if !reflect.DeepEqual(back, tree) {
			t.Logf("seed %d:\norig %#v\nback %#v\nyaml:\n%s", seed, tree, back, data)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGetHelpers(t *testing.T) {
	v := mustParse(t, "a:\n  b:\n    - x\n    - name: deep\nflag: true\nnum: 7\n")
	if Get(v, "a.b.0") != "x" {
		t.Fatalf("a.b.0 = %v", Get(v, "a.b.0"))
	}
	if Get(v, "a.b.1.name") != "deep" {
		t.Fatal("a.b.1.name")
	}
	if Get(v, "flag") != true || Get(v, "num") != int64(7) {
		t.Fatal("scalar paths")
	}
	if Get(v, "a.missing.path") != nil || Get(v, "nope") != nil || Get(v, "a.b.2") != nil {
		t.Fatal("missing paths")
	}
}

// FuzzParse: whatever Parse accepts, Marshal writes back in a form Parse
// reads as the same value. Marshal writes the Helm values file a plan
// shows (Fig 6); Parse, the test reader, is the oracle it is checked
// against.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"str: hello world\nnum: 42\nhex: 0x10\noct: 0o17\nfl: 3.14\nexp: 1e3\nyes: true\nnul: ~\n",
		"image:\n  repository: \"vllm/vllm-openai\"\n  command: [\"vllm\", \"serve\", \"--port\", \"8000\"]\n",
		"- a\n- {k: v, n: 1}\n- [1, 2.5, x]\n",
		"script: |\n  line one\n  line two\nafter: 1\n",
		"nan: .nan\ninf: -.inf\nzero: -0.0\n",
		"1_000", "0b101", "0x1p-2", "99999999999999999999",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Parse(data)
		if err != nil {
			return
		}
		out := Marshal(v)
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) = %#v; Marshal wrote %q, which does not parse: %v", data, v, out, err)
		}
		if !sameValue(back, v) {
			t.Fatalf("Parse(%q) = %#v; Marshal wrote %q, which parses to %#v", data, v, out, back)
		}
	})
}

// sameValue is reflect.DeepEqual on parsed trees, except that a NaN
// equals a NaN.
func sameValue(a, b any) bool {
	switch a := a.(type) {
	case map[string]any:
		b, ok := b.(map[string]any)
		if !ok || len(a) != len(b) {
			return false
		}
		for k, av := range a {
			if bv, ok := b[k]; !ok || !sameValue(av, bv) {
				return false
			}
		}
		return true
	case []any:
		b, ok := b.([]any)
		if !ok || len(a) != len(b) {
			return false
		}
		for i := range a {
			if !sameValue(a[i], b[i]) {
				return false
			}
		}
		return true
	case float64:
		b, ok := b.(float64)
		return ok && (a == b || math.IsNaN(a) && math.IsNaN(b))
	}
	return reflect.DeepEqual(a, b)
}
