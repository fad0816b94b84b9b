package vllm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vhttp"
)

// OpenAI-compatible API types (the subset the case study exercises).

// ChatMessage is one turn of a chat conversation.
type ChatMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

// ChatRequest is the body of POST /v1/chat/completions (Fig 7).
type ChatRequest struct {
	Model       string        `json:"model"`
	Messages    []ChatMessage `json:"messages"`
	MaxTokens   int           `json:"max_tokens,omitempty"`
	Temperature float64       `json:"temperature,omitempty"`
	// User is OpenAI's stable end-user identifier; the gateway's session-
	// affinity routing uses it as the fallback session key.
	User string `json:"user,omitempty"`
	// SessionID explicitly groups multi-turn requests for session-affinity
	// routing (takes precedence over User).
	SessionID string `json:"session_id,omitempty"`
	// Priority is the request's scheduling class ("interactive" or
	// "batch"); batch-class requests are shed first under an SLO breach.
	Priority string `json:"priority,omitempty"`
	// Stream requests OpenAI-style server-sent events: one
	// chat.completion.chunk delta per generated token, terminated by a
	// `data: [DONE]` event. TTFT is then the client-observed first-chunk
	// time instead of whole-response time.
	Stream bool `json:"stream,omitempty"`
}

// ChatChoice is one completion alternative.
type ChatChoice struct {
	Index        int         `json:"index"`
	Message      ChatMessage `json:"message"`
	FinishReason string      `json:"finish_reason"`
}

// Usage reports token accounting.
type Usage struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
	TotalTokens      int `json:"total_tokens"`
}

// ChatResponse is the completion result.
type ChatResponse struct {
	ID      string       `json:"id"`
	Object  string       `json:"object"`
	Model   string       `json:"model"`
	Choices []ChatChoice `json:"choices"`
	Usage   Usage        `json:"usage"`
}

// ChatDelta is the incremental message fragment inside a streamed chunk.
type ChatDelta struct {
	Role    string `json:"role,omitempty"`
	Content string `json:"content,omitempty"`
}

// ChatChunkChoice is one choice of a streamed chunk.
type ChatChunkChoice struct {
	Index        int       `json:"index"`
	Delta        ChatDelta `json:"delta"`
	FinishReason string    `json:"finish_reason,omitempty"`
}

// ChatChunk is one SSE event body of a streamed chat completion
// (object "chat.completion.chunk").
type ChatChunk struct {
	ID      string            `json:"id"`
	Object  string            `json:"object"`
	Model   string            `json:"model"`
	Choices []ChatChunkChoice `json:"choices"`
	Usage   *Usage            `json:"usage,omitempty"`
}

// SSEData is the line prefix framing every server-sent event.
const SSEData = "data: "

// SSEDone is the stream terminator event.
const SSEDone = SSEData + "[DONE]\n\n"

// sseDone is SSEDone as the bytes a stream pushes; the stream copies
// them, so they are never written.
var sseDone = []byte(SSEDone)

// SSEEvent frames a JSON payload as one server-sent event.
func SSEEvent(v any) []byte {
	body, _ := json.Marshal(v)
	out := make([]byte, 0, len(SSEData)+len(body)+2)
	out = append(out, SSEData...)
	out = append(out, body...)
	return append(out, '\n', '\n')
}

// ParseSSE splits a raw SSE event back into its data payload, reporting
// whether the event carried one. Used by streaming clients (the bench
// harness, tests); real chunks always carry exactly one data line. The
// payload is a subslice of raw, valid as long as raw is.
func ParseSSE(raw []byte) (payload []byte, ok bool) {
	raw, _ = bytes.CutSuffix(raw, sseEnd)
	if payload, ok = bytes.CutPrefix(raw, sseData); !ok {
		return nil, false
	}
	return payload, true
}

var (
	sseData = []byte(SSEData)
	sseEnd  = []byte("\n\n")
)

// ErrorResponse mirrors the OpenAI error envelope.
type ErrorResponse struct {
	Error struct {
		Message string `json:"message"`
		Type    string `json:"type"`
	} `json:"error"`
}

// modelList is GET /v1/models.
type modelList struct {
	Object string      `json:"object"`
	Data   []modelItem `json:"data"`
}

type modelItem struct {
	ID      string `json:"id"`
	Object  string `json:"object"`
	OwnedBy string `json:"owned_by"`
}

// ModelListBody renders the OpenAI GET /v1/models response body for the
// given served model ids. Shared by the APIServer (one id per engine) and
// the ingress layer, where the gateway/router answer authoritatively for
// the model names they front instead of reflecting whichever replica a
// probe happens to hit.
func ModelListBody(ids ...string) []byte {
	ml := modelList{Object: "list", Data: []modelItem{}}
	for _, id := range ids {
		ml.Data = append(ml.Data, modelItem{ID: id, Object: "model", OwnedBy: "vllm"})
	}
	body, _ := json.Marshal(ml)
	return body
}

// EstimateTokens approximates tokenization at four characters per token,
// matching the coarse accounting real serving stacks use for sizing. A
// byte span counts as the string it holds.
func EstimateTokens[S []byte | string](text S) int {
	return max(1, (len(text)+3)/4)
}

// SynthesizeText produces placeholder completion text of about n tokens.
func SynthesizeText(n int) string {
	var b strings.Builder
	for b.Len() < n*4 {
		b.WriteString(synthWords)
	}
	return b.String()[:n*4]
}

const synthWords = "the model generated this simulated completion token stream for benchmarking purposes only "

// synthRing is synthWords followed by its own start, so every token's four
// bytes are one substring even where the text wraps around.
var synthRing = synthWords + synthWords[:3]

// TokenText returns the n-th (1-based) token's text of the synthesized
// completion, so a streamed response concatenates to the same body a
// buffered SynthesizeText(total) call would produce. It does not allocate.
func TokenText(n int) string {
	start := ((n - 1) * 4) % len(synthWords)
	return synthRing[start : start+4]
}

// APIServer exposes an Engine over the OpenAI-compatible HTTP surface.
type APIServer struct {
	Engine     *Engine
	ServedName string // --served-model-name
	Replica    string // instance identity stamped into telemetry snapshots
	APIKey     string // optional bearer token
}

// defaultMaxTokens bounds generation when a request omits max_tokens.
const defaultMaxTokens = 256

func jsonErr(status int, msg string) *vhttp.Response {
	var er ErrorResponse
	er.Error.Message = msg
	er.Error.Type = "invalid_request_error"
	body, _ := json.Marshal(er)
	return vhttp.JSON(status, body)
}

// Serve implements vhttp.Service.
func (a *APIServer) Serve(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
	switch {
	case req.Path == "/health":
		if crashed, err := a.Engine.Crashed(); crashed {
			return vhttp.Text(500, "unhealthy: "+err.Error())
		}
		return vhttp.Text(200, "ok")

	case req.Path == "/v1/models":
		return vhttp.JSON(200, ModelListBody(a.servedName()))

	case req.Path == "/metrics":
		return vhttp.Text(200, a.renderMetrics())

	case req.Path == telemetry.Path:
		snap := a.Engine.Telemetry()
		snap.Model = a.servedName()
		snap.Replica = a.Replica
		snap.CapturedAt = p.Now()
		return vhttp.JSON(200, snap.Encode())

	case req.Path == "/v1/chat/completions" && req.Method == "POST":
		return a.chat(p, req)

	case req.Path == "/v1/completions" && req.Method == "POST":
		return a.completions(p, req)
	}
	return jsonErr(404, "unknown endpoint "+req.Path)
}

func (a *APIServer) servedName() string {
	if a.ServedName != "" {
		return a.ServedName
	}
	return a.Engine.Config().Model.Name
}

func (a *APIServer) authorized(req *vhttp.Request) bool {
	if a.APIKey == "" {
		return true
	}
	return req.Header["Authorization"] == "Bearer "+a.APIKey
}

func (a *APIServer) chat(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
	if !a.authorized(req) {
		return jsonErr(401, "invalid API key")
	}
	cr, err := readChat(a.Engine.Config().BlockSize, req.Body)
	if err != nil {
		return jsonErr(400, "bad request body: "+err.Error())
	}
	if len(cr.model) > 0 && string(cr.model) != a.servedName() {
		return jsonErr(404, fmt.Sprintf("model %q does not exist; serving %q", cr.model, a.servedName()))
	}
	maxNew := cr.maxTokens
	if maxNew <= 0 {
		maxNew = defaultMaxTokens
	}
	if req.Header[sched.WarmupHeader] != "" {
		// Prefix warm-up: the gateway pre-positions a migrated session's
		// prompt blocks. Prefill is the whole point; generate one token
		// and stop.
		maxNew = 1
	}
	opts := SubmitOptions{Prompt: cr.prompt, MaxNew: maxNew, PromptHashes: cr.hashes, Class: cr.class}
	applySchedHints(&opts, req.Header)
	opts.Trace = a.startTrace(p, req)
	if cr.stream {
		return a.chatStream(p, opts)
	}
	r := a.Engine.SubmitOpts(opts)
	p.Wait(r.Done())
	if r.Err != nil {
		return jsonErr(500, r.Err.Error())
	}
	out := vhttp.JSON(200, chatResponseBody(r.ID, a.servedName(), opts.Prompt, r.Generated))
	// Streaming clients observe TTFT directly; the simulation surfaces it as
	// a response header so the benchmark can record the same metric.
	out.SetHeader("X-Request-Ttft-Micros", strconv.FormatInt(r.TTFT().Microseconds(), 10))
	if et := opts.Trace; et != nil {
		et.Finish(p.Now(), "")
		out.Trace = et
	}
	return out
}

// chatParams is what chat serves from a request body.
type chatParams struct {
	model     []byte
	prompt    int // prompt tokens, the per-message template overhead included
	hashes    []uint64
	maxTokens int
	class     string
	stream    bool
}

// readChat reads a chat body with sched.ScanChat, and with encoding/json
// (decodeChat) when the scan declines it. The prompt's key slice is the
// fast path's only allocation.
func readChat(blockSize int, body []byte) (chatParams, error) {
	c, ok := sched.ScanChat(body)
	if !ok {
		return decodeChat(blockSize, body)
	}
	cr := chatParams{model: c.Model, maxTokens: c.MaxTokens, class: className(string(c.Priority)), stream: c.Stream}
	cr.prompt, cr.hashes = chatPrompt(blockSize, c.Messages)
	return cr, nil
}

// decodeChat is readChat for a body the scan declines.
func decodeChat(blockSize int, body []byte) (chatParams, error) {
	var req ChatRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return chatParams{}, err
	}
	cr := chatParams{
		model: []byte(req.Model), hashes: ChatPromptHashes(blockSize, req.Messages),
		maxTokens: req.MaxTokens, class: className(req.Priority), stream: req.Stream,
	}
	for _, m := range req.Messages {
		cr.prompt += messageTokens(m)
	}
	return cr, nil
}

// className reads a body's or a header's priority class name by
// sched.ClassOf's rule, so a name the gateway treats as batch is batch here
// too, and returns the class's name ("" when unset) without allocating.
func className(name string) string {
	if c := sched.ClassOf(name); c != sched.ClassUnset {
		return c.String()
	}
	return ""
}

// applySchedHints folds the gateway-stamped scheduling headers into the
// submit options: the resolved priority class (X-Priority takes precedence
// over the body's priority field — the gateway has already applied its
// default-class policy), the TTFT deadline budget, and the SLO-breach
// boost. Requests arriving without the headers (direct engine access, old
// gateways) keep the body-derived behaviour.
func applySchedHints(opts *SubmitOptions, header map[string]string) {
	if cls := header[sched.PriorityHeader]; cls != "" {
		opts.Class = className(cls)
	}
	if v := header[sched.TTFTTargetHeader]; v != "" {
		if us, err := strconv.ParseInt(v, 10, 64); err == nil && us > 0 {
			opts.TTFTTarget = time.Duration(us) * time.Microsecond
		}
	}
	opts.SLOBreach = header[sched.SLOBreachedHeader] != ""
}

// startTrace builds the engine-side trace context of a request carrying
// an X-Trace-Id header (nil otherwise — untraced requests must not
// allocate). The trace rides SubmitOptions into the engine loop, which
// appends queue/prefill/first-token/decode spans, and returns to the
// caller on Response.Trace — the in-process equivalent of an engine
// pushing its spans to a collector keyed by the propagated trace ID.
func (a *APIServer) startTrace(p *sim.Proc, req *vhttp.Request) *trace.Trace {
	id := req.Header[trace.Header]
	if id == "" {
		return nil
	}
	return &trace.Trace{ID: id, Model: a.servedName(), Replica: a.Replica, Start: p.Now()}
}

// chatStream serves `stream: true`: tokens are pushed into a chunked body
// as the engine's decode loop produces them, one chat.completion.chunk SSE
// event per token, closed with `data: [DONE]`.
//
// The handler waits for the FIRST token before returning the response
// headers, which fixes the retry boundary: a request that dies before its
// first token surfaces as a buffered 500 the gateway may retry on another
// replica; once the first byte is out, a failure truncates the stream
// (Err() on the reader) and is never silently retried.
func (a *APIServer) chatStream(p *sim.Proc, opts SubmitOptions) *vhttp.Response {
	cs := &chatStream{prompt: opts.Prompt}
	cs.ready.Init(p.Engine())
	opts.OnToken = cs.token
	r := a.Engine.SubmitOpts(opts)
	cs.req = r
	cs.enc = newDeltaEncoder(chatIDPrefix+r.ID, a.servedName())
	r.Done().OnFire(cs.done)
	p.Wait(&cs.ready)
	if r.Err != nil && r.FirstToken.IsZero() {
		// Failed before the first byte: a retryable buffered error.
		return jsonErr(500, r.Err.Error())
	}
	resp := &cs.resp
	resp.Status, resp.Stream = 200, &cs.stream
	resp.SetHeader("Content-Type", "text/event-stream")
	resp.SetHeader("X-Request-Ttft-Micros", strconv.FormatInt(r.TTFT().Microseconds(), 10))
	if et := opts.Trace; et != nil {
		// The pointer stays live while the stream drains: the engine
		// records the decode span at finish, which precedes the terminal
		// chunk's delivery, so the consumer sees it at stream settle.
		resp.Trace = et
	}
	return resp
}

// chatStream is the one record of a streamed reply: the body stream, the
// event encoder writing into it, the signal the handler waits on for the
// first token, and the response that carries the stream.
type chatStream struct {
	stream vhttp.BodyStream
	enc    deltaEncoder
	ready  sim.Signal
	resp   vhttp.Response
	req    *Request
	prompt int
}

// token is the request's OnToken hook: it pushes token n's event and, at
// the first token, releases the handler to return the headers.
func (cs *chatStream) token(_ *Request, n int) {
	cs.stream.Push(vhttp.Chunk{Data: cs.enc.event(n)})
	if n == 1 {
		cs.ready.Fire()
	}
}

// done runs when the request finishes: it ends the stream with the
// finish event and the terminator, or fails it, and releases a handler
// still waiting for a first token that never came.
func (cs *chatStream) done() {
	if r := cs.req; r.Err != nil {
		cs.stream.Fail(r.Err)
	} else {
		cs.stream.Push(vhttp.Chunk{Data: cs.enc.finish(cs.prompt, r.Generated)})
		cs.stream.Push(vhttp.Chunk{Data: sseDone})
		cs.stream.Close()
	}
	cs.ready.Fire()
}

// chatResponseBody returns a buffered chat completion's body, written
// into one exact-size slice: byte-identical to json.Marshal of the
// ChatResponse with ID "chatcmpl-"+id, the model, SynthesizeText(completion)
// as the assistant's message, and the usage accounting
// (TestChatResponseMatchesMarshal).
func chatResponseBody(id, model string, prompt, completion int) []byte {
	b := make([]byte, 0, len(respID)+escapedLen(id)+len(respModel)+escapedLen(model)+len(respContent)+
		4*completion+len(respUsage)+len(finishCompletion)+len(finishTotal)+len(respTail)+
		decimalLen(prompt)+decimalLen(completion)+decimalLen(prompt+completion))
	b = appendEscaped(append(b, respID...), id)
	b = appendEscaped(append(b, respModel...), model)
	b = appendSynth(append(b, respContent...), completion)
	b = strconv.AppendInt(append(b, respUsage...), int64(prompt), 10)
	b = strconv.AppendInt(append(b, finishCompletion...), int64(completion), 10)
	b = strconv.AppendInt(append(b, finishTotal...), int64(prompt+completion), 10)
	return append(b, respTail...)
}

// The buffered response around its fields; the usage accounting is
// written as the stream's finish event writes it.
const (
	chatIDPrefix = "chatcmpl-"
	respID       = `{"id":"` + chatIDPrefix
	respModel    = `","object":"chat.completion","model":"`
	respContent  = `","choices":[{"index":0,"message":{"role":"assistant","content":"`
	respUsage    = `"` + finishUsage
	respTail     = `}}`
)

// appendSynth appends SynthesizeText(n). The synthesized words need no
// JSON escaping: they are lowercase letters and spaces.
func appendSynth(b []byte, n int) []byte {
	for left := 4 * n; left > 0; left -= len(synthWords) {
		b = append(b, synthWords[:min(left, len(synthWords))]...)
	}
	return b
}

// decimalLen is the length of n written in decimal.
func decimalLen(n int) int {
	var d [20]byte
	return len(strconv.AppendInt(d[:0], int64(n), 10))
}

// appendEscaped appends s as encoding/json writes it inside a string
// literal, HTML-escaped as json.Marshal does.
func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); {
		out, n := jsonRune(s, i)
		b = append(b, out...)
		i += n
	}
	return b
}

// escapedLen is the number of bytes appendEscaped appends for s.
func escapedLen(s string) int {
	l := 0
	for i := 0; i < len(s); {
		out, n := jsonRune(s, i)
		l += len(out)
		i += n
	}
	return l
}

// jsonRune returns what encoding/json writes for the rune at s[i], its
// escape or the rune itself, and the rune's length in bytes.
func jsonRune(s string, i int) (out string, n int) {
	if b := s[i]; b < utf8.RuneSelf {
		if esc := asciiEscapes[b]; esc != "" {
			return esc, 1
		}
		return s[i : i+1], 1
	}
	r, n := utf8.DecodeRuneInString(s[i:])
	switch {
	case r == utf8.RuneError && n == 1:
		return `\ufffd`, 1
	case r == '\u2028':
		return `\u2028`, n
	case r == '\u2029':
		return `\u2029`, n
	}
	return s[i : i+n], n
}

// asciiEscapes maps each ASCII byte to its escape in a JSON string as
// json.Marshal writes it: control characters, the quote and backslash,
// and the HTML-sensitive <, > and &. "" means the byte is written as is.
var asciiEscapes = func() (t [utf8.RuneSelf]string) {
	const hex = "0123456789abcdef"
	for b := range 0x20 {
		t[b] = `\u00` + hex[b>>4:b>>4+1] + hex[b&0xf:b&0xf+1]
	}
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = `\b`, `\f`, `\n`, `\r`, `\t`
	t['"'], t['\\'] = `\"`, `\\`
	t['<'], t['>'], t['&'] = `\u003c`, `\u003e`, `\u0026`
	return t
}()

// deltaEncoder writes the events of one stream straight into bytes: the
// JSON up to the delta, which every event of the stream shares, is built
// once, and each event is written after it into one reused buffer, so an
// event costs no allocation instead of a reflective json.Marshal of a
// ChatChunk. An event is returned capacity-limited, so a caller's append
// cannot write into the buffer. The output is byte-identical to
// SSEEvent(ChatChunk{...}) with the same fields
// (TestDeltaEncoderMatchesSSEEvent, TestFinishEventMatchesSSEEvent).
type deltaEncoder struct {
	// buf[:head] is `data: {"id":…,"model":…,"choices":[{"index":0,"delta":{`
	// and buf[head:] the rest of the last event written.
	buf  []byte
	head int
}

const (
	deltaID      = SSEData + `{"id":"`
	deltaModel   = `","object":"chat.completion.chunk","model":"`
	deltaOpen    = `","choices":[{"index":0,"delta":{`
	deltaRole    = `"role":"assistant",`
	deltaContent = `"content":"`
	deltaTail    = `"}}]}` + "\n\n"

	finishUsage      = `},"finish_reason":"stop"}],"usage":{"prompt_tokens":`
	finishCompletion = `,"completion_tokens":`
	finishTotal      = `,"total_tokens":`
	finishTail       = `}}` + "\n\n"
)

func newDeltaEncoder(id, model string) deltaEncoder {
	head := len(deltaID) + escapedLen(id) + len(deltaModel) + escapedLen(model) + len(deltaOpen)
	// Room after the head for the longest event, the finish event with
	// three counts of up to 20 digits, so the buffer never grows.
	buf := make([]byte, 0, head+len(finishUsage)+len(finishCompletion)+len(finishTotal)+len(finishTail)+3*20)
	buf = appendEscaped(append(buf, deltaID...), id)
	buf = appendEscaped(append(buf, deltaModel...), model)
	return deltaEncoder{buf: append(buf, deltaOpen...), head: head}
}

// event returns the SSE event carrying token n (1-based), valid until the
// encoder's next event. The first delta also names the assistant role, per
// OpenAI. Token text needs no JSON escaping: the synthesized words are
// lowercase letters and spaces.
func (d *deltaEncoder) event(n int) []byte {
	b := d.buf[:d.head]
	if n == 1 {
		b = append(b, deltaRole...)
	}
	b = append(b, deltaContent...)
	b = append(b, TokenText(n)...)
	d.buf = append(b, deltaTail...)
	return slices.Clip(d.buf)
}

// finish returns the stream's terminal event: an empty delta, the stop
// finish_reason and the usage accounting, valid until the encoder's next
// event.
func (d *deltaEncoder) finish(prompt, completion int) []byte {
	b := append(d.buf[:d.head], finishUsage...)
	b = strconv.AppendInt(b, int64(prompt), 10)
	b = append(b, finishCompletion...)
	b = strconv.AppendInt(b, int64(completion), 10)
	b = append(b, finishTotal...)
	b = strconv.AppendInt(b, int64(prompt+completion), 10)
	d.buf = append(b, finishTail...)
	return slices.Clip(d.buf)
}

// completionRequest is the body of POST /v1/completions.
type completionRequest struct {
	Model     string `json:"model"`
	Prompt    string `json:"prompt"`
	MaxTokens int    `json:"max_tokens,omitempty"`
}

func (a *APIServer) completions(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
	if !a.authorized(req) {
		return jsonErr(401, "invalid API key")
	}
	var cr completionRequest
	if err := json.Unmarshal(req.Body, &cr); err != nil {
		return jsonErr(400, "bad request body: "+err.Error())
	}
	prompt := EstimateTokens(cr.Prompt)
	maxNew := cr.MaxTokens
	if maxNew <= 0 {
		maxNew = defaultMaxTokens
	}
	et := a.startTrace(p, req)
	opts := SubmitOptions{
		Prompt: prompt, MaxNew: maxNew,
		PromptHashes: TextPromptHashes(a.Engine.Config().BlockSize, cr.Prompt),
		Trace:        et,
	}
	applySchedHints(&opts, req.Header)
	r := a.Engine.SubmitOpts(opts)
	p.Wait(r.Done())
	if r.Err != nil {
		return jsonErr(500, r.Err.Error())
	}
	body, _ := json.Marshal(map[string]any{
		"id": "cmpl-" + r.ID, "object": "text_completion", "model": a.servedName(),
		"choices": []map[string]any{{"index": 0, "text": SynthesizeText(r.Generated), "finish_reason": "stop"}},
		"usage":   Usage{PromptTokens: prompt, CompletionTokens: r.Generated, TotalTokens: prompt + r.Generated},
	})
	out := vhttp.JSON(200, body)
	if et != nil {
		et.Finish(p.Now(), "")
		out.Trace = et
	}
	return out
}

// renderMetrics emits a Prometheus-flavored snapshot like vLLM's /metrics.
func (a *APIServer) renderMetrics() string {
	st := a.Engine.Stats()
	waiting, running := a.Engine.QueueDepth()
	var b strings.Builder
	fmt.Fprintf(&b, "vllm:num_requests_running %d\n", running)
	fmt.Fprintf(&b, "vllm:num_requests_waiting %d\n", waiting)
	fmt.Fprintf(&b, "vllm:request_success_total %d\n", st.Completed)
	fmt.Fprintf(&b, "vllm:request_failure_total %d\n", st.Failed)
	fmt.Fprintf(&b, "vllm:generation_tokens_total %d\n", st.TokensOut)
	fmt.Fprintf(&b, "vllm:num_preemptions_total %d\n", st.Preemptions)
	fmt.Fprintf(&b, "vllm:num_resumes_total %d\n", st.Resumes)
	fmt.Fprintf(&b, "vllm:deadline_misses_total %d\n", st.DeadlineMisses)
	fmt.Fprintf(&b, "vllm:gpu_cache_usage_perc %.4f\n",
		float64(a.Engine.KV().UsedBlocks())/float64(max(1, a.Engine.KV().TotalBlocks())))
	fmt.Fprintf(&b, "vllm:prefix_cache_hits_total %d\n", st.PrefixHits)
	fmt.Fprintf(&b, "vllm:prefix_cache_queries_total %d\n", st.PrefixHits+st.PrefixMisses)
	fmt.Fprintf(&b, "vllm:prefix_cache_evictions_total %d\n", st.PrefixEvictions)
	fmt.Fprintf(&b, "vllm:cpu_cache_demotions_total %d\n", st.TierDemotions)
	fmt.Fprintf(&b, "vllm:cpu_cache_promotions_total %d\n", st.TierPromotions)
	return b.String()
}
