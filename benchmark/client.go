package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/trace"
	"repro/internal/vhttp"
	"repro/internal/vllm"
)

// record is one request the benchmark sent. Times are virtual offsets
// from the start of the measured phase; ttft and e2e run from dispatch.
type record struct {
	due    time.Duration // when the schedule said to send (open loop)
	sent   time.Duration // when the request went out
	ttft   time.Duration // first content delta (streamed requests only)
	e2e    time.Duration
	want   int // max_tokens requested
	got    int // completion tokens received
	step   int // sweep point or ladder step (0 when the workload has none)
	turn   int // position within a session (0 for single-shot requests)
	class  sched.Class
	status outcome
	stream bool // sent with stream: true
	probe  bool // covered by the latency and SLO metrics (always streamed)
}

// interactive selects the requests latency metrics cover on workloads
// with priority classes.
func interactive(r *record) bool { return r.class == sched.ClassInteractive }

// isProbe selects the requests latency and SLO metrics cover.
func isProbe(r *record) bool { return r.probe }

// chatCall is one chat completion to send.
type chatCall struct {
	model   string
	msgs    []vllm.ChatMessage
	session string
}

// client is the benchmark's own OpenAI-compatible client. It sends chat
// completions from the Hops login node over the virtual network, times
// them from dispatch, and checks every completion against the text the
// engine synthesizes for the requested token count. A buffered response
// arrives whole, so only a streamed request has a time to first token.
type client struct {
	http vhttp.Client
	url  string // chat completions endpoint

	// synth is the longest completion any request can receive; a correct
	// completion of n tokens is its first 4n bytes.
	synth string

	// traced tags every request with an X-Trace-Id (the traced pass).
	// Engine spans that reach the client directly (no gateway in front)
	// are kept by request index.
	traced       bool
	engineTraces map[int]*trace.Trace

	// checkPrefixKey counts chat bodies whose leading prompt block the
	// gateway's raw scanner cannot key (cache-aware routing would skip
	// them silently).
	checkPrefixKey bool
	unkeyed        int
	itl            latency // inter-token gaps of probes
	wrongTokens    int     // completions whose token count was not the one requested
	wrongText      int     // completions whose text was not the synthesized text
	errs           []string
}

func newClient(s *site.Site, baseURL string) *client {
	return &client{
		http:  vhttp.Client{Net: s.Net, From: site.LoginHops},
		url:   strings.TrimSuffix(baseURL, "/") + "/v1/chat/completions",
		synth: synthText,
	}
}

// maxErrs bounds the failure messages kept for the report.
const maxErrs = 5

func (c *client) fail(rec *record, msg string) {
	rec.status = statusFailed
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, msg)
	}
}

// do sends one chat completion for request id and fills rec. start is the
// virtual start of the measured phase.
func (c *client) do(p *sim.Proc, start time.Time, id int, rec *record, call chatCall) {
	body, err := json.Marshal(vllm.ChatRequest{
		Model: call.model, Messages: call.msgs, MaxTokens: rec.want, Stream: rec.stream,
	})
	if err != nil {
		c.fail(rec, err.Error())
		return
	}
	if c.checkPrefixKey && vllm.ChatPrefixKeyRaw(vllm.DefaultBlockSize, body) == 0 {
		c.unkeyed++
	}
	hdr := map[string]string{"Content-Type": "application/json"}
	if call.session != "" {
		hdr[sched.SessionHeader] = call.session
	}
	if rec.class != sched.ClassUnset {
		hdr[sched.PriorityHeader] = rec.class.String()
	}
	if c.traced {
		hdr[trace.Header] = traceID(id)
	}
	sent := p.Now()
	rec.sent = sent.Sub(start)
	resp, err := c.http.Do(p, &vhttp.Request{Method: "POST", URL: c.url, Header: hdr, Body: body})
	switch {
	case err != nil:
		c.fail(rec, err.Error())
	case resp.Status == 503 && resp.Header["Retry-After"] != "":
		rec.status = statusShed
	case resp.Status != 200:
		c.fail(rec, fmt.Sprintf("http %d: %s", resp.Status, bytes.TrimSpace(resp.Body)))
	case resp.Stream != nil:
		c.consume(p, sent, rec, resp.Stream)
	default:
		c.buffered(rec, resp)
	}
	if resp != nil && c.traced {
		if et, isTrace := resp.Trace.(*trace.Trace); isTrace {
			c.engineTraces[id] = et
		}
	}
	rec.e2e = p.Now().Sub(sent)
}

// buffered checks a whole-body response.
func (c *client) buffered(rec *record, resp *vhttp.Response) {
	var cr vllm.ChatResponse
	if err := json.Unmarshal(resp.Body, &cr); err != nil || len(cr.Choices) == 0 {
		c.fail(rec, fmt.Sprintf("bad completion body: %v", err))
		return
	}
	rec.status = statusOK
	rec.got = cr.Usage.CompletionTokens
	if rec.got != rec.want {
		c.wrongTokens++
	}
	if cr.Choices[0].Message.Content != c.synth[:4*rec.want] {
		c.wrongText++
	}
}

// consume reads an SSE stream as it is produced: TTFT at the first content
// delta, one gap per later delta, and the deltas must concatenate to the
// synthesized completion of the requested length.
func (c *client) consume(p *sim.Proc, sent time.Time, rec *record, stream vhttp.ChunkReader) {
	want := c.synth[:4*rec.want]
	pos, deltas, usage := 0, 0, -1
	match := true
	last := sent
	for {
		ch, more := stream.Next(p)
		if !more {
			break
		}
		if text, isDelta := deltaContent(ch.Data); isDelta {
			now := p.Now()
			if deltas == 0 {
				rec.ttft = now.Sub(sent)
			} else if rec.probe {
				c.itl.add(now.Sub(last))
			}
			last = now
			deltas++
			if pos+len(text) > len(want) || want[pos:pos+len(text)] != string(text) {
				match = false
			}
			pos += len(text)
		} else if n, isUsage := usageTokens(ch.Data); isUsage {
			usage = n
		}
	}
	if err := stream.Err(); err != nil {
		c.fail(rec, fmt.Sprintf("stream truncated after %d tokens: %v", deltas, err))
		return
	}
	rec.status = statusOK
	rec.got = deltas
	if usage != rec.want || deltas != rec.want {
		c.wrongTokens++
	}
	if !match || pos != len(want) {
		c.wrongText++
	}
}

var (
	contentKey = []byte(`"content":"`)
	usageKey   = []byte(`"completion_tokens":`)
)

// deltaContent extracts the delta text of one chat.completion.chunk event.
// Synthesized completions contain no quotes or escapes, so the text runs
// to the next quote.
func deltaContent(event []byte) ([]byte, bool) {
	i := bytes.Index(event, contentKey)
	if i < 0 {
		return nil, false
	}
	rest := event[i+len(contentKey):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return nil, false
	}
	return rest[:j], true
}

// usageTokens extracts completion_tokens from the terminal usage chunk.
func usageTokens(event []byte) (int, bool) {
	i := bytes.Index(event, usageKey)
	if i < 0 {
		return 0, false
	}
	rest := event[i+len(usageKey):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(rest[:j]))
	return n, err == nil
}

// traceID names request id's trace.
func traceID(id int) string { return "r" + strconv.Itoa(id) }
