package vhttp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestStreamOrderingAndClose: chunks arrive in push order, Next returns
// false after Close, and Err stays nil on a clean end.
func TestStreamOrderingAndClose(t *testing.T) {
	e, _ := newTestNet(t)
	s := &BodyStream{}
	var got []string
	e.Go("producer", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			s.Push(Chunk{Data: []byte(fmt.Sprintf("c%d", i))})
			p.Sleep(time.Second)
		}
		s.Close()
	})
	e.Go("consumer", func(p *sim.Proc) {
		for {
			c, ok := s.Next(p)
			if !ok {
				return
			}
			got = append(got, string(c.Data))
		}
	})
	e.Run()
	if want := "c0 c1 c2 c3 c4"; strings.Join(got, " ") != want {
		t.Fatalf("chunks = %v, want %s", got, want)
	}
	if s.Err() != nil {
		t.Fatalf("clean close has Err = %v", s.Err())
	}
}

// TestStreamSteadyStateDoesNotAllocate: once a stream's queue and wake
// signal exist, pushing a chunk and waking the parked reader for it
// allocates nothing: the reader resets one signal for every park and the
// drained queue rewinds onto its backing array.
func TestStreamSteadyStateDoesNotAllocate(t *testing.T) {
	e, _ := newTestNet(t)
	s := &BodyStream{}
	chunk := Chunk{Data: []byte("data: x\n\n")}
	e.Go("producer", func(p *sim.Proc) {
		for !s.closed {
			s.Push(chunk)
			s.Push(chunk)
			p.Sleep(time.Millisecond)
		}
	})
	n := 0
	e.Go("consumer", func(p *sim.Proc) {
		for {
			if _, ok := s.Next(p); !ok {
				return
			}
			n++
		}
	})
	e.RunFor(time.Second)
	allocs := testing.AllocsPerRun(100, func() { e.RunFor(10 * time.Millisecond) })
	s.Close()
	e.Run()
	if allocs != 0 {
		t.Fatalf("%.1f allocs per 20 streamed chunks, want 0", allocs)
	}
	if n < 2000 {
		t.Fatalf("consumer read %d chunks", n)
	}
}

// TestStreamHeldChunkSurvivesPushes: a chunk's Data and Size stay as
// pushed until the reader's next Next, while the producer pushes more into
// the stream buffer's spare capacity and then past it, forcing the buffer
// to grow; and the producer may reuse its own bytes once Push returns.
func TestStreamHeldChunkSurvivesPushes(t *testing.T) {
	e, _ := newTestNet(t)
	s := &BodyStream{}
	check := func(held Chunk, when string) {
		t.Helper()
		if string(held.Data) != "held" || held.Size != 100 || held.Bytes() != 100 {
			t.Errorf("%s: held chunk = %q size %d, want \"held\" size 100", when, held.Data, held.Size)
		}
	}
	e.Go("reader", func(p *sim.Proc) {
		s.Push(Chunk{Data: make([]byte, 64)}) // gives the buffer spare capacity
		s.Next(p)
		mine := []byte("held")
		s.Push(Chunk{Data: mine, Size: 100})
		held, _ := s.Next(p)
		copy(mine, "XXXX")
		check(held, "producer reused its bytes")

		grown := cap(s.buf)
		s.Push(Chunk{Data: []byte("next")})
		if cap(s.buf) != grown {
			t.Errorf("a 4-byte push grew the buffer from %d to %d", grown, cap(s.buf))
		}
		check(held, "push into spare capacity")
		for i := 0; i < streamBufBytes/4; i++ {
			s.Push(Chunk{Data: []byte("more")})
		}
		if cap(s.buf) == grown {
			t.Errorf("%d bytes of pushes left the buffer at %d", streamBufBytes, grown)
		}
		check(held, "push past capacity")

		if c, _ := s.Next(p); string(c.Data) != "next" || c.Size != 0 {
			t.Errorf("chunk after the held one = %q size %d, want \"next\" size 0", c.Data, c.Size)
		}
	})
	e.Run()
}

// TestStreamBufferBoundedWhenNeverDrained: a reader that stays one chunk
// behind never drains the stream, and still the buffer keeps no more than
// about twice the bytes it has not read: chunks handed out are dropped as
// the reader moves on, not only once it catches up. Its backing array
// stays within the first buffer, or that same bound when it is larger.
func TestStreamBufferBoundedWhenNeverDrained(t *testing.T) {
	e, _ := newTestNet(t)
	s := &BodyStream{}
	const chunks, size = 20000, 16
	data := func(i int) string { return fmt.Sprintf("%0*d", size, i) }
	e.Go("reader", func(p *sim.Proc) {
		s.Push(Chunk{Data: []byte(data(0))})
		peak := 0
		for i := 1; i < chunks; i++ {
			s.Push(Chunk{Data: []byte(data(i))})
			peak = max(peak, len(s.buf)-s.read)
			if c, ok := s.Next(p); !ok || string(c.Data) != data(i-1) {
				t.Errorf("chunk %d = %q, want %q", i-1, c.Data, data(i-1))
				return
			}
			if limit := 2*peak + size; len(s.buf) > limit {
				t.Errorf("after %d chunks len(buf) = %d, want at most %d (twice the peak %d unread bytes plus one chunk)",
					i, len(s.buf), limit, peak)
				return
			}
			// The first buffer is streamBufBytes whatever is unread.
			if limit := max(streamBufBytes, 2*peak+size); cap(s.buf) > limit {
				t.Errorf("after %d chunks cap(buf) = %d, want at most %d (the first buffer, or twice the peak %d unread bytes plus one chunk)",
					i, cap(s.buf), limit, peak)
				return
			}
		}
	})
	e.Run()
}

// TestStreamChunksMetered: each chunk pulled through Client.Do is charged
// against the route, so a streamed body takes bandwidth-bound virtual time.
func TestStreamChunksMetered(t *testing.T) {
	e, n := newTestNet(t)
	wire := n.fabric.AddLink("wire", 100, 0) // 100 B/s
	n.RouteFn = func(from, to string) []*netsim.Link { return []*netsim.Link{wire} }
	n.BaseLatency = 0
	n.Listen("api", 8000, ServiceFunc(func(p *sim.Proc, req *Request) *Response {
		s := &BodyStream{}
		for i := 0; i < 5; i++ {
			s.Push(Chunk{Size: 100}) // 5 × 100 B
		}
		s.Close()
		return &Response{Status: 200, Stream: s}
	}), ListenOptions{})
	var elapsed time.Duration
	var total int64
	e.Go("client", func(p *sim.Proc) {
		c := &Client{Net: n, From: "node1"}
		resp, err := c.Get(p, "http://api:8000/stream")
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		start := p.Now()
		for {
			ch, ok := resp.Stream.Next(p)
			if !ok {
				break
			}
			total += ch.Bytes()
		}
		elapsed = p.Now().Sub(start)
	})
	e.Run()
	if total != 500 {
		t.Fatalf("drained %d bytes, want 500", total)
	}
	// 500 B at 100 B/s = 5 s.
	if got := elapsed.Seconds(); got < 4.9 || got > 5.2 {
		t.Fatalf("stream took %.2fs, want ~5s", got)
	}
}

// TestStreamTruncation: Fail drops undelivered chunks and surfaces the
// error on the reader.
func TestStreamTruncation(t *testing.T) {
	e, _ := newTestNet(t)
	s := &BodyStream{}
	errBackend := errors.New("engine crashed")
	var got []string
	var finalErr error
	e.Go("producer", func(p *sim.Proc) {
		s.Push(Chunk{Data: []byte("a")})
		p.Sleep(time.Second)
		s.Push(Chunk{Data: []byte("b")})
		p.Sleep(time.Second)
		s.Fail(errBackend)
		// Terminal state is sticky: these must all be no-ops.
		s.Push(Chunk{Data: []byte("late")})
		s.Close()
		s.Fail(errors.New("other"))
	})
	e.Go("consumer", func(p *sim.Proc) {
		for {
			c, ok := s.Next(p)
			if !ok {
				finalErr = s.Err()
				return
			}
			got = append(got, string(c.Data))
		}
	})
	e.Run()
	if strings.Join(got, "") != "ab" {
		t.Fatalf("chunks = %v, want a b", got)
	}
	if finalErr != errBackend {
		t.Fatalf("Err = %v, want %v", finalErr, errBackend)
	}
}

// drainStream reads a stream to its end, concatenating chunk data. It
// returns the stream's terminal error alongside whatever arrived before the
// truncation.
func drainStream(p *sim.Proc, r ChunkReader) ([]byte, error) {
	var out []byte
	for {
		c, ok := r.Next(p)
		if !ok {
			return out, r.Err()
		}
		out = append(out, c.Data...)
	}
}

// TestDrainStream concatenates chunk bytes and reports the terminal error.
func TestDrainStream(t *testing.T) {
	e, _ := newTestNet(t)
	clean, dirty := &BodyStream{}, &BodyStream{}
	clean.Push(Chunk{Data: []byte("hello ")})
	clean.Push(Chunk{Data: []byte("world")})
	clean.Close()
	dirty.Push(Chunk{Data: []byte("partial")})
	errCut := errors.New("cut")
	var body, partial []byte
	var err1, err2 error
	e.Go("drain", func(p *sim.Proc) {
		body, err1 = drainStream(p, clean)
		dirty.Fail(errCut) // queued chunk is dropped
		partial, err2 = drainStream(p, dirty)
	})
	e.Run()
	if string(body) != "hello world" || err1 != nil {
		t.Fatalf("clean drain = %q/%v", body, err1)
	}
	if len(partial) != 0 || err2 != errCut {
		t.Fatalf("dirty drain = %q/%v, want empty/%v", partial, err2, errCut)
	}
}

// TestStdHandlerStreaming: a streamed virtual response crosses the
// real-HTTP bridge chunk by chunk and reassembles in order.
func TestStdHandlerStreaming(t *testing.T) {
	e, _ := newTestNet(t)
	svc := ServiceFunc(func(p *sim.Proc, req *Request) *Response {
		s := &BodyStream{}
		p.Engine().Go("producer", func(pp *sim.Proc) {
			for i := 0; i < 8; i++ {
				s.Push(Chunk{Data: []byte(fmt.Sprintf("data: t%d\n\n", i))})
				pp.Sleep(10 * time.Millisecond)
			}
			s.Close()
		})
		resp := &Response{Status: 200, Stream: s}
		resp.SetHeader("Content-Type", "text/event-stream")
		return resp
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.RunRealtime(ctx, 1e9)

	ts := httptest.NewServer(StdHandler(e, svc, "gateway"))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	var want bytes.Buffer
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&want, "data: t%d\n\n", i)
	}
	if string(body) != want.String() {
		t.Fatalf("body = %q, want %q", body, want.String())
	}
}

// TestStdHandlerOversizeBody: bodies past the 64 MiB cap are rejected with
// 413 instead of being silently truncated and forwarded.
func TestStdHandlerOversizeBody(t *testing.T) {
	e, _ := newTestNet(t)
	var sawBytes int = -1
	svc := ServiceFunc(func(p *sim.Proc, req *Request) *Response {
		sawBytes = len(req.Body)
		return Text(200, "ok")
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.RunRealtime(ctx, 1e9)

	ts := httptest.NewServer(StdHandler(e, svc, "gateway"))
	defer ts.Close()

	over := bytes.Repeat([]byte("x"), maxStdBodyBytes+1)
	resp, err := http.Post(ts.URL+"/upload", "application/octet-stream", bytes.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	if sawBytes != -1 {
		t.Fatalf("oversize body reached the handler (%d bytes)", sawBytes)
	}

	// At the cap exactly: accepted whole.
	ok := bytes.Repeat([]byte("y"), 1<<20)
	resp2, err := http.Post(ts.URL+"/upload", "application/octet-stream", bytes.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 200 || sawBytes != len(ok) {
		t.Fatalf("status = %d, handler saw %d bytes, want 200/%d", resp2.StatusCode, sawBytes, len(ok))
	}
}
