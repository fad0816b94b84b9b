package vhttp

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Chunk is one piece of a streamed response body: an SSE event, a token
// delta, a file segment. Data travels by reference through every proxy hop
// (zero-copy); Size inflates the bandwidth accounting for bodies whose
// literal bytes are not materialized. A chunk read from a ChunkReader
// lends its Data only until the reader's next Next: a consumer that keeps
// the bytes longer copies them.
type Chunk struct {
	Data []byte
	Size int64 // simulated size; effective size is max(len(Data), Size)
}

// Bytes returns the effective chunk size used for bandwidth accounting.
func (c Chunk) Bytes() int64 {
	if int64(len(c.Data)) > c.Size {
		return int64(len(c.Data))
	}
	return c.Size
}

// ChunkReader is the consumer side of a streamed response body. Exactly one
// process may consume a stream; proxies hand the same reader (wrapped for
// their hop's bandwidth metering) downstream rather than buffering.
type ChunkReader interface {
	// Next blocks the calling process until a chunk is available, returning
	// ok=false at end of stream. After a false return, Err distinguishes a
	// clean close (nil) from a truncated stream. The chunk's Data stays
	// valid until the next call to Next, which may reuse its bytes; a
	// consumer that keeps Data longer copies it.
	Next(p *sim.Proc) (c Chunk, ok bool)
	// Err is the stream's terminal error: non-nil once the producer failed
	// the stream (the body is truncated), nil while open or after Close.
	Err() error
}

// BodyStream is the producer side of a chunked body: the engine's decode
// loop (or any service handler) pushes chunks as they exist, the consumer
// pulls them in virtual time. Push and Close never block, so they are safe
// to call from event callbacks (a token callback on the engine loop).
//
// Push copies the chunk's bytes into the stream, so the producer may reuse
// its buffer at once, and Next lends the reader a slice of the stream's
// own buffer, valid until the following Next.
//
// The zero value is an open, empty stream, so an owner can hold one by
// value inside its own per-request record. It must not be copied after
// first use: its buffers start out as arrays inside it.
type BodyStream struct {
	// buf holds the pushed bytes back to back: buf[:read] was handed out,
	// buf[read:] is unread, and queue[head:] are the unread chunks in push
	// order.
	buf   []byte
	read  int
	queue []queued
	head  int
	// wake is fired by the producer and reset by the reader before each
	// park; the reader binds it to its engine at the first park.
	wake   sim.Signal
	closed bool
	err    error
	// firstBuf and firstQueue back buf and queue from the first Push, so
	// a stream held in its owner's record costs no allocation of its own
	// until it outgrows them.
	firstBuf   [streamBufBytes]byte
	firstQueue [streamQueueLen]queued
}

// The first buffers of a stream: room for streamBufBytes of unread bytes
// in streamQueueLen chunks. A chat stream's token event is under 200 bytes
// and its finish event about 250, and a reader that keeps up holds at most
// a few of them unread, so a steady stream never grows either buffer.
const (
	streamBufBytes = 1 << 10
	streamQueueLen = 8
)

// queued is one unread chunk: its byte count in buf and its simulated size.
type queued struct {
	n    int
	size int64
}

// Push copies a chunk into the stream and wakes a parked reader. Pushing
// after Close or Fail is a no-op (the terminal state already reached the
// consumer).
func (s *BodyStream) Push(c Chunk) {
	if s.closed {
		return
	}
	if s.queue == nil {
		s.buf, s.queue = s.firstBuf[:0], s.firstQueue[:0]
	}
	s.buf = append(s.buf, c.Data...)
	s.queue = append(s.queue, queued{n: len(c.Data), size: c.Size})
	s.fireWake()
}

// Close marks a clean end of stream: the reader drains queued chunks, then
// Next returns false with Err() == nil.
func (s *BodyStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.fireWake()
}

// Fail terminates the stream abnormally: queued chunks are dropped and the
// reader sees an immediate end of stream with Err() == err. This is the
// truncated-body path — a backend dying mid-generation.
func (s *BodyStream) Fail(err error) {
	if s.closed {
		return
	}
	s.closed = true
	s.err = err
	s.buf, s.read = nil, 0
	s.queue, s.head = nil, 0
	s.fireWake()
}

// fireWake wakes a parked reader. Without one it only marks the signal
// fired, which queues no event: the reader resets it before parking.
func (s *BodyStream) fireWake() { s.wake.Fire() }

// Next implements ChunkReader. The returned Data is capacity-limited, so
// appending to it cannot overwrite the chunks behind it.
func (s *BodyStream) Next(p *sim.Proc) (Chunk, bool) {
	s.release()
	for {
		if s.head < len(s.queue) {
			q := s.queue[s.head]
			s.head++
			start := s.read
			s.read += q.n
			return Chunk{Data: s.buf[start:s.read:s.read], Size: q.size}, true
		}
		if s.closed {
			return Chunk{}, false
		}
		s.wake.Init(p.Engine())
		s.wake.Reset()
		p.Wait(&s.wake)
	}
}

// release gives back the chunks handed out so far, the last of which the
// reader returned by calling Next. It moves the unread rest of buf and
// queue to the front once the handed-out part is at least as long. So a
// steady stream reuses one backing array of each, a lagging reader keeps
// about twice its unread bytes, and each move is paid for by as many
// reads, which keeps the copying linear in the bytes streamed.
func (s *BodyStream) release() {
	if s.read >= len(s.buf)-s.read {
		s.buf = s.buf[:copy(s.buf, s.buf[s.read:])]
		s.read = 0
	}
	if s.head >= len(s.queue)-s.head {
		s.queue = s.queue[:copy(s.queue, s.queue[s.head:])]
		s.head = 0
	}
}

// Err implements ChunkReader.
func (s *BodyStream) Err() error { return s.err }

// meteredStream charges each chunk against one hop's netsim route as the
// consumer pulls it. Client.Do wraps every streamed response in one of
// these, so a stream proxied through N hops accumulates N per-chunk
// transfer charges while the chunk bytes themselves pass by reference.
type meteredStream struct {
	src   ChunkReader
	net   *Net
	route []*netsim.Link
}

// Next implements ChunkReader.
func (m *meteredStream) Next(p *sim.Proc) (Chunk, bool) {
	c, ok := m.src.Next(p)
	if ok {
		if sz := c.Bytes(); sz > m.net.MeterThreshold && len(m.route) > 0 {
			m.net.fabric.Transfer(p, float64(sz), m.route, netsim.StartOptions{})
		}
	}
	return c, ok
}

// Err implements ChunkReader.
func (m *meteredStream) Err() error { return m.src.Err() }
