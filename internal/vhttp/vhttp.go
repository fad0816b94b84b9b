// Package vhttp is a virtual HTTP substrate for the simulation.
//
// Services (the S3 server, vLLM's OpenAI API, the CaL NGINX proxy, the
// Kubernetes ingress) register on host:port endpoints. Clients issue requests
// from a named host; the request and response bodies are charged against the
// netsim route between the two hosts, so large transfers (model downloads,
// S3 syncs) take realistic virtual time while small API calls cost only
// latency. Handlers run on the calling process, which serializes service work
// onto the caller's timeline; true contention is modeled by the links and by
// the simulated engines behind the services.
//
// Adapters expose the same Service values over real net/http sockets when the
// engine runs in realtime mode (cmd/sitesim), so `curl` against the simulated
// site works exactly as in the paper's Figure 7.
package vhttp

import (
	"fmt"
	"net/url"
	"strconv"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Request is a virtual HTTP request.
type Request struct {
	Method string
	URL    string // absolute: http://host:port/path?query
	Header map[string]string
	Body   []byte // literal body for small payloads
	Size   int64  // simulated body size; effective size is max(len(Body), Size)

	// parsed fields, populated by Client.Do / adapters; Query is nil when
	// the URL has none
	Host  string
	Path  string
	Query url.Values

	// From identifies the client host (set by Client.Do).
	From string
}

// BodyBytes returns the effective body size used for bandwidth accounting.
func (r *Request) BodyBytes() int64 {
	if int64(len(r.Body)) > r.Size {
		return int64(len(r.Body))
	}
	return r.Size
}

// ProxyURL is r's path and query string on a new target base URL
// (http://host:port), the URL a proxy forwards r to.
func (r *Request) ProxyURL(base string) string {
	u := base + r.Path
	if q := r.Query.Encode(); q != "" {
		u += "?" + q
	}
	return u
}

// ProxyTo is the copy of r a proxy sends to target, which carries the path
// and query (ProxyURL builds it): r's method, headers, body and size. Every
// proxy forwards through it, so none can drop a part of the request. It
// returns the copy by value, so a proxy that keeps a per-request record
// holds it there.
func (r *Request) ProxyTo(target string) Request {
	return Request{Method: r.Method, URL: target, Header: r.Header, Body: r.Body, Size: r.Size}
}

// Response is a virtual HTTP response.
type Response struct {
	Status int
	Header map[string]string
	Body   []byte
	Size   int64
	// Stream, when non-nil, carries the body as chunks delivered over
	// virtual time instead of Body/Size: the handler returns as soon as the
	// first byte exists and the consumer pulls the rest as it is produced.
	// Client.Do wraps the reader for per-hop bandwidth metering; proxies
	// pass it through without buffering (zero-copy).
	Stream ChunkReader
	// Trace, when non-nil, is the server-side trace context of a traced
	// request (a *trace.Trace) — the in-process stand-in for the span
	// push a real engine would make to a collector. It rides the response
	// so late spans (decode completes mid-stream, after headers are sent)
	// are visible to the caller when the stream settles. Declared as any
	// to keep vhttp free of upper-layer imports; proxies must not forward
	// it to clients.
	Trace any
}

// BodyBytes returns the effective body size used for bandwidth accounting.
func (r *Response) BodyBytes() int64 {
	if int64(len(r.Body)) > r.Size {
		return int64(len(r.Body))
	}
	return r.Size
}

// SetHeader sets a response header, allocating the map when needed.
func (r *Response) SetHeader(k, v string) {
	if r.Header == nil {
		r.Header = map[string]string{}
	}
	r.Header[k] = v
}

// Text builds a plain-text response.
func Text(status int, body string) *Response {
	return &Response{Status: status, Body: []byte(body), Header: map[string]string{"Content-Type": "text/plain"}}
}

// JSON builds an application/json response from pre-encoded bytes.
func JSON(status int, body []byte) *Response {
	return &Response{Status: status, Body: body, Header: map[string]string{"Content-Type": "application/json"}}
}

// Service handles virtual requests. Serve runs on the caller's process and
// may sleep, issue nested requests, or wait on signals.
type Service interface {
	Serve(p *sim.Proc, req *Request) *Response
}

// ServiceFunc adapts a function to the Service interface.
type ServiceFunc func(p *sim.Proc, req *Request) *Response

// Serve implements Service.
func (f ServiceFunc) Serve(p *sim.Proc, req *Request) *Response { return f(p, req) }

// endpoint is one listening socket.
type endpoint struct {
	svc Service
	up  func() bool
}

// addr is a listening socket's host and port.
type addr struct {
	host string
	port int
}

// Net is the virtual network namespace: listeners, host aliases, and the
// topology callback that yields the link route between two hosts.
type Net struct {
	fabric    *netsim.Fabric
	endpoints map[addr]*endpoint
	aliases   map[string]func() string
	// RouteFn returns the netsim links between client and server hosts.
	// nil or empty results mean an un-metered (instant) path.
	RouteFn func(from, to string) []*netsim.Link
	// ReachFn, when non-nil, gates connectivity (firewalls, air gaps).
	// It receives the client host and the *original* target hostname
	// (before alias resolution), e.g. ("hops15", "huggingface.co").
	ReachFn func(from, toHost string) bool
	// BaseLatency is added to every request/response pair.
	BaseLatency time.Duration
	// MeterThreshold is the body size above which transfers are charged
	// against the netsim route; smaller payloads cost only latency. This
	// keeps per-request fluid-model overhead away from small API calls
	// while model weights and image blobs still contend for bandwidth.
	MeterThreshold int64
}

// NewNet creates an empty virtual network on the fabric.
func NewNet(fabric *netsim.Fabric) *Net {
	return &Net{
		fabric:      fabric,
		endpoints:   make(map[addr]*endpoint),
		aliases:     make(map[string]func() string),
		BaseLatency: 200 * time.Microsecond,
	}
}

func key(host string, port int) string { return fmt.Sprintf("%s:%d", host, port) }

// ListenOptions configure an endpoint.
type ListenOptions struct {
	// Up, when non-nil, gates reachability (node health, service readiness).
	Up func() bool
}

// Listen registers svc at host:port. Re-listening on a bound port fails.
func (n *Net) Listen(host string, port int, svc Service, opts ListenOptions) error {
	a := addr{host, port}
	if _, bound := n.endpoints[a]; bound {
		return fmt.Errorf("vhttp: address already in use: %s", key(host, port))
	}
	n.endpoints[a] = &endpoint{svc: svc, up: opts.Up}
	return nil
}

// Unlisten removes the endpoint at host:port.
func (n *Net) Unlisten(host string, port int) { delete(n.endpoints, addr{host, port}) }

// Alias makes a virtual hostname resolve, per request, to the host pick
// returns: a Kubernetes Ingress host to the cluster's ingress router, a
// Service name to one of the Service's ready pods. pick returns a concrete
// host, never another alias, or "" when nothing serves the name, which
// refuses the connection. Port numbers carry through unchanged.
func (n *Net) Alias(name string, pick func() string) { n.aliases[name] = pick }

// RemoveAlias deletes a hostname mapping.
func (n *Net) RemoveAlias(name string) { delete(n.aliases, name) }

// Resolve returns the host that serves host: an alias's pick, or host
// itself.
func (n *Net) Resolve(host string) string {
	if pick, ok := n.aliases[host]; ok {
		return pick()
	}
	return host
}

// SplitHostPort parses an absolute base URL ("http://hops03:8000") into its
// virtual host and port (default 80). Used when one service's endpoint (a
// deployment's BaseURL) becomes another's backend (a gateway replica).
func SplitHostPort(rawurl string) (host string, port int, err error) {
	u, err := url.Parse(rawurl)
	if err != nil {
		return "", 0, fmt.Errorf("vhttp: bad url %q: %v", rawurl, err)
	}
	return hostPort(u, rawurl)
}

// hostPort takes the virtual host and port (default 80) from a parsed URL;
// rawurl names it in errors.
func hostPort(u *url.URL, rawurl string) (host string, port int, err error) {
	host = u.Hostname()
	if host == "" {
		return "", 0, fmt.Errorf("vhttp: url %q has no host", rawurl)
	}
	port = 80
	if n, err := strconv.Atoi(u.Port()); err == nil {
		port = n
	}
	return host, port, nil
}

// Client issues virtual requests from a named host.
type Client struct {
	Net  *Net
	From string // client host name ("" = off-fabric, e.g. a user laptop)
}

// Errors mirroring familiar transport failures.
type ConnError struct{ Addr, Reason string }

func (e *ConnError) Error() string { return fmt.Sprintf("vhttp: %s: %s", e.Addr, e.Reason) }

// Do performs a request. It parses req.URL, models the body transfers over
// the route between hosts, and invokes the service handler on p.
func (c *Client) Do(p *sim.Proc, req *Request) (*Response, error) {
	u, err := url.Parse(req.URL)
	if err != nil {
		return nil, fmt.Errorf("vhttp: bad url %q: %v", req.URL, err)
	}
	host, port, err := hostPort(u, req.URL)
	if err != nil {
		return nil, err
	}
	if c.Net.ReachFn != nil && !c.Net.ReachFn(c.From, host) {
		return nil, &ConnError{Addr: host, Reason: "network unreachable (firewalled)"}
	}
	target := c.Net.Resolve(host)
	ep := c.Net.endpoints[addr{target, port}]
	if ep == nil {
		return nil, &ConnError{Addr: key(host, port), Reason: "connection refused"}
	}
	if ep.up != nil && !ep.up() {
		return nil, &ConnError{Addr: key(host, port), Reason: "no route to host"}
	}
	req.Host = host
	req.Path = u.Path
	if req.Path == "" {
		req.Path = "/"
	}
	req.Query = nil
	if u.RawQuery != "" {
		req.Query = u.Query()
	}
	req.From = c.From
	if req.Method == "" {
		req.Method = "GET"
	}

	var route []*netsim.Link
	if c.Net.RouteFn != nil {
		route = c.Net.RouteFn(c.From, target)
	}
	p.Sleep(c.Net.BaseLatency)
	if sz := req.BodyBytes(); sz > c.Net.MeterThreshold && len(route) > 0 {
		c.Net.fabric.Transfer(p, float64(sz), route, netsim.StartOptions{})
	}
	resp := ep.svc.Serve(p, req)
	if resp == nil {
		resp = Text(500, "nil response")
	}
	if resp.Stream != nil {
		// Chunked body: each chunk is charged against this hop's route as
		// the consumer pulls it. The headers already cost BaseLatency above;
		// chunks ride the established connection.
		if len(route) > 0 {
			resp.Stream = &meteredStream{src: resp.Stream, net: c.Net, route: route}
		}
	} else if sz := resp.BodyBytes(); sz > c.Net.MeterThreshold && len(route) > 0 {
		c.Net.fabric.Transfer(p, float64(sz), route, netsim.StartOptions{})
	}
	return resp, nil
}

// Get is a convenience wrapper for bodyless GETs.
func (c *Client) Get(p *sim.Proc, url string) (*Response, error) {
	return c.Do(p, &Request{Method: "GET", URL: url})
}
