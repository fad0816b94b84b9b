package vhttp

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func newTestNet(t *testing.T) (*sim.Engine, *Net) {
	t.Helper()
	e := sim.NewEngine(1)
	n := NewNet(netsim.New(e))
	return e, n
}

func echo() Service {
	return ServiceFunc(func(p *sim.Proc, req *Request) *Response {
		return Text(200, req.Method+" "+req.Path+" from="+req.From)
	})
}

func TestBasicRequest(t *testing.T) {
	e, n := newTestNet(t)
	if err := n.Listen("server1", 8000, echo(), ListenOptions{}); err != nil {
		t.Fatal(err)
	}
	var body string
	e.Go("client", func(p *sim.Proc) {
		c := &Client{Net: n, From: "laptop"}
		resp, err := c.Get(p, "http://server1:8000/v1/models")
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		body = string(resp.Body)
	})
	e.Run()
	if body != "GET /v1/models from=laptop" {
		t.Fatalf("body = %q", body)
	}
}

// TestClientDoAllocBudget: a hop through Client.Do allocates only the
// parsed *url.URL. The endpoint is found by a comparable host-port key, not
// a formatted string, and a URL without a query leaves Request.Query nil.
func TestClientDoAllocBudget(t *testing.T) {
	e, n := newTestNet(t)
	resp := &Response{Status: 200, Body: []byte("{}")}
	n.Listen("api", 8000, ServiceFunc(func(p *sim.Proc, req *Request) *Response { return resp }), ListenOptions{})
	c := &Client{Net: n, From: "node1"}
	req := &Request{Method: "POST", Body: []byte(`{"model":"m"}`)}
	var allocs float64
	e.Go("client", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			req.URL = "http://api:8000/v1/chat/completions"
			if got, err := c.Do(p, req); err != nil || got != resp {
				t.Errorf("Do = %v, %v", got, err)
			}
		})
	})
	e.Run()
	if req.Query != nil {
		t.Errorf("Query = %v for a URL without one, want nil", req.Query)
	}
	if allocs > 1 {
		t.Fatalf("Client.Do: %.1f allocs per request, budget 1", allocs)
	}
}

func TestConnectionRefused(t *testing.T) {
	e, n := newTestNet(t)
	var err error
	e.Go("client", func(p *sim.Proc) {
		c := &Client{Net: n}
		_, err = c.Get(p, "http://nowhere:8000/")
	})
	e.Run()
	ce, ok := err.(*ConnError)
	if !ok || ce.Reason != "connection refused" {
		t.Fatalf("err = %v, want connection refused", err)
	}
}

func TestUpGate(t *testing.T) {
	e, n := newTestNet(t)
	healthy := true
	n.Listen("server1", 80, echo(), ListenOptions{Up: func() bool { return healthy }})
	var errs []error
	e.Go("client", func(p *sim.Proc) {
		c := &Client{Net: n}
		_, err := c.Get(p, "http://server1/")
		errs = append(errs, err)
		healthy = false
		_, err = c.Get(p, "http://server1/")
		errs = append(errs, err)
	})
	e.Run()
	if errs[0] != nil {
		t.Fatalf("healthy request failed: %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("unhealthy endpoint should be unreachable")
	}
}

// TestAliasPicksPerRequestAndRemoval: an alias resolves on every request to
// the host its pick returns, so a name can alternate over two hosts; a pick
// of "" and a removed alias both refuse the connection, naming the alias.
func TestAliasPicksPerRequestAndRemoval(t *testing.T) {
	e, n := newTestNet(t)
	hosts := []string{"node7", "node8"}
	for _, h := range hosts {
		n.Listen(h, 8000, ServiceFunc(func(p *sim.Proc, req *Request) *Response {
			return Text(200, h+" "+req.Host)
		}), ListenOptions{})
	}
	next := 0
	n.Alias("llama.ai.svc.cee", func() string {
		if hosts == nil {
			return ""
		}
		h := hosts[next%len(hosts)]
		next++
		return h
	})
	var got []string
	var noPick, removed error
	e.Go("client", func(p *sim.Proc) {
		c := &Client{Net: n}
		for i := 0; i < 4; i++ {
			resp, err := c.Get(p, "http://llama.ai.svc.cee:8000/x")
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			got = append(got, string(resp.Body))
		}
		hosts = nil
		_, noPick = c.Get(p, "http://llama.ai.svc.cee:8000/x")
		n.RemoveAlias("llama.ai.svc.cee")
		_, removed = c.Get(p, "http://llama.ai.svc.cee:8000/x")
	})
	e.Run()
	want := "node7 llama.ai.svc.cee,node8 llama.ai.svc.cee,node7 llama.ai.svc.cee,node8 llama.ai.svc.cee"
	if strings.Join(got, ",") != want {
		t.Fatalf("served by %q, want %q", got, want)
	}
	for _, err := range []error{noPick, removed} {
		if ce, ok := err.(*ConnError); !ok || ce.Addr != "llama.ai.svc.cee:8000" || ce.Reason != "connection refused" {
			t.Fatalf("err = %v, want llama.ai.svc.cee:8000 refused", err)
		}
	}
}

func TestBodyTransferTakesTime(t *testing.T) {
	e, n := newTestNet(t)
	wire := n.fabric.AddLink("wire", 100, 0) // 100 B/s
	n.RouteFn = func(from, to string) []*netsim.Link { return []*netsim.Link{wire} }
	n.BaseLatency = 0
	n.Listen("s3", 9000, ServiceFunc(func(p *sim.Proc, req *Request) *Response {
		return &Response{Status: 200, Size: 500} // 500-byte response
	}), ListenOptions{})
	var elapsed time.Duration
	e.Go("client", func(p *sim.Proc) {
		c := &Client{Net: n, From: "node1"}
		start := p.Now()
		if _, err := c.Do(p, &Request{Method: "PUT", URL: "http://s3:9000/obj", Size: 1000}); err != nil {
			t.Errorf("Do: %v", err)
		}
		elapsed = p.Now().Sub(start)
	})
	e.Run()
	// 1000 B up + 500 B down at 100 B/s = 15 s.
	if got := elapsed.Seconds(); got < 14.9 || got > 15.2 {
		t.Fatalf("transfer took %.2fs, want ~15s", got)
	}
}

func TestDoubleBindFails(t *testing.T) {
	_, n := newTestNet(t)
	if err := n.Listen("h", 80, echo(), ListenOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Listen("h", 80, echo(), ListenOptions{}); err == nil {
		t.Fatal("double bind should fail")
	}
	n.Unlisten("h", 80)
	if err := n.Listen("h", 80, echo(), ListenOptions{}); err != nil {
		t.Fatalf("rebind after Unlisten failed: %v", err)
	}
}

func TestStdHandlerBridge(t *testing.T) {
	e, n := newTestNet(t)
	n.Listen("backend", 8000, echo(), ListenOptions{})
	svc := ServiceFunc(func(p *sim.Proc, req *Request) *Response {
		// Nested virtual call proves the handler runs inside the sim.
		c := &Client{Net: n, From: "gateway"}
		resp, err := c.Get(p, "http://backend:8000/inner")
		if err != nil {
			return Text(502, err.Error())
		}
		return Text(200, "outer->"+string(resp.Body))
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.RunRealtime(ctx, 1e9)

	ts := httptest.NewServer(StdHandler(e, svc, "gateway"))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "outer->GET /inner from=gateway" {
		t.Fatalf("body = %q", body)
	}
}

// TestHostAndPortFromURL: SplitHostPort and Client.Do read the host and
// port the same way: the port defaults to 80, and a URL without a host is
// an error.
func TestHostAndPortFromURL(t *testing.T) {
	for _, tc := range []struct {
		url  string
		host string
		port int
		err  string
	}{
		{url: "http://hops03:8000", host: "hops03", port: 8000},
		{url: "http://hops03:8000/v1/models?x=1", host: "hops03", port: 8000},
		{url: "http://gw/v1", host: "gw", port: 80},
		{url: "http://gw:/v1", host: "gw", port: 80},
		{url: "http:///v1", err: "has no host"},
		{url: "http://gw:port/", err: "bad url"},
	} {
		host, port, err := SplitHostPort(tc.url)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("SplitHostPort(%q) err = %v, want %q", tc.url, err, tc.err)
			}
			continue
		}
		if err != nil || host != tc.host || port != tc.port {
			t.Errorf("SplitHostPort(%q) = %q, %d, %v; want %q, %d", tc.url, host, port, err, tc.host, tc.port)
		}
	}

	e, n := newTestNet(t)
	var got *Request
	n.Listen("gw", 80, ServiceFunc(func(p *sim.Proc, req *Request) *Response {
		got = req
		return Text(200, "ok")
	}), ListenOptions{})
	var errs []error
	e.Go("client", func(p *sim.Proc) {
		c := &Client{Net: n}
		for _, u := range []string{"http://gw?q=1", "http:///v1", "http://gw:port/"} {
			_, err := c.Get(p, u)
			errs = append(errs, err)
		}
	})
	e.Run()
	if errs[0] != nil || got == nil || got.Host != "gw" || got.Path != "/" || got.Query.Get("q") != "1" {
		t.Fatalf("request to the default port: err %v, req %+v", errs[0], got)
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "has no host") {
		t.Fatalf("hostless URL: err = %v", errs[1])
	}
	if errs[2] == nil || !strings.Contains(errs[2].Error(), "bad url") {
		t.Fatalf("malformed port: err = %v", errs[2])
	}
}
