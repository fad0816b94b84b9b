// Package ingress provides the off-platform access paths of §3.3:
//
//   - SSH tunnels from a user system through a login node to a compute node
//     (single-user access);
//   - Compute-as-Login (CaL) mode: an operator-provisioned compute node
//     routed externally through an NGINX reverse proxy on a service node
//     (multi-user, persistent services);
//   - a user-run CronRestarter that re-deploys a crashed service, the
//     self-help equivalent of Kubernetes' control loop.
package ingress

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/vhttp"
)

// SSHTunnel forwards a local port on the user's system to a compute-node
// port via a login node: `ssh -L 8000:compute-node:8000 -N -f login-node`.
type SSHTunnel struct {
	Net        *vhttp.Net
	LocalHost  string // the user's machine (e.g. "laptop")
	LocalPort  int
	LoginHost  string
	TargetHost string
	TargetPort int

	open bool
}

// Open starts forwarding. It fails if the local port is taken.
func (t *SSHTunnel) Open() error {
	// One pooled client serves every request through the tunnel; Client
	// carries no per-request state.
	client := &vhttp.Client{Net: t.Net, From: t.LoginHost}
	fwd := vhttp.ServiceFunc(func(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
		// Two hops: user → login node → compute node.
		inner := req.ProxyTo(req.ProxyURL(fmt.Sprintf("http://%s:%d", t.TargetHost, t.TargetPort)))
		resp, err := client.Do(p, &inner)
		if err != nil {
			return vhttp.Text(502, "channel 2: open failed: connect failed: "+err.Error())
		}
		return resp
	})
	if err := t.Net.Listen(t.LocalHost, t.LocalPort, fwd, vhttp.ListenOptions{}); err != nil {
		return fmt.Errorf("ssh: bind [127.0.0.1]:%d: %w", t.LocalPort, err)
	}
	t.open = true
	return nil
}

// Close tears the tunnel down.
func (t *SSHTunnel) Close() {
	if t.open {
		t.Net.Unlisten(t.LocalHost, t.LocalPort)
		t.open = false
	}
}

// CommandLine renders the equivalent ssh invocation from the paper.
func (t *SSHTunnel) CommandLine() string {
	return fmt.Sprintf("ssh -L %d:%s:%d -N -f %s", t.LocalPort, t.TargetHost, t.TargetPort, t.LoginHost)
}

// Route is one CaL proxy rule: external port → compute node target.
type Route struct {
	ExternalPort int
	TargetHost   string
	TargetPort   int
}

// CaL is the Compute-as-Login gateway: an NGINX proxy on a platform service
// node routing external traffic to reconfigured compute nodes. Routes are
// provisioned by operators; users redeploy services behind them freely.
type CaL struct {
	Net *vhttp.Net
	// GatewayHost is the externally reachable service node
	// (e.g. "hops-gw.example.gov").
	GatewayHost string

	routes map[int]*Route
}

// NewCaL creates the gateway.
func NewCaL(net *vhttp.Net, gatewayHost string) *CaL {
	return &CaL{Net: net, GatewayHost: gatewayHost, routes: make(map[int]*Route)}
}

// AddRoute provisions an external port for a compute node (operator action).
func (c *CaL) AddRoute(r Route) error {
	if _, dup := c.routes[r.ExternalPort]; dup {
		return fmt.Errorf("cal: port %d already routed", r.ExternalPort)
	}
	rr := r
	// Pooled: one client per route, not one per proxied request.
	client := &vhttp.Client{Net: c.Net, From: c.GatewayHost}
	proxy := vhttp.ServiceFunc(func(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
		inner := req.ProxyTo(req.ProxyURL(fmt.Sprintf("http://%s:%d", rr.TargetHost, rr.TargetPort)))
		resp, err := client.Do(p, &inner)
		if err != nil {
			// NGINX behaviour when the upstream is down.
			return vhttp.Text(502, "502 Bad Gateway (nginx): upstream "+rr.TargetHost+" unavailable")
		}
		return resp
	})
	if err := c.Net.Listen(c.GatewayHost, r.ExternalPort, proxy, vhttp.ListenOptions{}); err != nil {
		return err
	}
	c.routes[r.ExternalPort] = &rr
	return nil
}

// RemoveRoute deprovisions a port.
func (c *CaL) RemoveRoute(port int) {
	if _, ok := c.routes[port]; ok {
		c.Net.Unlisten(c.GatewayHost, port)
		delete(c.routes, port)
	}
}

// Retarget points an existing route at a new backend (user redeploying
// their service on a different node) without operator involvement.
func (c *CaL) Retarget(port int, targetHost string, targetPort int) error {
	r, ok := c.routes[port]
	if !ok {
		return fmt.Errorf("cal: no route on port %d", port)
	}
	r.TargetHost = targetHost
	r.TargetPort = targetPort
	return nil
}

// Routes lists provisioned routes.
func (c *CaL) Routes() []Route {
	var out []Route
	for _, r := range c.routes {
		out = append(out, *r)
	}
	return out
}

// CronRestarter polls a health URL and invokes Redeploy when it fails —
// the paper's "similar functionality can be recreated by users with
// techniques like using cron jobs" (§3.3). Unlike the Kubernetes control
// loop it only reacts at its polling cadence.
type CronRestarter struct {
	Net       *vhttp.Net
	From      string // host the cron job runs on
	HealthURL string
	Interval  time.Duration
	Redeploy  func(p *sim.Proc) error

	Restarts int
	stopped  bool
}

// Start begins polling on its own process; call Stop to end it.
func (cr *CronRestarter) Start(eng *sim.Engine) {
	if cr.Interval <= 0 {
		cr.Interval = 5 * time.Minute
	}
	eng.Go("cron-restarter", func(p *sim.Proc) {
		client := &vhttp.Client{Net: cr.Net, From: cr.From}
		for !cr.stopped {
			p.Sleep(cr.Interval)
			if cr.stopped {
				return
			}
			resp, err := client.Get(p, cr.HealthURL)
			if err == nil && resp.Status < 500 {
				continue
			}
			if cr.Redeploy != nil {
				if err := cr.Redeploy(p); err == nil {
					cr.Restarts++
				}
			}
		}
	})
}

// Stop ends the polling loop at its next wakeup.
func (cr *CronRestarter) Stop() { cr.stopped = true }
