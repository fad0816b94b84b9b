// Command sitesim runs the converged site in realtime mode and exposes the
// simulated services over real HTTP sockets, so the paper's Figure 7 curl
// works verbatim against the simulation:
//
//	sitesim -model meta-llama/Llama-3.1-8B-Instruct -tp 1 -max-model-len 8192 \
//	        -listen 127.0.0.1:8000 -speed 600
//
//	curl http://127.0.0.1:8000/v1/chat/completions \
//	  -H "Content-Type: application/json" \
//	  -d '{"messages":[{"role":"user","content":"How long to get from Earth to Mars?"}]}'
//
// -speed scales virtual time (600 = a 10-minute model load passes in 1s of
// wall clock); queries served after startup take realistic simulated time
// divided by the same factor.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/vhttp"
)

func main() {
	var (
		model  = flag.String("model", llm.Llama318B.Name, "model to serve")
		tp     = flag.Int("tp", 1, "tensor parallel size")
		maxLen = flag.Int("max-model-len", 8192, "context limit")
		listen = flag.String("listen", "127.0.0.1:8000", "real address to serve on")
		speed  = flag.Float64("speed", 600, "virtual-to-wall time ratio")
	)
	flag.Parse()

	m, err := llm.ByName(*model)
	if err != nil {
		fatal(err)
	}
	s := site.New(site.Options{Small: true, Seed: 1})
	d := core.NewDeployer(s)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	go s.Eng.RunRealtime(ctx, *speed)

	type deployed struct {
		dp  *core.Deployment
		err error
	}
	ch := make(chan deployed, 1)
	s.Eng.Inject(func() {
		s.Eng.Go("sitesim", func(p *sim.Proc) {
			if err := core.SeedModel(p, s.HopsLustre, m); err != nil {
				ch <- deployed{nil, err}
				return
			}
			dp, err := d.Deploy(p, core.VLLMPackage(), core.PlatformHops, core.DeployConfig{
				Model: m, TensorParallel: *tp, MaxModelLen: *maxLen, Offline: true,
			})
			ch <- deployed{dp, err}
		})
	})
	fmt.Printf("sitesim: deploying %s on hops (virtual startup ÷ %.0f)...\n", m.Short, *speed)
	dep := <-ch
	if dep.err != nil {
		fatal(dep.err)
	}
	fmt.Printf("sitesim: ready — %s inside the fabric, serving on http://%s\n", dep.dp.BaseURL, *listen)

	// Bridge: the real HTTP server forwards into the virtual service.
	fwd := vhttp.ServiceFunc(func(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
		client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
		inner := req.ProxyTo(req.ProxyURL(dep.dp.BaseURL))
		resp, err := client.Do(p, &inner)
		if err != nil {
			return vhttp.Text(502, err.Error())
		}
		return resp
	})
	srv := &http.Server{Addr: *listen, Handler: vhttp.StdHandler(s.Eng, fwd, site.LoginHops)}
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sitesim:", err)
	os.Exit(1)
}
