// Package site assembles the paper's converged computing environment
// (Figure 1): the Hops (Slurm, 4×H100) and El Dorado (Flux, 4×MI300A) HPC
// platforms with their parallel filesystems, the Goodall (2×H100-NVL) and
// CEE (A100) Kubernetes clusters, GitLab and Quay container registries,
// dual-site S3 object storage with 16×25 Gbps aggregate connectivity, the
// upstream model hub behind a firewall, login/build nodes, and the
// Compute-as-Login gateway.
package site

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cruntime"
	"repro/internal/flux"
	"repro/internal/fsim"
	"repro/internal/hub"
	"repro/internal/hw"
	"repro/internal/ingress"
	"repro/internal/k8s"
	"repro/internal/netsim"
	"repro/internal/objstore"
	"repro/internal/oci"
	"repro/internal/ray"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/vhttp"
)

// Options sizes the site.
type Options struct {
	// Small shrinks node counts for fast tests.
	Small bool
	// Seed drives all deterministic randomness.
	Seed int64
}

// Well-known site constants.
const (
	S3Host      = "s3.abq.example.gov"
	S3Port      = 9000
	S3Endpoint  = "http://s3.abq.example.gov:9000"
	HubHost     = "huggingface.co"
	LoginHops   = "hops-login1"
	BuildHost   = "build01"
	CaLGateway  = "hops-gw.example.gov"
	AccessKey   = "SITEKEY"
	SecretKey   = "SITESECRET"
	ModelBucket = "huggingface.co"
)

// Site is the fully assembled converged environment.
type Site struct {
	Eng      *sim.Engine
	Fabric   *netsim.Fabric
	Net      *vhttp.Net
	Programs *cruntime.Programs
	Host     *cruntime.Host

	GitLab *registry.Registry
	Quay   *registry.Registry

	S3ABQ *objstore.Server
	S3Liv *objstore.Server
	S3Agg *netsim.Link // 16×25 Gbps aggregate
	// HopsS3Route is the (initially misconfigured) route between Hops
	// compute and S3 — the §2.4 order-of-magnitude fix.
	HopsS3Route *netsim.Link

	Hub *hub.Hub

	Hops       *slurm.Cluster
	HopsNodes  []*hw.Node
	HopsLustre *fsim.FS

	Eldorado       *flux.Instance
	EldoradoNodes  []*hw.Node
	EldoradoLustre *fsim.FS

	Goodall *k8s.Cluster
	CEE     *k8s.Cluster

	CaL *ingress.CaL

	// Build is the internet-connected build host (model downloads, image
	// builds); BuildScratch is its local scratch filesystem.
	Build        *hw.Node
	BuildScratch *fsim.FS
	// HopsLogin is the Hops login node; it mounts the Hops Lustre.
	HopsLogin *hw.Node

	hostNodes map[string]*hw.Node
	edgeLink  *netsim.Link
	// routes memoizes route by host pair: the topology is fixed once New
	// returns, so each pair's path is computed once.
	routes map[hostPair][]*netsim.Link
}

// hostPair is a route's (from, to) key.
type hostPair struct{ from, to string }

// New builds the whole site.
func New(opts Options) *Site {
	eng := sim.NewEngine(opts.Seed)
	fabric := netsim.New(eng)
	net := vhttp.NewNet(fabric)
	net.MeterThreshold = 64 << 10

	s := &Site{
		Eng: eng, Fabric: fabric, Net: net,
		hostNodes: make(map[string]*hw.Node),
		routes:    make(map[hostPair][]*netsim.Link),
	}

	// --- shared infrastructure -------------------------------------------
	s.GitLab = registry.New(fabric, registry.Config{Name: "gitlab", EgressBW: netsim.Gbps(25)})
	s.Quay = registry.New(fabric, registry.Config{Name: "quay", EgressBW: netsim.Gbps(50), Scanner: true})
	for _, im := range oci.Catalog() {
		s.GitLab.Push(im)
		s.Quay.Push(im) // production images are mirrored into Quay
	}

	s.S3ABQ = objstore.NewServer(eng, "s3-abq")
	s.S3Liv = objstore.NewServer(eng, "s3-livermore")
	cred := objstore.Credential{AccessKey: AccessKey, SecretKey: SecretKey}
	s.S3ABQ.AddCredential(cred)
	s.S3Liv.AddCredential(cred)
	s.S3Agg = fabric.AddLink("s3:aggregate", 16*netsim.Gbps(25), time.Millisecond)
	wan := fabric.AddLink("wan:abq-livermore", netsim.Gbps(100), 12*time.Millisecond)
	s.S3ABQ.ReplicateTo(s.S3Liv, fabric, []*netsim.Link{wan})
	net.Listen(S3Host, S3Port, s.S3ABQ, vhttp.ListenOptions{})

	s.Hub = hub.New(fabric, HubHost, netsim.Gbps(40))

	s.edgeLink = fabric.AddLink("edge:logins", netsim.Gbps(100), time.Millisecond)

	// --- programs ----------------------------------------------------------
	s.Programs = cruntime.NewPrograms()
	hub.RegisterPrograms(s.Programs)
	bench.RegisterProgram(s.Programs)
	s.Programs.Register("vllm/vllm-openai", ray.NewDispatchFactory(HubHost))
	s.Programs.Register("rocm/vllm", ray.NewDispatchFactory(HubHost))
	s.Host = cruntime.NewHost(eng, net, fabric, s.Programs, s.Quay)

	// --- HPC platforms -----------------------------------------------------
	hopsN, eldoN, goodallN, ceeN := 64, 64, 8, 16
	if opts.Small {
		hopsN, eldoN, goodallN, ceeN = 8, 8, 4, 4
	}
	s.HopsLustre = fsim.New(fabric, fsim.Config{
		Name: "hops-lustre", ReadBW: netsim.GBps(80), WriteBW: netsim.GBps(60), Networked: true,
	})
	s.Hops = slurm.New(eng, "hops")
	for i := 1; i <= hopsN; i++ {
		n := hw.NewNode(fabric, hw.NodeSpec{
			Name: fmt.Sprintf("hops%02d", i), Cluster: "hops",
			GPUModel: hw.H100SXM, GPUCount: 4,
			NICBW: netsim.Gbps(200), IBBW: netsim.Gbps(400),
		})
		s.HopsNodes = append(s.HopsNodes, n)
		s.hostNodes[n.Name] = n
	}
	s.Hops.AddPartition("batch", s.HopsNodes, 4*time.Hour, 48*time.Hour, true)
	// The misconfigured default route: ~1/10 of the fixed capacity.
	s.HopsS3Route = fabric.AddLink("route:hops-s3", netsim.Gbps(10), 2*time.Millisecond)

	s.EldoradoLustre = fsim.New(fabric, fsim.Config{
		Name: "eldorado-lustre", ReadBW: netsim.GBps(80), WriteBW: netsim.GBps(60), Networked: true,
	})
	for i := 0; i < eldoN; i++ {
		n := hw.NewNode(fabric, hw.NodeSpec{
			Name: fmt.Sprintf("eldo%d", 1001+i), Cluster: "eldorado",
			GPUModel: hw.MI300A, GPUCount: 4,
			NICBW: netsim.Gbps(200), IBBW: netsim.Gbps(400),
		})
		s.EldoradoNodes = append(s.EldoradoNodes, n)
		s.hostNodes[n.Name] = n
	}
	s.Eldorado = flux.NewInstance(eng, "eldorado", s.EldoradoNodes)

	// --- Kubernetes platforms ---------------------------------------------
	s.Goodall = k8s.NewCluster(eng, net, fabric, s.Host, "goodall")
	s.Goodall.AddStorageClass(k8s.StorageClass{Name: "ceph-block", ReadBW: netsim.GBps(4), WriteBW: netsim.GBps(3), Networked: true})
	for i := 1; i <= goodallN; i++ {
		n := hw.NewNode(fabric, hw.NodeSpec{
			Name: fmt.Sprintf("goodall%02d", i), Cluster: "goodall",
			GPUModel: hw.H100NVL, GPUCount: 2,
			NICBW: netsim.Gbps(100), IBBW: netsim.Gbps(200),
		})
		s.hostNodes[n.Name] = n
		s.Goodall.AddNode(n)
	}
	s.CEE = k8s.NewCluster(eng, net, fabric, s.Host, "cee")
	for i := 1; i <= ceeN; i++ {
		n := hw.NewNode(fabric, hw.NodeSpec{
			Name: fmt.Sprintf("cee%02d", i), Cluster: "cee",
			GPUModel: hw.A100, GPUCount: 4, NICBW: netsim.Gbps(100),
		})
		s.hostNodes[n.Name] = n
		s.CEE.AddNode(n)
	}
	s.Goodall.ExtraProps["hub"] = s.Hub
	s.CEE.ExtraProps["hub"] = s.Hub

	// --- edge hosts ---------------------------------------------------------
	s.Build = hw.NewNode(fabric, hw.NodeSpec{Name: BuildHost, NICBW: netsim.Gbps(100)})
	s.hostNodes[BuildHost] = s.Build
	s.BuildScratch = fsim.New(fabric, fsim.Config{
		Name: "build-scratch", ReadBW: netsim.GBps(12), WriteBW: netsim.GBps(8),
	})
	s.HopsLogin = hw.NewNode(fabric, hw.NodeSpec{Name: LoginHops, Cluster: "hops", NICBW: netsim.Gbps(100)})
	s.hostNodes[LoginHops] = s.HopsLogin

	// --- edge & policies ----------------------------------------------------
	s.CaL = ingress.NewCaL(net, CaLGateway)

	net.RouteFn = s.route
	net.ReachFn = s.reach
	return s
}

// zone classifies a host name.
func (s *Site) zone(host string) string {
	switch {
	case strings.HasPrefix(host, "hops"):
		return "hops"
	case strings.HasPrefix(host, "eldo"):
		return "eldorado"
	case strings.Contains(host, "goodall"):
		return "goodall"
	case strings.Contains(host, "cee"):
		return "cee"
	case strings.HasPrefix(host, "s3."):
		return "s3"
	case host == HubHost:
		return "internet"
	default:
		return "edge"
	}
}

// hostLink returns the metered uplink for a host, if any.
func (s *Site) hostLink(host string) *netsim.Link {
	if n := s.hostNodes[host]; n != nil {
		return n.NIC
	}
	switch s.zone(host) {
	case "edge":
		return s.edgeLink
	}
	return nil
}

// route returns the link path between hosts for large transfers. The
// slice is shared by every call for the pair, so callers must not modify
// it; netsim copies the routes it keeps.
func (s *Site) route(from, to string) []*netsim.Link {
	k := hostPair{from, to}
	links, ok := s.routes[k]
	if !ok {
		links = s.computeRoute(from, to)
		s.routes[k] = links
	}
	return links
}

// computeRoute builds the link path between hosts from the topology.
func (s *Site) computeRoute(from, to string) []*netsim.Link {
	var links []*netsim.Link
	if l := s.hostLink(from); l != nil {
		links = append(links, l)
	}
	switch s.zone(to) {
	case "s3":
		if s.zone(from) == "hops" {
			links = append(links, s.HopsS3Route)
		}
		links = append(links, s.S3Agg)
	case "internet":
		links = append(links, s.Hub.Egress)
	default:
		if l := s.hostLink(to); l != nil && to != from {
			links = append(links, l)
		}
	}
	return links
}

// reach enforces the air gap: only the build and login hosts see the
// internet; everything on-site is mutually reachable.
func (s *Site) reach(from, toHost string) bool {
	if s.zone(toHost) != "internet" {
		return true
	}
	return from == BuildHost || strings.Contains(from, "login")
}

// FixHopsS3Routing applies the §2.4 network change that improved
// Hops→S3 bandwidth by an order of magnitude.
func (s *Site) FixHopsS3Routing() {
	s.Fabric.SetCapacity("route:hops-s3", netsim.Gbps(100))
}

// S3Client builds a client with site credentials originating at host.
func (s *Site) S3Client(from string) *objstore.Client {
	return &objstore.Client{
		HTTP:      &vhttp.Client{Net: s.Net, From: from},
		Endpoint:  S3Endpoint,
		AccessKey: AccessKey, SecretKey: SecretKey,
		Checksums:   objstore.ChecksumWhenRequired,
		MaxAttempts: 10,
	}
}

// ServiceHost returns the externally reachable gateway host fronting a
// platform's services. Hops reuses the Compute-as-Login service node; the
// other platforms get an equivalent per-platform gateway host. Replica-set
// deployments bind their load-balancing virtual endpoint here.
func ServiceHost(platform string) string {
	if platform == "hops" {
		return CaLGateway
	}
	return platform + "-gw.example.gov"
}

// ProvisionCaL reserves a Hops node as a Compute-as-Login node and routes an
// external gateway port to it (the operator action of §3.3).
func (s *Site) ProvisionCaL(nodeName string, extPort, svcPort int) (*hw.Node, error) {
	n, err := s.Hops.ReserveNode(nodeName, "cal")
	if err != nil {
		return nil, err
	}
	if err := s.CaL.AddRoute(ingress.Route{ExternalPort: extPort, TargetHost: nodeName, TargetPort: svcPort}); err != nil {
		s.Hops.ReleaseReservation(nodeName)
		return nil, err
	}
	return n, nil
}
