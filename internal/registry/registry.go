// Package registry simulates container registries: per-project GitLab-style
// registries, a Quay-style production registry with security scanning and
// cross-registry mirroring, layer-cached pulls over shared egress bandwidth,
// and flattening of OCI images into single-file SquashFS/SIF artifacts on a
// parallel filesystem.
//
// The bandwidth model reproduces the paper's §2.3 observation: when many
// nodes of a multi-node inference job pull the same image simultaneously, the
// registry egress saturates; a flattened image on the parallel filesystem
// avoids the bottleneck.
package registry

import (
	"fmt"
	"time"

	"repro/internal/fsim"
	"repro/internal/netsim"
	"repro/internal/oci"
	"repro/internal/sim"
)

// ScanReport is the result of a (simulated) security scan of an image.
type ScanReport struct {
	Ref      string
	Digest   string
	Findings int // total advisories
	Critical int
	ScanTime time.Duration
}

// Registry stores images and serves pulls over a metered egress link.
type Registry struct {
	Name    string
	fabric  *netsim.Fabric
	egress  *netsim.Link
	images  map[string]*oci.Image // "repo:tag" → image
	scans   map[string]*ScanReport
	scanner bool
	// UnpackBW is the per-node layer decompression rate (bytes/second); it
	// bounds pull time even with infinite network bandwidth.
	UnpackBW float64
}

// Config describes a registry.
type Config struct {
	Name     string
	EgressBW float64 // bytes/second total egress
	Scanner  bool    // Quay-style scan-on-push
}

// New creates a registry with a fresh egress link on the fabric.
func New(fabric *netsim.Fabric, cfg Config) *Registry {
	if cfg.EgressBW <= 0 {
		cfg.EgressBW = netsim.Gbps(25)
	}
	return &Registry{
		Name:     cfg.Name,
		fabric:   fabric,
		egress:   fabric.AddLink("registry:"+cfg.Name, cfg.EgressBW, time.Millisecond),
		images:   make(map[string]*oci.Image),
		scans:    make(map[string]*ScanReport),
		scanner:  cfg.Scanner,
		UnpackBW: 200e6,
	}
}

// Push stores an image. With scanning enabled a deterministic report is
// generated from the manifest digest.
func (r *Registry) Push(im *oci.Image) {
	r.images[im.Ref()] = im
	if r.scanner {
		d := im.Digest()
		// Derive pseudo-random but stable finding counts from digest bytes.
		findings := int(d[10])%20 + 1
		critical := int(d[12]) % 3
		r.scans[im.Ref()] = &ScanReport{
			Ref: im.Ref(), Digest: d,
			Findings: findings, Critical: critical,
			ScanTime: time.Duration(30+int(d[14])%60) * time.Second,
		}
	}
}

// Resolve returns the image for ref, or nil when absent.
func (r *Registry) Resolve(ref string) *oci.Image {
	repo, tag := oci.ParseRef(ref)
	return r.images[repo+":"+tag]
}

// Scan returns the scan report for ref (nil when unscanned).
func (r *Registry) Scan(ref string) *ScanReport { return r.scans[ref] }

// Mirror copies ref from src, transferring bytes across both registries'
// links; layers already present by digest are skipped (content addressing).
// This is the GitLab→Quay promotion path of §2.3.
func (r *Registry) Mirror(p *sim.Proc, src *Registry, ref string) error {
	im := src.Resolve(ref)
	if im == nil {
		return fmt.Errorf("registry %s: %s not found in %s", r.Name, ref, src.Name)
	}
	have := map[string]bool{}
	for _, existing := range r.images {
		for _, l := range existing.Layers {
			have[l.Digest] = true
		}
	}
	var bytes int64
	for _, l := range im.Layers {
		if !have[l.Digest] {
			bytes += l.Size
		}
	}
	if bytes > 0 {
		r.fabric.Transfer(p, float64(bytes), []*netsim.Link{src.egress, r.egress}, netsim.StartOptions{})
	}
	r.Push(im)
	return nil
}

// LayerCache tracks which layer digests a node already holds, so repeated
// pulls of shared base layers are free (the normal OCI client behaviour).
type LayerCache struct {
	have map[string]bool
}

// NewLayerCache returns an empty cache.
func NewLayerCache() *LayerCache { return &LayerCache{have: make(map[string]bool)} }

// Has reports whether digest is cached.
func (c *LayerCache) Has(digest string) bool { return c.have[digest] }

// Add records digest as cached.
func (c *LayerCache) Add(digest string) { c.have[digest] = true }

// Len reports the number of cached layers.
func (c *LayerCache) Len() int { return len(c.have) }

// Pull fetches ref onto a node: missing layers stream over the registry
// egress and the node's NIC (nodeLink), then decompress at UnpackBW.
// It returns the resolved image.
func (r *Registry) Pull(p *sim.Proc, ref string, nodeLink *netsim.Link, cache *LayerCache) (*oci.Image, error) {
	im := r.Resolve(ref)
	if im == nil {
		return nil, fmt.Errorf("registry %s: manifest unknown: %s", r.Name, ref)
	}
	var missing int64
	for _, l := range im.Layers {
		if cache == nil || !cache.Has(l.Digest) {
			missing += l.Size
		}
	}
	if missing == 0 {
		return im, nil
	}
	route := []*netsim.Link{r.egress}
	if nodeLink != nil {
		route = append(route, nodeLink)
	}
	r.fabric.Transfer(p, float64(missing), route, netsim.StartOptions{})
	if r.UnpackBW > 0 {
		p.Sleep(time.Duration(float64(missing) / r.UnpackBW * float64(time.Second)))
	}
	if cache != nil {
		for _, l := range im.Layers {
			cache.Add(l.Digest)
		}
	}
	return im, nil
}

// FlattenTo pulls ref (via builderLink) and writes the flattened single-file
// image to fs at path, charging the write against the filesystem bandwidth.
// Returns the flattened artifact descriptor.
func (r *Registry) FlattenTo(p *sim.Proc, ref, format string, fs *fsim.FS, path string, builderLink *netsim.Link) (*oci.Flattened, error) {
	im, err := r.Pull(p, ref, builderLink, NewLayerCache())
	if err != nil {
		return nil, err
	}
	flat := oci.Flatten(im, format, 0.9)
	// Squashing is CPU-bound at roughly the unpack rate.
	if r.UnpackBW > 0 {
		p.Sleep(time.Duration(float64(flat.Size) / r.UnpackBW * float64(time.Second)))
	}
	route := fs.WriteRoute(builderLink)
	if len(route) > 0 {
		r.fabric.Transfer(p, float64(flat.Size), route, netsim.StartOptions{})
	}
	if _, err := fs.WriteMeta(path, flat.Size, p.Now()); err != nil {
		return nil, err
	}
	return flat, nil
}
