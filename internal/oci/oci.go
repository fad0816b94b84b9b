// Package oci models Open Container Initiative images: layered manifests,
// content digests, and image references, plus single-file flattened forms
// (SquashFS/SIF) used to sidestep registry bottlenecks on HPC systems (§2.3).
package oci

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// Layer is one content-addressed image layer.
type Layer struct {
	Digest string
	Size   int64
}

// Config is the runnable configuration embedded in an image, the subset that
// matters to deployment: process identity, environment, entrypoint, and the
// metadata labels the paper proposes for encoding execution expectations.
type Config struct {
	Env        map[string]string
	Entrypoint []string
	Cmd        []string
	WorkingDir string
	User       string // "" means root
	Labels     map[string]string
}

// Image is an OCI image manifest plus config.
type Image struct {
	Repository string // e.g. "vllm/vllm-openai"
	Tag        string // e.g. "v0.9.1"
	Layers     []Layer
	Config     Config
	// Arch marks the accelerator flavor the image was built for
	// ("cuda", "rocm", "oneapi", "cpu").
	Arch string
}

// Ref returns the repository:tag reference.
func (im *Image) Ref() string { return im.Repository + ":" + im.Tag }

// Size returns the total compressed size of all layers.
func (im *Image) Size() int64 {
	var n int64
	for _, l := range im.Layers {
		n += l.Size
	}
	return n
}

// Digest returns the manifest digest: a stable hash over the layer digests
// and config identity, so identical builds dedupe across registries.
func (im *Image) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s\n", im.Repository, im.Tag, im.Arch)
	for _, l := range im.Layers {
		fmt.Fprintf(h, "%s:%d\n", l.Digest, l.Size)
	}
	keys := make([]string, 0, len(im.Config.Env))
	for k := range im.Config.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "env %s=%s\n", k, im.Config.Env[k])
	}
	fmt.Fprintf(h, "entrypoint %v user %q\n", im.Config.Entrypoint, im.Config.User)
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// LayerDigest builds a deterministic layer digest from an identity string.
func LayerDigest(identity string) string {
	sum := sha256.Sum256([]byte(identity))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// NewLayer builds a layer whose digest derives from identity and size.
func NewLayer(identity string, size int64) Layer {
	return Layer{Digest: LayerDigest(fmt.Sprintf("%s|%d", identity, size)), Size: size}
}

// ParseRef splits "repo:tag" (tag defaults to "latest"). Registry host
// prefixes pass through in the repository part.
func ParseRef(ref string) (repo, tag string) {
	// The tag separator is the last colon after the final slash.
	slash := strings.LastIndex(ref, "/")
	colon := strings.LastIndex(ref, ":")
	if colon > slash {
		return ref[:colon], ref[colon+1:]
	}
	return ref, "latest"
}

// Flattened is a single-file image (SIF or SquashFS): the whole filesystem
// squashed into one artifact that parallel filesystems serve efficiently.
type Flattened struct {
	SourceRef    string
	SourceDigest string
	Format       string // "sif" or "sqsh"
	Size         int64
	Config       Config
}

// Flatten converts an image to its single-file form. Squashing recompresses
// the layers; ratio scales the total size (SquashFS typically ~0.9 of the
// summed compressed layers for AI images).
func Flatten(im *Image, format string, ratio float64) *Flattened {
	if ratio <= 0 {
		ratio = 0.9
	}
	return &Flattened{
		SourceRef:    im.Ref(),
		SourceDigest: im.Digest(),
		Format:       format,
		Size:         int64(float64(im.Size()) * ratio),
		Config:       im.Config,
	}
}
