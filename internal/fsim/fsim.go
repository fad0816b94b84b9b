// Package fsim simulates filesystems: site-wide parallel filesystems
// (Lustre-like), node-local NVMe, and container tmpfs.
//
// Files carry sizes and digests rather than real bytes (models are hundreds
// of GiB); small files (configs, licenses) may carry literal content. Read
// and write bandwidth is modeled by dedicated netsim links so concurrent
// readers contend — the mechanism behind multi-node model-load times.
package fsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path"
	"sort"
	"strings"
	"time"

	"repro/internal/netsim"
)

// File is one entry in a simulated filesystem.
type File struct {
	Path    string
	Size    int64
	Digest  string // content hash; synthesized from path+size when no content
	Content []byte // only for small files (configs, manifests, licenses)
	Mode    string // "rw" or "ro"
	ModTime time.Time
}

// FS is a simulated filesystem with capacity and shared bandwidth.
type FS struct {
	Name     string
	Capacity int64 // bytes; 0 = unlimited
	// Networked marks filesystems reached over the node NIC (parallel
	// filesystems); node-local storage (NVMe, tmpfs, PVCs) is not.
	Networked bool

	files map[string]*File
	used  int64

	fabric *netsim.Fabric
	read   *netsim.Link // aggregate read bandwidth
	write  *netsim.Link // aggregate write bandwidth
}

// Config describes a filesystem to create.
type Config struct {
	Name      string
	Capacity  int64   // bytes, 0 = unlimited
	ReadBW    float64 // bytes/second aggregate
	WriteBW   float64 // bytes/second aggregate
	Latency   time.Duration
	Networked bool // reads/writes traverse the client node's NIC
}

// New creates a filesystem whose I/O bandwidth is provided by fresh links on
// the fabric. fabric may be nil for pure-metadata filesystems (no timed I/O).
func New(fabric *netsim.Fabric, cfg Config) *FS {
	fs := &FS{
		Name:      cfg.Name,
		Capacity:  cfg.Capacity,
		Networked: cfg.Networked,
		files:     make(map[string]*File),
		fabric:    fabric,
	}
	if fabric != nil {
		if cfg.ReadBW <= 0 {
			cfg.ReadBW = netsim.GBps(1)
		}
		if cfg.WriteBW <= 0 {
			cfg.WriteBW = cfg.ReadBW
		}
		fs.read = fabric.AddLink("fs:"+cfg.Name+":read", cfg.ReadBW, cfg.Latency)
		fs.write = fabric.AddLink("fs:"+cfg.Name+":write", cfg.WriteBW, cfg.Latency)
	}
	return fs
}

func clean(p string) string {
	p = path.Clean("/" + p)
	return p
}

// SynthDigest derives a stable pseudo-digest from a name and size, used for
// files whose content is never materialized.
func SynthDigest(name string, size int64) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d", name, size)))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// WriteMeta stores a file described only by size (content not materialized).
// It fails when capacity would be exceeded.
func (fs *FS) WriteMeta(p string, size int64, modTime time.Time) (*File, error) {
	return fs.put(&File{Path: clean(p), Size: size, Digest: SynthDigest(clean(p), size), Mode: "rw", ModTime: modTime})
}

// WriteContent stores a small file with literal bytes.
func (fs *FS) WriteContent(p string, content []byte, modTime time.Time) (*File, error) {
	sum := sha256.Sum256(content)
	return fs.put(&File{
		Path: clean(p), Size: int64(len(content)),
		Digest:  "sha256:" + hex.EncodeToString(sum[:]),
		Content: append([]byte(nil), content...),
		Mode:    "rw", ModTime: modTime,
	})
}

func (fs *FS) put(f *File) (*File, error) {
	old := fs.files[f.Path]
	delta := f.Size
	if old != nil {
		delta -= old.Size
	}
	if fs.Capacity > 0 && fs.used+delta > fs.Capacity {
		return nil, fmt.Errorf("fsim: %s: no space left (capacity %d, used %d, need %d)", fs.Name, fs.Capacity, fs.used, delta)
	}
	fs.used += delta
	fs.files[f.Path] = f
	return f, nil
}

// Stat returns the file at p, or nil.
func (fs *FS) Stat(p string) *File { return fs.files[clean(p)] }

// Exists reports whether p exists.
func (fs *FS) Exists(p string) bool { return fs.Stat(p) != nil }

// Remove deletes p. Removing a missing file is an error.
func (fs *FS) Remove(p string) error {
	p = clean(p)
	f := fs.files[p]
	if f == nil {
		return fmt.Errorf("fsim: %s: %s: no such file", fs.Name, p)
	}
	fs.used -= f.Size
	delete(fs.files, p)
	return nil
}

// List returns files under prefix sorted by path.
func (fs *FS) List(prefix string) []*File {
	prefix = clean(prefix)
	var out []*File
	for p, f := range fs.files {
		if prefix == "/" || p == prefix || strings.HasPrefix(p, prefix+"/") {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// TotalSize sums the sizes of files under prefix.
func (fs *FS) TotalSize(prefix string) int64 {
	var n int64
	for _, f := range fs.List(prefix) {
		n += f.Size
	}
	return n
}

// ReadRoute returns the links a reader at the far end of extra traverses.
func (fs *FS) ReadRoute(extra ...*netsim.Link) []*netsim.Link {
	if fs.read == nil {
		return extra
	}
	return append([]*netsim.Link{fs.read}, extra...)
}

// WriteRoute returns the links a writer traverses.
func (fs *FS) WriteRoute(extra ...*netsim.Link) []*netsim.Link {
	if fs.write == nil {
		return extra
	}
	return append([]*netsim.Link{fs.write}, extra...)
}
