// Package objstore simulates the site-wide S3 object storage service of
// §2.4: bucketed key/value objects behind a REST API, multi-site asynchronous
// replication, metered bandwidth, and the AWS-client checksum negotiation
// quirk the paper calls out (AWS_REQUEST_CHECKSUM_CALCULATION=when_required).
package objstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Object is one stored value.
type Object struct {
	Key          string
	Size         int64
	ETag         string
	Content      []byte // populated only for small objects
	Metadata     map[string]string
	LastModified time.Time
}

// ObjectInfo is the listing view of an object.
type ObjectInfo struct {
	Key          string
	Size         int64
	ETag         string
	LastModified time.Time
}

type bucket struct {
	name    string
	objects map[string]*Object
}

// Credential is an access/secret key pair the server accepts.
type Credential struct {
	AccessKey string
	SecretKey string
}

// Server is one S3 site (e.g. Albuquerque or Livermore).
type Server struct {
	Name string
	eng  *sim.Engine

	buckets map[string]*bucket
	creds   map[string]string // access → secret

	// LegacyChecksums marks a server implementation that predates the
	// SDK's new default integrity checksums; such servers reject requests
	// carrying x-amz-sdk-checksum-algorithm headers.
	LegacyChecksums bool

	// replication
	replicas []*replTarget
}

// replicationDelay is how long after a write its async replication to
// each target starts.
const replicationDelay = 30 * time.Second

type replTarget struct {
	dst   *Server
	route []*netsim.Link
	fab   *netsim.Fabric
}

// NewServer creates an empty S3 site.
func NewServer(eng *sim.Engine, name string) *Server {
	return &Server{
		Name:    name,
		eng:     eng,
		buckets: make(map[string]*bucket),
		creds:   make(map[string]string),
	}
}

// AddCredential registers an accepted key pair.
func (s *Server) AddCredential(c Credential) { s.creds[c.AccessKey] = c.SecretKey }

// authOK validates a key pair.
func (s *Server) authOK(access, secret string) bool {
	want, ok := s.creds[access]
	return ok && want == secret
}

// CreateBucket makes a bucket; creating an existing bucket is a no-op
// (matching S3's behaviour for same-owner re-creates).
func (s *Server) CreateBucket(name string) {
	if s.buckets[name] == nil {
		s.buckets[name] = &bucket{name: name, objects: make(map[string]*Object)}
	}
}

// ETagFor derives the deterministic ETag for object content identity.
func ETagFor(key string, size int64, content []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|", key, size)
	h.Write(content)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// Put stores an object. Replication to peer sites is scheduled
// asynchronously.
func (s *Server) Put(bucketName, key string, size int64, content []byte, meta map[string]string) (*Object, error) {
	b := s.buckets[bucketName]
	if b == nil {
		return nil, fmt.Errorf("objstore: NoSuchBucket: %s", bucketName)
	}
	if content != nil {
		size = int64(len(content))
	}
	obj := &Object{
		Key: key, Size: size,
		ETag:         ETagFor(key, size, content),
		Content:      append([]byte(nil), content...),
		Metadata:     meta,
		LastModified: s.eng.Now(),
	}
	b.objects[key] = obj
	s.scheduleReplication(bucketName, obj)
	return obj, nil
}

// Get fetches an object.
func (s *Server) Get(bucketName, key string) (*Object, error) {
	b := s.buckets[bucketName]
	if b == nil {
		return nil, fmt.Errorf("objstore: NoSuchBucket: %s", bucketName)
	}
	o := b.objects[key]
	if o == nil {
		return nil, fmt.Errorf("objstore: NoSuchKey: %s/%s", bucketName, key)
	}
	return o, nil
}

// Delete removes an object (S3 semantics: deleting a missing key succeeds).
func (s *Server) Delete(bucketName, key string) error {
	b := s.buckets[bucketName]
	if b == nil {
		return fmt.Errorf("objstore: NoSuchBucket: %s", bucketName)
	}
	delete(b.objects, key)
	return nil
}

// List returns objects under prefix, sorted by key.
func (s *Server) List(bucketName, prefix string) ([]ObjectInfo, error) {
	b := s.buckets[bucketName]
	if b == nil {
		return nil, fmt.Errorf("objstore: NoSuchBucket: %s", bucketName)
	}
	var out []ObjectInfo
	for k, o := range b.objects {
		if strings.HasPrefix(k, prefix) {
			out = append(out, ObjectInfo{Key: k, Size: o.Size, ETag: o.ETag, LastModified: o.LastModified})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// TotalBytes sums object sizes under a bucket prefix.
func (s *Server) TotalBytes(bucketName, prefix string) int64 {
	infos, err := s.List(bucketName, prefix)
	if err != nil {
		return 0
	}
	var n int64
	for _, o := range infos {
		n += o.Size
	}
	return n
}

// ReplicateTo configures async replication to dst across the given WAN
// route; the paper's objects "can be automatically duplicated across sites".
func (s *Server) ReplicateTo(dst *Server, fab *netsim.Fabric, route []*netsim.Link) {
	s.replicas = append(s.replicas, &replTarget{dst: dst, route: route, fab: fab})
}

func (s *Server) scheduleReplication(bucketName string, obj *Object) {
	for _, rt := range s.replicas {
		rt := rt
		s.eng.Schedule(replicationDelay, func() {
			s.eng.Go("s3-repl", func(p *sim.Proc) {
				if len(rt.route) > 0 && obj.Size > 0 {
					rt.fab.Transfer(p, float64(obj.Size), rt.route, netsim.StartOptions{})
				}
				rt.dst.CreateBucket(bucketName)
				dstB := rt.dst.buckets[bucketName]
				cp := *obj
				cp.LastModified = s.eng.Now()
				dstB.objects[obj.Key] = &cp
			})
		})
	}
}
