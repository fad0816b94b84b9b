package objstore

import (
	"encoding/xml"
	"fmt"
	"regexp"
	"strings"
	"time"

	"repro/internal/fsim"
	"repro/internal/sim"
	"repro/internal/vhttp"
)

// ChecksumMode mirrors AWS_REQUEST_CHECKSUM_CALCULATION.
type ChecksumMode string

const (
	// ChecksumWhenSupported is the new SDK default: always send integrity
	// checksum headers. Legacy S3 implementations reject these.
	ChecksumWhenSupported ChecksumMode = "when_supported"
	// ChecksumWhenRequired omits the headers unless an operation demands
	// them — the workaround from the paper's Figure 3.
	ChecksumWhenRequired ChecksumMode = "when_required"
)

// Client is the simulated AWS CLI / SDK client.
type Client struct {
	HTTP        *vhttp.Client
	Endpoint    string // e.g. "http://s3.abq.example.gov:9000"
	AccessKey   string
	SecretKey   string
	Checksums   ChecksumMode // default: when_supported (new SDK behaviour)
	MaxAttempts int          // AWS_MAX_ATTEMPTS; retries on 5xx
}

func (c *Client) attempts() int {
	if c.MaxAttempts <= 0 {
		return 1
	}
	return c.MaxAttempts
}

func (c *Client) newRequest(method, path string, query string) *vhttp.Request {
	url := strings.TrimSuffix(c.Endpoint, "/") + path
	if query != "" {
		url += "?" + query
	}
	req := &vhttp.Request{
		Method: method,
		URL:    url,
		Header: map[string]string{
			"X-Amz-Access-Key": c.AccessKey,
			"X-Amz-Secret-Key": c.SecretKey,
		},
	}
	if c.Checksums == "" || c.Checksums == ChecksumWhenSupported {
		req.Header["X-Amz-Sdk-Checksum-Algorithm"] = "CRC32"
	}
	return req
}

func (c *Client) do(p *sim.Proc, req *vhttp.Request) (*vhttp.Response, error) {
	var resp *vhttp.Response
	var err error
	for i := 0; i < c.attempts(); i++ {
		resp, err = c.HTTP.Do(p, req)
		if err != nil {
			// transport error: back off and retry
			p.Sleep(time.Duration(i+1) * time.Second)
			continue
		}
		if resp.Status < 500 {
			return resp, nil
		}
		p.Sleep(time.Duration(i+1) * time.Second)
	}
	return resp, err
}

func apiError(resp *vhttp.Response) error {
	var er errorResult
	if xml.Unmarshal(resp.Body, &er) == nil && er.Code != "" {
		return fmt.Errorf("s3: %s: %s", er.Code, er.Message)
	}
	return fmt.Errorf("s3: http %d", resp.Status)
}

// CreateBucket issues PUT /bucket.
func (c *Client) CreateBucket(p *sim.Proc, bucket string) error {
	resp, err := c.do(p, c.newRequest("PUT", "/"+bucket, ""))
	if err != nil {
		return err
	}
	if resp.Status != 200 {
		return apiError(resp)
	}
	return nil
}

// PutObject uploads size bytes (content optional, for small objects).
func (c *Client) PutObject(p *sim.Proc, bucket, key string, size int64, content []byte) (string, error) {
	req := c.newRequest("PUT", "/"+bucket+"/"+key, "")
	req.Body = content
	req.Size = size
	req.Header["X-Amz-Decoded-Content-Length"] = fmt.Sprintf("%d", size)
	resp, err := c.do(p, req)
	if err != nil {
		return "", err
	}
	if resp.Status != 200 {
		return "", apiError(resp)
	}
	return strings.Trim(resp.Header["ETag"], `"`), nil
}

// GetObject downloads an object, returning its listing info and content.
func (c *Client) GetObject(p *sim.Proc, bucket, key string) (*Object, error) {
	resp, err := c.do(p, c.newRequest("GET", "/"+bucket+"/"+key, ""))
	if err != nil {
		return nil, err
	}
	if resp.Status != 200 {
		return nil, apiError(resp)
	}
	var size int64
	fmt.Sscanf(resp.Header["Content-Length"], "%d", &size)
	return &Object{
		Key: key, Size: size,
		ETag:    strings.Trim(resp.Header["ETag"], `"`),
		Content: resp.Body,
	}, nil
}

// ListObjects lists keys under prefix.
func (c *Client) ListObjects(p *sim.Proc, bucket, prefix string) ([]ObjectInfo, error) {
	resp, err := c.do(p, c.newRequest("GET", "/"+bucket, "list-type=2&prefix="+prefix))
	if err != nil {
		return nil, err
	}
	if resp.Status != 200 {
		return nil, apiError(resp)
	}
	var lr listBucketResult
	if err := xml.Unmarshal(resp.Body, &lr); err != nil {
		return nil, fmt.Errorf("s3: bad list response: %v", err)
	}
	out := make([]ObjectInfo, 0, len(lr.Contents))
	for _, x := range lr.Contents {
		t, _ := time.Parse(time.RFC3339, x.LastModified)
		out = append(out, ObjectInfo{Key: x.Key, Size: x.Size, ETag: strings.Trim(x.ETag, `"`), LastModified: t})
	}
	return out, nil
}

// SyncStats summarizes a sync run.
type SyncStats struct {
	Uploaded     int
	UploadedByte int64
	Skipped      int
	Excluded     int
}

// globToRegexp converts an AWS-CLI-style glob (where * crosses path
// separators) to a regexp.
func globToRegexp(glob string) *regexp.Regexp {
	var b strings.Builder
	b.WriteString("^")
	for _, r := range glob {
		switch r {
		case '*':
			b.WriteString(".*")
		case '?':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString("$")
	return regexp.MustCompile(b.String())
}

// Sync mirrors `aws s3 sync localDir s3://bucket/prefix --exclude ...`:
// uploads files that are missing remotely or differ in size, skips matches,
// and honours exclude globs against the path relative to localDir.
func (c *Client) Sync(p *sim.Proc, fs *fsim.FS, localDir, bucket, prefix string, excludes []string) (SyncStats, error) {
	var stats SyncStats
	var exRe []*regexp.Regexp
	for _, g := range excludes {
		exRe = append(exRe, globToRegexp(g))
	}
	remote, err := c.ListObjects(p, bucket, prefix)
	if err != nil {
		return stats, err
	}
	remoteBySize := map[string]int64{}
	for _, o := range remote {
		remoteBySize[o.Key] = o.Size
	}
	localDir = strings.TrimSuffix(localDir, "/")
	for _, f := range fs.List(localDir) {
		rel := strings.TrimPrefix(strings.TrimPrefix(f.Path, localDir), "/")
		excluded := false
		for _, re := range exRe {
			if re.MatchString(rel) {
				excluded = true
				break
			}
		}
		if excluded {
			stats.Excluded++
			continue
		}
		key := strings.TrimSuffix(prefix, "/")
		if key != "" {
			key += "/"
		}
		key += rel
		if sz, ok := remoteBySize[key]; ok && sz == f.Size {
			stats.Skipped++
			continue
		}
		if _, err := c.PutObject(p, bucket, key, f.Size, f.Content); err != nil {
			return stats, fmt.Errorf("sync %s: %w", key, err)
		}
		stats.Uploaded++
		stats.UploadedByte += f.Size
	}
	return stats, nil
}

// SyncDown mirrors `aws s3 sync s3://bucket/prefix localDir`: downloads
// objects missing locally or differing in size.
func (c *Client) SyncDown(p *sim.Proc, bucket, prefix string, fs *fsim.FS, localDir string) (SyncStats, error) {
	var stats SyncStats
	remote, err := c.ListObjects(p, bucket, prefix)
	if err != nil {
		return stats, err
	}
	localDir = strings.TrimSuffix(localDir, "/")
	cleanPrefix := strings.TrimSuffix(prefix, "/")
	for _, o := range remote {
		rel := strings.TrimPrefix(strings.TrimPrefix(o.Key, cleanPrefix), "/")
		dst := localDir + "/" + rel
		if f := fs.Stat(dst); f != nil && f.Size == o.Size {
			stats.Skipped++
			continue
		}
		obj, err := c.GetObject(p, bucket, o.Key)
		if err != nil {
			return stats, err
		}
		if len(obj.Content) > 0 {
			if _, err := fs.WriteContent(dst, obj.Content, p.Now()); err != nil {
				return stats, err
			}
		} else {
			if _, err := fs.WriteMeta(dst, obj.Size, p.Now()); err != nil {
				return stats, err
			}
		}
		stats.Uploaded++
		stats.UploadedByte += o.Size
	}
	return stats, nil
}
