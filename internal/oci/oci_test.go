package oci

import (
	"strings"
	"testing"
)

func TestParseRef(t *testing.T) {
	cases := []struct{ in, repo, tag string }{
		{"vllm/vllm-openai:v0.9.1", "vllm/vllm-openai", "v0.9.1"},
		{"alpine/git", "alpine/git", "latest"},
		{"registry.example.gov:5000/team/app:1.2", "registry.example.gov:5000/team/app", "1.2"},
		{"rocm/vllm:rocm6.4.1_vllm_0.9.1_20250702", "rocm/vllm", "rocm6.4.1_vllm_0.9.1_20250702"},
	}
	for _, c := range cases {
		repo, tag := ParseRef(c.in)
		if repo != c.repo || tag != c.tag {
			t.Errorf("ParseRef(%q) = %q,%q want %q,%q", c.in, repo, tag, c.repo, c.tag)
		}
	}
}

func TestDigestStability(t *testing.T) {
	imgs := Catalog()
	a := imgs[0].Digest()
	b := imgs[0].Digest()
	if a != b {
		t.Fatal("digest not stable")
	}
	if !strings.HasPrefix(a, "sha256:") {
		t.Fatalf("digest format: %s", a)
	}
	// Distinct images → distinct digests.
	seen := map[string]string{}
	for _, im := range imgs {
		if prev, dup := seen[im.Digest()]; dup {
			t.Fatalf("digest collision between %s and %s", prev, im.Ref())
		}
		seen[im.Digest()] = im.Ref()
	}
}

func TestDigestSensitivity(t *testing.T) {
	im := Catalog()[0]
	base := im.Digest()
	im2 := *im
	im2.Config = im.Config
	im2.Tag = "v0.9.2"
	if im2.Digest() == base {
		t.Fatal("tag change should alter digest")
	}
	im3 := *im
	im3.Layers = append([]Layer(nil), im.Layers...)
	im3.Layers[0] = NewLayer("other", im.Layers[0].Size)
	if im3.Digest() == base {
		t.Fatal("layer change should alter digest")
	}
}

func TestImageSize(t *testing.T) {
	im := &Image{Layers: []Layer{NewLayer("a", 100), NewLayer("b", 50)}}
	if im.Size() != 150 {
		t.Fatalf("Size = %d, want 150", im.Size())
	}
}

func TestFlatten(t *testing.T) {
	im := Catalog()[0]
	f := Flatten(im, "sif", 0.9)
	if f.Size != int64(float64(im.Size())*0.9) {
		t.Fatalf("flattened size = %d", f.Size)
	}
	if f.SourceDigest != im.Digest() || f.Format != "sif" {
		t.Fatalf("flattened metadata wrong: %+v", f)
	}
	if f.Config.Entrypoint[0] != im.Config.Entrypoint[0] {
		t.Fatal("flatten must preserve config")
	}
	fd := Flatten(im, "sqsh", 0) // default ratio
	if fd.Size != int64(float64(im.Size())*0.9) {
		t.Fatalf("default ratio size = %d", fd.Size)
	}
}

func TestCatalogShape(t *testing.T) {
	imgs := Catalog()
	byRepo := map[string]*Image{}
	for _, im := range imgs {
		byRepo[im.Repository] = im
	}
	cuda := byRepo["vllm/vllm-openai"]
	rocm := byRepo["rocm/vllm"]
	if cuda == nil || rocm == nil {
		t.Fatal("catalog missing vLLM images")
	}
	if cuda.Arch != "cuda" || rocm.Arch != "rocm" {
		t.Fatal("arch labels wrong")
	}
	gib := int64(1) << 30
	if cuda.Size() < 5*gib || cuda.Size() > 20*gib {
		t.Fatalf("CUDA vLLM image size unrealistic: %d", cuda.Size())
	}
	if rocm.Size() <= cuda.Size() {
		t.Fatal("ROCm image should be larger than CUDA build")
	}
	if cuda.Config.User != "" {
		t.Fatal("vLLM image must expect to run as root (drives the Apptainer crash scenario)")
	}
}
