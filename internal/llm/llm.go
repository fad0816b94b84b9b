// Package llm catalogs the language models the paper deploys and the
// capacity arithmetic that governs serving them: weight footprints,
// KV-cache bytes per token, and minimum GPU counts.
//
// The numbers reproduce the paper's statements: Llama 4 Scout is ~200 GiB of
// bf16 weights (~54 GiB/GPU across four H100s), its 4-bit quantized variant
// fits on two GPUs, and Llama 3.1 405B needs ~0.8–1 TiB of weights and 16
// GPUs (4 nodes × 4 GPUs) on the Hops platform.
package llm

import (
	"fmt"
)

// Quantization identifies a weight format.
type Quantization string

const (
	BF16  Quantization = "bf16"
	W4A16 Quantization = "w4a16"
)

// BytesPerParam returns the storage cost of one parameter, including the
// scale/zero-point overhead for quantized formats and non-quantized
// embeddings (which is why w4a16 is ~0.6 B/param rather than 0.5).
func (q Quantization) BytesPerParam() float64 {
	switch q {
	case W4A16:
		return 0.6
	default:
		return 2.0
	}
}

// ModelSpec describes a servable model.
type ModelSpec struct {
	Name         string // Hugging Face identifier
	Short        string // display name
	Quant        Quantization
	ParamsTotal  int64 // all parameters (MoE total)
	ParamsActive int64 // parameters touched per token (MoE active)

	Layers  int
	KVHeads int
	HeadDim int
	Hidden  int

	// MaxContextLen is the model's native maximum (Scout: 10M tokens),
	// which deployments must usually reduce via --max-model-len.
	MaxContextLen int

	// ShardBytes is the size of one safetensors shard in its repository.
	ShardBytes int64
}

// weightOverhead covers embeddings, norms, and serving runtime buffers on
// top of raw parameter bytes; calibrated so Scout lands at the paper's
// ~54 GiB/GPU over four GPUs.
const weightOverhead = 1.06

// RuntimeOverheadBytes is per-GPU memory consumed by the serving runtime
// beyond weights and KV cache: CUDA context, NCCL buffers, and activation
// workspace. It is why Scout's ~215 GiB of weights genuinely needs four
// 80 GiB GPUs rather than three.
const RuntimeOverheadBytes = int64(6) << 30

// WeightBytes is the total weight footprint when loaded for serving.
func (m *ModelSpec) WeightBytes() int64 {
	return int64(float64(m.ParamsTotal) * m.Quant.BytesPerParam() * weightOverhead)
}

// ActiveWeightBytes is the bytes streamed from HBM per generated token
// (the MoE active set; equal to WeightBytes for dense models).
func (m *ModelSpec) ActiveWeightBytes() int64 {
	return int64(float64(m.ParamsActive) * m.Quant.BytesPerParam() * weightOverhead)
}

// KVBytesPerToken is the KV-cache cost of one token across all devices:
// K and V, per layer, per KV head, per head dim, in 16-bit precision.
func (m *ModelSpec) KVBytesPerToken() int64 {
	return int64(2 * m.Layers * m.KVHeads * m.HeadDim * 2)
}

// FileSpec is one file in a model's repository.
type FileSpec struct {
	Name string
	Size int64
}

// RepoFiles lists the model repository contents: weight shards plus the
// config/tokenizer/LICENSE files whose capture motivates the paper's
// whole-repo git-clone download flow (§3.1).
func (m *ModelSpec) RepoFiles() []FileSpec {
	shard := m.ShardBytes
	if shard == 0 {
		shard = 4600e6
	}
	total := int64(float64(m.ParamsTotal) * m.Quant.BytesPerParam())
	var files []FileSpec
	n := int((total + shard - 1) / shard)
	for i := 1; i <= n; i++ {
		sz := shard
		if i == n {
			sz = total - int64(n-1)*shard
		}
		files = append(files, FileSpec{
			Name: fmt.Sprintf("model-%05d-of-%05d.safetensors", i, n),
			Size: sz,
		})
	}
	files = append(files,
		FileSpec{Name: "config.json", Size: 4 << 10},
		FileSpec{Name: "generation_config.json", Size: 1 << 10},
		FileSpec{Name: "tokenizer.json", Size: 17 << 20},
		FileSpec{Name: "tokenizer_config.json", Size: 50 << 10},
		FileSpec{Name: "LICENSE", Size: 12 << 10},
		FileSpec{Name: "README.md", Size: 40 << 10},
		FileSpec{Name: ".gitattributes", Size: 2 << 10},
	)
	return files
}

// RepoBytes is the total size of the model repository (weights dominate).
func (m *ModelSpec) RepoBytes() int64 {
	var n int64
	for _, f := range m.RepoFiles() {
		n += f.Size
	}
	return n
}

// The model catalog.
var (
	// Scout is Llama 4 Scout: 17B active / 109B total parameters,
	// 16 experts, 10M-token context window.
	Scout = &ModelSpec{
		Name: "meta-llama/Llama-4-Scout-17B-16E-Instruct", Short: "Llama-4-Scout",
		Quant:       BF16,
		ParamsTotal: 109e9, ParamsActive: 17e9,
		Layers: 48, KVHeads: 8, HeadDim: 128, Hidden: 5120,
		MaxContextLen: 10_000_000,
	}
	// ScoutW4A16 is RedHatAI's 4-bit quantization of Scout, deployable on
	// two GPUs (the Fig 10 configuration).
	ScoutW4A16 = &ModelSpec{
		Name: "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16", Short: "Llama-4-Scout-w4a16",
		Quant:       W4A16,
		ParamsTotal: 109e9, ParamsActive: 17e9,
		Layers: 48, KVHeads: 8, HeadDim: 128, Hidden: 5120,
		MaxContextLen: 10_000_000,
	}
	// Llama31405B is the dense 405B model of Fig 12 (4 nodes × 4 GPUs).
	Llama31405B = &ModelSpec{
		Name: "meta-llama/Llama-3.1-405B-Instruct", Short: "Llama-3.1-405B",
		Quant:       BF16,
		ParamsTotal: 405e9, ParamsActive: 405e9,
		Layers: 126, KVHeads: 8, HeadDim: 128, Hidden: 16384,
		MaxContextLen: 131_072,
	}
	// Llama318B is a small dense model used by quickstart examples and
	// fast integration tests.
	Llama318B = &ModelSpec{
		Name: "meta-llama/Llama-3.1-8B-Instruct", Short: "Llama-3.1-8B",
		Quant:       BF16,
		ParamsTotal: 8e9, ParamsActive: 8e9,
		Layers: 32, KVHeads: 8, HeadDim: 128, Hidden: 4096,
		MaxContextLen: 131_072,
	}
	// Qwen25Coder7B is a small code model; paired with Llama318B it forms
	// the heterogeneous chat+code fleets of the multi-model serving path.
	Qwen25Coder7B = &ModelSpec{
		Name: "Qwen/Qwen2.5-Coder-7B-Instruct", Short: "Qwen2.5-Coder-7B",
		Quant:       BF16,
		ParamsTotal: 7.6e9, ParamsActive: 7.6e9,
		Layers: 28, KVHeads: 4, HeadDim: 128, Hidden: 3584,
		MaxContextLen: 131_072,
	}
)

// Catalog returns all known models.
func Catalog() []*ModelSpec {
	return []*ModelSpec{Scout, ScoutW4A16, Llama31405B, Llama318B, Qwen25Coder7B}
}

// ByName resolves a model by its full name.
func ByName(name string) (*ModelSpec, error) {
	for _, m := range Catalog() {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("llm: unknown model %q", name)
}
