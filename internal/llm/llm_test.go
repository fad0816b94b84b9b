package llm

import (
	"strings"
	"testing"
)

const gib = int64(1) << 30

func TestScoutMatchesPaperFootprint(t *testing.T) {
	// §3.4: "approximately 200 GiB of model weights, requiring a minimum of
	// four GPUs ... approximately 54 GiB/GPU".
	w := Scout.WeightBytes()
	if w < 195*gib || w > 225*gib {
		t.Fatalf("Scout weights = %d GiB, want ~200-220 GiB", w/gib)
	}
	perGPU := w / 4
	if perGPU < 50*gib || perGPU > 57*gib {
		t.Fatalf("Scout per-GPU = %d GiB over 4 GPUs, want ~54 GiB", perGPU/gib)
	}
}

func TestQuantizedScoutFitsTwoGPUs(t *testing.T) {
	// §3.4.2: the w4a16 quantization fits on two GPUs
	// (vllm.TestPlanCapacityGates plans it there).
	if ScoutW4A16.WeightBytes() >= Scout.WeightBytes()/3 {
		t.Fatal("w4a16 should be under a third of bf16 footprint")
	}
}

func Test405BNeedsSixteenGPUs(t *testing.T) {
	// §3.5: ~1 TiB of weights requiring 16 GPUs (4 × 4 H100;
	// vllm.TestPlanCapacityGates plans it there).
	w := Llama31405B.WeightBytes()
	if w < 750*gib || w > 1024*gib {
		t.Fatalf("405B weights = %d GiB, want 0.75-1 TiB", w/gib)
	}
}

func TestKVBytesPerToken(t *testing.T) {
	// 2 (K,V) × layers × kv-heads × head-dim × 2 bytes.
	if got := Scout.KVBytesPerToken(); got != 2*48*8*128*2 {
		t.Fatalf("Scout KV/token = %d", got)
	}
	if got := Llama31405B.KVBytesPerToken(); got != 2*126*8*128*2 {
		t.Fatalf("405B KV/token = %d", got)
	}
}

func TestScoutContextWindowIsHuge(t *testing.T) {
	// The 10M default context is why --max-model-len is mandatory: KV for a
	// single full-length sequence would dwarf the GPU memory.
	kvForFull := Scout.KVBytesPerToken() * int64(Scout.MaxContextLen)
	if kvForFull < 1000*gib {
		t.Fatalf("full-context KV = %d GiB; expected to exceed any node", kvForFull/gib)
	}
}

func TestActiveVsTotalWeights(t *testing.T) {
	if Scout.ActiveWeightBytes() >= Scout.WeightBytes() {
		t.Fatal("MoE active set must be smaller than total")
	}
	if Llama31405B.ActiveWeightBytes() != Llama31405B.WeightBytes() {
		t.Fatal("dense model active == total")
	}
}

func TestRepoFiles(t *testing.T) {
	files := Scout.RepoFiles()
	var shards int
	var hasLicense, hasConfig, hasGitattrs bool
	var total int64
	for _, f := range files {
		total += f.Size
		switch {
		case strings.HasSuffix(f.Name, ".safetensors"):
			shards++
		case f.Name == "LICENSE":
			hasLicense = true
		case f.Name == "config.json":
			hasConfig = true
		case f.Name == ".gitattributes":
			hasGitattrs = true
		}
	}
	if shards < 40 {
		t.Fatalf("Scout shards = %d, want ~48 × 4.6GB", shards)
	}
	if !hasLicense || !hasConfig || !hasGitattrs {
		t.Fatal("repo must include LICENSE, config.json, .gitattributes")
	}
	if total != Scout.RepoBytes() {
		t.Fatal("RepoBytes mismatch")
	}
	// Shard sizes must sum to the raw weight bytes.
	raw := int64(float64(Scout.ParamsTotal) * Scout.Quant.BytesPerParam())
	var shardTotal int64
	for _, f := range files {
		if strings.HasSuffix(f.Name, ".safetensors") {
			shardTotal += f.Size
		}
	}
	if shardTotal != raw {
		t.Fatalf("shard total %d != raw %d", shardTotal, raw)
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("meta-llama/Llama-4-Scout-17B-16E-Instruct")
	if err != nil || m != Scout {
		t.Fatalf("ByName: %v %v", m, err)
	}
	if _, err := ByName("ghost/model"); err == nil {
		t.Fatal("unknown model should error")
	}
}
