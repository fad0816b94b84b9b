package vllm

import (
	"time"

	"repro/internal/hw"
	"repro/internal/llm"
)

// Params are the calibrated step-time coefficients for one
// (model, GPU, parallelism) configuration. One engine step advances every
// running decode sequence by a token and pushes p prompt tokens of prefill:
//
//	D(b, p) = Tw + b·Td + p·Tpf
//
// Tw is the pipeline-fill cost of streaming the active weights from HBM
// (memory-bandwidth bound; dominates at batch 1), Td the marginal per-
// sequence decode cost (KV reads, attention, sampling, collectives;
// reciprocal of saturated throughput), and Tpf the per-prefill-token cost.
//
// The calibration anchors come from the paper's figures; calibrated lists
// them.
type Params struct {
	Tw  time.Duration
	Td  time.Duration
	Tpf time.Duration
	// PP is the pipeline depth. With PP stages, a lone sequence pays the
	// full pipeline-fill Tw per token, but at batch b the stages overlap
	// across microbatches and the effective fill cost shrinks toward one
	// stage's share: Tw/PP · (1 + (PP−1)/b).
	PP int
}

// StepTime evaluates D(b, p).
func (pa Params) StepTime(decodeSeqs, prefillTokens int) time.Duration {
	tw := pa.Tw
	if pa.PP > 1 && decodeSeqs > 1 {
		b := float64(decodeSeqs)
		tw = time.Duration(float64(pa.Tw) / float64(pa.PP) * (1 + float64(pa.PP-1)/b))
	}
	return tw + time.Duration(decodeSeqs)*pa.Td + time.Duration(prefillTokens)*pa.Tpf
}

type perfKey struct {
	model string
	gpu   string
	tp    int
	pp    int
}

// calibrated holds the anchor configurations measured in the paper.
//
//	Fig 9:  Scout bf16, TP4 on H100-SXM  → 103 tok/s single, 4313 tok/s max
//	Fig 9:  Scout bf16, TP4 on MI300A    →  48 tok/s single, 1899 tok/s max
//	Fig 10: Scout w4a16, TP2 on H100-SXM → ~1750 tok/s max (80 GiB HBM3)
//	Fig 10: Scout w4a16, TP2 on H100-NVL → ~1900 tok/s max (94 GiB HBM3)
//	Fig 12: 405B bf16, TP4×PP4 on H100   → 12.5 tok/s single, 1256 tok/s max
//
// The constants solve two equations per platform: the single-stream rate
// fixes Tw+Td, and the measured max throughput — evaluated against the
// ShareGPT output-length tail, whose final long sequences decode at small
// batch — fixes Td. The anchor tests in internal/experiments check the
// figures these constants reproduce.
var calibrated = map[perfKey]Params{
	{llm.Scout.Name, hw.H100SXM.Name, 4, 1}: {
		Tw: 9480 * time.Microsecond, Td: 122 * time.Microsecond, Tpf: 12 * time.Microsecond,
	},
	{llm.Scout.Name, hw.MI300A.Name, 4, 1}: {
		Tw: 20410 * time.Microsecond, Td: 290 * time.Microsecond, Tpf: 26 * time.Microsecond,
	},
	{llm.ScoutW4A16.Name, hw.H100SXM.Name, 2, 1}: {
		Tw: 10840 * time.Microsecond, Td: 436 * time.Microsecond, Tpf: 22 * time.Microsecond,
	},
	{llm.ScoutW4A16.Name, hw.H100NVL.Name, 2, 1}: {
		Tw: 10290 * time.Microsecond, Td: 397 * time.Microsecond, Tpf: 21 * time.Microsecond,
	},
	{llm.Llama31405B.Name, hw.H100SXM.Name, 4, 4}: {
		Tw: 79600 * time.Microsecond, Td: 412 * time.Microsecond, Tpf: 95 * time.Microsecond, PP: 4,
	},
}

// interNodeAllReduce is the per-layer latency penalty when tensor
// parallelism spans node boundaries: every transformer layer performs two
// all-reduces that cross the network instead of NVLink.
const interNodeAllReduce = 30 * time.Microsecond

// defaultBWEff is the effective fraction of datasheet HBM bandwidth an
// unoptimized vLLM deployment achieves (used for uncalibrated combinations;
// the calibrated Hops/Scout entry works out to ~0.28).
const defaultBWEff = 0.28

// LookupParams returns step-time coefficients for a configuration. Exact
// calibrated entries are preferred; otherwise coefficients derive from a
// same-(model,gpu) calibration scaled by parallelism, or from first
// principles via the GPU datasheet. gpusPerNode bounds intra-node TP; when
// tp exceeds it, the inter-node all-reduce penalty applies.
func LookupParams(model *llm.ModelSpec, gpu hw.GPUModel, tp, pp, gpusPerNode int) Params {
	if p, ok := calibrated[perfKey{model.Name, gpu.Name, tp, pp}]; ok {
		if gpusPerNode > 0 && tp > gpusPerNode {
			p.Td += time.Duration(model.Layers) * interNodeAllReduce
			p.Tw = p.Tw * 3 / 2
		}
		return p
	}
	// Scale from a calibrated entry for the same model+GPU when available.
	for k, base := range calibrated {
		if k.model == model.Name && k.gpu == gpu.Name {
			scale := float64(k.tp*k.pp) / float64(tp*pp)
			p := Params{
				Tw:  time.Duration(float64(base.Tw) * scale),
				Td:  time.Duration(float64(base.Td) * float64(k.tp) / float64(tp)),
				Tpf: time.Duration(float64(base.Tpf) * scale),
				PP:  pp,
			}
			if gpusPerNode > 0 && tp > gpusPerNode {
				p.Td += time.Duration(model.Layers) * interNodeAllReduce
				p.Tw = p.Tw * 3 / 2
			}
			return p
		}
	}
	// First-principles fallback.
	bw := gpu.HBMBandwidth * defaultBWEff
	tw := float64(model.ActiveWeightBytes()) / (float64(tp*pp) * bw)
	p := Params{
		Tw: time.Duration(tw * float64(time.Second)),
		// Marginal decode cost ~ KV read of a few hundred tokens plus
		// collective overhead; empirically ~1.4% of Tw per sequence at TP4.
		Td:  time.Duration(tw * 0.014 * float64(tp) * float64(time.Second)),
		Tpf: time.Duration(tw * 0.0013 * float64(time.Second)),
		PP:  pp,
	}
	if gpusPerNode > 0 && tp > gpusPerNode {
		p.Td += time.Duration(model.Layers) * interNodeAllReduce
		p.Tw = p.Tw * 3 / 2
	}
	return p
}

// StartupModel captures the fixed costs of bringing a vLLM server to ready
// beyond weight movement: CUDA graph capture / torch.compile warmup and
// distributed initialization. Large models spend tens of minutes here, which
// combined with image pull and weight load reproduces the paper's "30
// minutes or more" (§3.3): ~3 min for an 8B model, ~16 min for Scout,
// ~45 min for 405B over 16 GPUs.
func StartupModel(model *llm.ModelSpec, tp, pp int) (engineInit, warmup time.Duration) {
	engineInit = 45 * time.Second
	if tp*pp > 4 {
		engineInit += time.Duration(tp*pp) * 10 * time.Second // NCCL/Ray mesh
	}
	// Warmup (graph capture across shapes, first-token compilation) scales
	// with parameter count.
	warmup = time.Duration(90+float64(model.ParamsTotal)/1e9*5.5) * time.Second
	return engineInit, warmup
}

// WeightLoadBW is the per-GPU effective rate at which safetensors shards
// deserialize from a cold filesystem into HBM (bounded by host CPU,
// page-cache misses, and PCIe staging).
const WeightLoadBW = 0.35e9 // bytes/second/GPU
