// Package sharegpt supplies the benchmark workload of §3.4: sampled
// real-world conversation requests in the shape of the ShareGPT_V3 dataset.
//
// Since the actual dataset cannot ship with the repository, Synthesize
// generates a statistically equivalent corpus — log-normal prompt and
// response token lengths whose moments match the public dataset after
// vLLM benchmark_serving's filtering (mean prompt ≈ 220 tokens, mean output
// ≈ 190 tokens, both clamped to [4, 2048]).
package sharegpt

import (
	"fmt"
	"math"
	"math/rand"
)

// Entry is one benchmark request: prompt length and target output length in
// tokens (benchmark_serving uses the dataset's recorded response length as
// the generation budget).
type Entry struct {
	PromptTokens int
	OutputTokens int
}

// Dataset is an ordered pool of entries to sample from.
type Dataset struct {
	Name    string
	Entries []Entry
}

// Log-normal parameters calibrated so post-clamp means land at ~220 prompt /
// ~190 output tokens (see TestSynthesizeMoments). Exported so workload
// cohorts can reuse the calibration as their default length distributions.
const (
	PromptMu    = 5.07
	PromptSigma = 0.80
	OutputMu    = 4.89
	OutputSigma = 0.85
	MinTokens   = 4
	MaxTokens   = 2048
)

// Clamp bounds a sampled token length to the dataset's [MinTokens, MaxTokens]
// window, exactly as benchmark_serving's filtering does.
func Clamp(v float64) int {
	n := int(v)
	if n < MinTokens {
		return MinTokens
	}
	if n > MaxTokens {
		return MaxTokens
	}
	return n
}

// Synthesize builds a deterministic synthetic dataset of n entries.
func Synthesize(seed int64, n int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Name: fmt.Sprintf("sharegpt-synthetic-%d", seed)}
	for i := 0; i < n; i++ {
		p := math.Exp(PromptMu + PromptSigma*rng.NormFloat64())
		o := math.Exp(OutputMu + OutputSigma*rng.NormFloat64())
		d.Entries = append(d.Entries, Entry{PromptTokens: Clamp(p), OutputTokens: Clamp(o)})
	}
	return d
}

// Sample draws n entries (with replacement) using rng, matching
// benchmark_serving's random sampling of the corpus. An empty dataset
// (Synthesize(seed, 0), or a filtered-out corpus) yields an empty slice
// rather than panicking in rng.Intn(0).
func (d *Dataset) Sample(rng *rand.Rand, n int) []Entry {
	if len(d.Entries) == 0 || n <= 0 {
		return nil
	}
	out := make([]Entry, n)
	for i := range out {
		out[i] = d.Entries[rng.Intn(len(d.Entries))]
	}
	return out
}

// Means returns the average prompt and output lengths.
func (d *Dataset) Means() (prompt, output float64) {
	if len(d.Entries) == 0 {
		return 0, 0
	}
	var ps, os float64
	for _, e := range d.Entries {
		ps += float64(e.PromptTokens)
		os += float64(e.OutputTokens)
	}
	n := float64(len(d.Entries))
	return ps / n, os / n
}
