package sharegpt

import (
	"math/rand"
	"testing"
)

func TestSynthesizeMoments(t *testing.T) {
	d := Synthesize(1, 20000)
	p, o := d.Means()
	// benchmark_serving's filtered ShareGPT averages ~220 prompt / ~190
	// output tokens; the synthetic corpus must land nearby.
	if p < 190 || p > 250 {
		t.Fatalf("mean prompt = %.1f, want ~220", p)
	}
	if o < 160 || o > 220 {
		t.Fatalf("mean output = %.1f, want ~190", o)
	}
	for _, e := range d.Entries {
		if e.PromptTokens < 4 || e.PromptTokens > 2048 || e.OutputTokens < 4 || e.OutputTokens > 2048 {
			t.Fatalf("entry out of clamp range: %+v", e)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize(42, 100)
	b := Synthesize(42, 100)
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatal("same seed produced different datasets")
		}
	}
	c := Synthesize(43, 100)
	same := true
	for i := range a.Entries {
		if a.Entries[i] != c.Entries[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestSampleWithReplacement(t *testing.T) {
	d := Synthesize(1, 50)
	rng := rand.New(rand.NewSource(7))
	s := d.Sample(rng, 500)
	if len(s) != 500 {
		t.Fatalf("sample size = %d", len(s))
	}
}

func TestSampleEmptyDataset(t *testing.T) {
	// Synthesize(seed, 0) is a legal (empty) dataset; sampling from it must
	// yield an empty slice, not panic in rng.Intn(0).
	d := Synthesize(1, 0)
	rng := rand.New(rand.NewSource(7))
	if got := d.Sample(rng, 10); got != nil {
		t.Fatalf("empty dataset sample = %v, want nil", got)
	}
	if got := Synthesize(1, 5).Sample(rng, 0); got != nil {
		t.Fatalf("zero-count sample = %v, want nil", got)
	}
	p, o := d.Means()
	if p != 0 || o != 0 {
		t.Fatalf("empty dataset means = %.1f/%.1f, want 0/0", p, o)
	}
}
