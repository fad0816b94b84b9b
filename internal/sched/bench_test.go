package sched

import (
	"fmt"
	"testing"
)

// BenchmarkPick measures the per-request cost of each replica-selection
// policy as the backend set grows — the gateway's hot path. Rendezvous
// hashing is O(backends) per pick like least-loaded; the benchmark keeps
// the constant honest at fleet-realistic sizes.
func BenchmarkPick(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		cands := backends(n)
		req := &Request{SessionKey: "conversation-42", Class: ClassInteractive}
		b.Run(fmt.Sprintf("round-robin/backends=%d", n), func(b *testing.B) {
			p := &RoundRobin{}
			for i := 0; i < b.N; i++ {
				if p.Pick(cands, req) < 0 {
					b.Fatal("no pick")
				}
			}
		})
		b.Run(fmt.Sprintf("least-loaded/backends=%d", n), func(b *testing.B) {
			p := LeastLoaded{}
			for i := 0; i < b.N; i++ {
				if p.Pick(cands, req) < 0 {
					b.Fatal("no pick")
				}
			}
		})
		b.Run(fmt.Sprintf("session-hash/backends=%d", n), func(b *testing.B) {
			p := &Session{}
			for i := 0; i < b.N; i++ {
				if p.Pick(cands, req) < 0 {
					b.Fatal("no pick")
				}
			}
		})
	}
}

// BenchmarkPrefixSketchPick measures the cache-aware policy's hot path:
// the sketch scan runs per candidate per pick, so it must stay cheap and
// allocation-free at fleet-realistic sketch and backend sizes.
func BenchmarkPrefixSketchPick(b *testing.B) {
	const key = 0xfeedface
	sketch := make([]uint64, 128)
	for i := range sketch {
		sketch[i] = uint64(i + 1)
	}
	sketch[len(sketch)-1] = key // worst case: full linear scan per replica
	for _, n := range []int{4, 16, 64} {
		cands := backends(n)
		req := &Request{SessionKey: "conversation-42", Class: ClassInteractive, PrefixKey: key}
		affine := Affine(cands, req.SessionKey)

		b.Run(fmt.Sprintf("affine-hit/backends=%d", n), func(b *testing.B) {
			for _, c := range cands {
				c.Snap.PrefixSketch = sketch
			}
			p := &Prefix{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if p.Pick(cands, req) != affine {
					b.Fatal("expected the affine fast path")
				}
			}
		})
		b.Run(fmt.Sprintf("sketch-scan/backends=%d", n), func(b *testing.B) {
			for _, c := range cands {
				c.Snap.PrefixSketch = sketch
			}
			cands[affine].Snap.PrefixSketch = nil
			p := &Prefix{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if p.Pick(cands, req) < 0 {
					b.Fatal("no pick")
				}
			}
		})
	}
}

// BenchmarkDescribe measures the scheduling-attribute extraction from an
// OpenAI-style body — paid once per request at the front door.
func BenchmarkDescribe(b *testing.B) {
	body := []byte(`{"model":"chat","session_id":"conversation-42","priority":"interactive","messages":[{"role":"user","content":"hi"}]}`)
	for i := 0; i < b.N; i++ {
		if _, err := Describe(nil, body); err != nil {
			b.Fatal(err)
		}
	}
}
