package vllm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKVBasicAllocateRelease(t *testing.T) {
	kv := NewKVCache(100, 16)
	if kv.FreeBlocks() != 100 || kv.TotalBlocks() != 100 {
		t.Fatal("initial state wrong")
	}
	a, b := &seqKV{}, &seqKV{}
	if err := a.allocate(kv, 30); err != nil {
		t.Fatal(err)
	}
	if kv.FreeBlocks() != 70 || a.private != 30 {
		t.Fatalf("free=%d holding=%d", kv.FreeBlocks(), a.private)
	}
	if err := b.allocate(kv, 80); err == nil || b.private != 0 {
		t.Fatalf("over-allocation must fail: err=%v holding=%d", err, b.private)
	}
	if kv.FreeBlocks() != 70 {
		t.Fatal("failed allocation must not consume blocks")
	}
	if err := kv.Allocate(-1); err == nil {
		t.Fatal("negative allocation must fail")
	}
	a.drop(kv)
	if kv.FreeBlocks() != 100 || a.private != 0 {
		t.Fatalf("release did not return blocks: free=%d holding=%d", kv.FreeBlocks(), a.private)
	}
	a.drop(kv)
	if kv.FreeBlocks() != 100 {
		t.Fatal("double release should free nothing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("releasing past capacity must panic")
		}
	}()
	kv.Release(1)
}

func TestBlocksForTokens(t *testing.T) {
	kv := NewKVCache(10, 16)
	cases := map[int]int{0: 0, 1: 1, 15: 1, 16: 1, 17: 2, 32: 2, 33: 3}
	for tokens, want := range cases {
		if got := kv.BlocksForTokens(tokens); got != want {
			t.Errorf("BlocksForTokens(%d) = %d, want %d", tokens, got, want)
		}
	}
}

func TestLeak(t *testing.T) {
	kv := NewKVCache(100, 16)
	a := &seqKV{}
	a.allocate(kv, 50)
	leaked := kv.Leak(30)
	if leaked != 30 || kv.TotalBlocks() != 70 || kv.FreeBlocks() != 20 {
		t.Fatalf("leak: %d total=%d free=%d", leaked, kv.TotalBlocks(), kv.FreeBlocks())
	}
	// Leak clamps at free.
	if got := kv.Leak(1000); got != 20 {
		t.Fatalf("clamped leak = %d, want 20", got)
	}
	a.drop(kv)
	if kv.FreeBlocks() != 50 || kv.TotalBlocks() != 50 {
		t.Fatalf("after release: free=%d total=%d", kv.FreeBlocks(), kv.TotalBlocks())
	}
}

// TestKVInvariants drives random allocate/grow/release/leak traffic and
// checks conservation: free + Σheld == total at every step, never negative,
// and failed operations change nothing.
func TestKVInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		total := 1 + rng.Intn(500)
		kv := NewKVCache(total, 16)
		seqs := make([]seqKV, 5)
		for op := 0; op < 300; op++ {
			s := &seqs[rng.Intn(len(seqs))]
			switch rng.Intn(4) {
			case 0:
				n := rng.Intn(total/2 + 1)
				free := kv.FreeBlocks()
				err := s.allocate(kv, n)
				if (err == nil) != (n <= free) {
					t.Logf("seed %d: Allocate(%d) err=%v with free=%d", seed, n, err, free)
					return false
				}
			case 1:
				// Grow to cover a token count, as decode does.
				if need := kv.BlocksForTokens(rng.Intn(total*16)) - s.private; need > 0 {
					s.allocate(kv, need)
				}
			case 2:
				s.drop(kv)
			case 3:
				kv.Leak(rng.Intn(3))
			}
			held := 0
			for i := range seqs {
				held += seqs[i].private
			}
			if kv.FreeBlocks()+held != kv.TotalBlocks() {
				t.Logf("seed %d: conservation violated: free=%d held=%d total=%d",
					seed, kv.FreeBlocks(), held, kv.TotalBlocks())
				return false
			}
			if kv.FreeBlocks() < 0 || kv.TotalBlocks() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
