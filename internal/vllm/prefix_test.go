package vllm

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// tokenStream builds a deterministic per-token hash stream of n tokens from
// a seed, where streams with the same seed share every token.
func tokenStream(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = fnvUint(seed, uint64(i))
	}
	return out
}

func TestPrefixAcquireShareRelease(t *testing.T) {
	kv := NewKVCache(100, 16)
	idx := NewPrefixIndex(kv)
	hashes := chainBlocks(tokenStream(1, 64), 16) // 4 full blocks
	a, b, c := &seqKV{}, &seqKV{}, &seqKV{}

	// First sequence: nothing cached yet — 4 misses, all blocks private,
	// then promoted by Register.
	if hit := idx.Acquire(a, hashes, 4); hit != 0 {
		t.Fatalf("cold acquire hit %d, want 0", hit)
	}
	if err := a.allocate(kv, 5); err != nil { // 4 prompt blocks + decode slot
		t.Fatal(err)
	}
	idx.Register(a, hashes, 0)
	if a.private != 1 || idx.CachedBlocks() != 4 || len(a.refs) != 4 {
		t.Fatalf("after register: private=%d cached=%d refs=%d", a.private, idx.CachedBlocks(), len(a.refs))
	}

	// Second sequence shares the chain: 4 hits, zero extra prompt blocks.
	if hit := idx.Acquire(b, hashes, 4); hit != 4 {
		t.Fatalf("warm acquire hit %d, want 4", hit)
	}
	if st := idx.Stats(); st.PrefixHits != 4 || st.PrefixMisses != 4 {
		t.Fatalf("stats = %+v, want 4 hits / 4 misses", st)
	}
	if idx.Evictable() != 0 {
		t.Fatal("referenced blocks must not be evictable")
	}

	// Releases deref; only when the last reference drops do blocks join
	// the evictable population — and they stay resident.
	idx.Release(a)
	a.drop(kv)
	if idx.Evictable() != 0 {
		t.Fatalf("blocks still referenced by b: evictable = %d", idx.Evictable())
	}
	idx.Release(b)
	if idx.Evictable() != 4 || idx.CachedBlocks() != 4 {
		t.Fatalf("after final release: evictable=%d cached=%d", idx.Evictable(), idx.CachedBlocks())
	}
	if kv.FreeBlocks() != 96 {
		t.Fatalf("free = %d, want 96 (4 blocks resident as cache)", kv.FreeBlocks())
	}

	// A third sequence still hits the resident-but-unreferenced chain.
	if hit := idx.Acquire(c, hashes, 4); hit != 4 {
		t.Fatalf("post-release acquire hit %d, want 4", hit)
	}
	if idx.Evictable() != 0 {
		t.Fatal("re-acquired blocks must leave the evictable population")
	}
	idx.Release(c)
}

func TestPrefixEvictionIsLRUAndTailFirst(t *testing.T) {
	kv := NewKVCache(8, 16)
	idx := NewPrefixIndex(kv)
	old := chainBlocks(tokenStream(1, 64), 16)   // 4 blocks
	young := chainBlocks(tokenStream(2, 64), 16) // 4 blocks

	admit := func(seq *seqKV, hashes []uint64) {
		t.Helper()
		hit := idx.Acquire(seq, hashes, len(hashes))
		need := len(hashes) - hit
		if !idx.EnsureFree(need) {
			t.Fatalf("cannot free %d blocks", need)
		}
		if err := seq.allocate(kv, need); err != nil {
			t.Fatal(err)
		}
		idx.Register(seq, hashes, hit)
	}
	a, b := &seqKV{}, &seqKV{}
	admit(a, old)
	idx.Release(a)
	admit(b, young)
	idx.Release(b)
	if idx.CachedBlocks() != 8 || kv.FreeBlocks() != 0 {
		t.Fatalf("cache not full: cached=%d free=%d", idx.CachedBlocks(), kv.FreeBlocks())
	}

	// Making room for 2 blocks must evict from the OLD chain (LRU), tail
	// block first, leaving its head prefix reusable.
	if !idx.EnsureFree(2) {
		t.Fatal("eviction failed with 8 unreferenced blocks")
	}
	if st := idx.Stats(); st.PrefixEvictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.PrefixEvictions)
	}
	if got := idx.Lookup(old, 4); got != 2 {
		t.Fatalf("old chain lookup = %d blocks, want 2 (tail evicted first)", got)
	}
	if got := idx.Lookup(young, 4); got != 4 {
		t.Fatalf("young chain lookup = %d blocks, want 4 (untouched)", got)
	}
}

func TestPrefixRegisterDedupesConcurrentChains(t *testing.T) {
	kv := NewKVCache(20, 16)
	idx := NewPrefixIndex(kv)
	hashes := chainBlocks(tokenStream(7, 32), 16) // 2 blocks
	a, b := &seqKV{}, &seqKV{}

	// a computes and registers the chain.
	idx.Acquire(a, hashes, 1) // capped acquire: block 1 not eligible
	a.allocate(kv, 3)
	idx.Register(a, hashes, 0)
	// b acquired under the same cap before a registered — simulate by
	// acquiring with limit 1 (hit) and allocating block 1 privately, then
	// registering: the duplicate must be dropped, not double-cached.
	if hit := idx.Acquire(b, hashes, 1); hit != 1 {
		t.Fatalf("b acquire = %d, want 1", hit)
	}
	b.allocate(kv, 2) // private copy of block 1 + decode slot
	idx.Register(b, hashes, 1)
	if idx.CachedBlocks() != 2 {
		t.Fatalf("cached = %d, want 2 (no duplicate block)", idx.CachedBlocks())
	}
	if b.private != 1 {
		t.Fatalf("b private = %d, want 1 (duplicate freed)", b.private)
	}
	if len(b.refs) != 2 {
		t.Fatalf("b refs = %d, want 2", len(b.refs))
	}
	if err := checkPrefixIndex(idx, a, b); err != nil {
		t.Fatal(err)
	}
	idx.Release(a)
	a.drop(kv)
	idx.Release(b)
	b.drop(kv)
	if kv.FreeBlocks()+idx.CachedBlocks() != kv.TotalBlocks() {
		t.Fatalf("conservation: free=%d cached=%d total=%d", kv.FreeBlocks(), idx.CachedBlocks(), kv.TotalBlocks())
	}
}

func TestPrefixAbortRollsBackStats(t *testing.T) {
	kv := NewKVCache(8, 16)
	idx := NewPrefixIndex(kv)
	hashes := chainBlocks(tokenStream(3, 64), 16) // 4 blocks
	a, b := &seqKV{}, &seqKV{}
	hit := idx.Acquire(a, hashes, 4)
	a.allocate(kv, 5)
	idx.Register(a, hashes, hit)
	idx.Release(a)
	a.drop(kv)
	before := idx.Stats()

	// A blocked admission retried every engine step: each attempt acquires
	// and aborts. The counters must not drift — only successful admissions
	// count toward hit/miss telemetry.
	for i := 0; i < 50; i++ {
		h := idx.Acquire(b, hashes, 4)
		idx.Abort(b, h, 4)
	}
	if got := idx.Stats(); got != before {
		t.Fatalf("aborted attempts moved the counters: %+v -> %+v", before, got)
	}
	if len(b.refs) != 0 || idx.Evictable() != idx.CachedBlocks() {
		t.Fatalf("abort leaked references: refs=%d evictable=%d cached=%d",
			len(b.refs), idx.Evictable(), idx.CachedBlocks())
	}
}

// TestPrefixIndexInvariants drives random admit/release traffic over a
// small space of shared token streams and checks conservation (free +
// private + cached == total), refcount sanity, and that eviction never
// touches a referenced block.
func TestPrefixIndexInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		total := 8 + rng.Intn(120)
		kv := NewKVCache(total, 16)
		idx := NewPrefixIndex(kv)
		var live []*seqKV
		// A handful of stream families; prompts are random-length prefixes
		// of a family, so chains share blocks across sequences.
		families := make([][]uint64, 4)
		for i := range families {
			families[i] = tokenStream(uint64(i+1), 16*10)
		}
		for op := 0; op < 200; op++ {
			if rng.Intn(3) != 0 || len(live) == 0 {
				// Admit.
				fam := families[rng.Intn(len(families))]
				blocks := 1 + rng.Intn(10)
				hashes := chainBlocks(fam[:blocks*16], 16)
				s := &seqKV{}
				hit := idx.Acquire(s, hashes, len(hashes))
				need := len(hashes) - hit + 1 // + decode slot
				idx.EnsureFree(need)
				if need > kv.FreeBlocks() {
					idx.Release(s)
					if err := checkPrefixIndex(idx, live...); err != nil {
						t.Logf("seed %d op %d: %v", seed, op, err)
						return false
					}
					continue
				}
				if err := s.allocate(kv, need); err != nil {
					t.Logf("seed %d: allocate with %d free: %v", seed, kv.FreeBlocks(), err)
					return false
				}
				idx.Register(s, hashes, hit)
				live = append(live, s)
			} else {
				// Release a random live sequence.
				i := rng.Intn(len(live))
				live[i].drop(kv)
				idx.Release(live[i])
				live = append(live[:i], live[i+1:]...)
			}
			if err := checkPrefixIndex(idx, live...); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
			private := 0
			refs := 0
			for _, s := range live {
				private += s.private
				refs += len(s.refs)
			}
			if kv.FreeBlocks()+private+idx.CachedBlocks() != kv.TotalBlocks() {
				t.Logf("seed %d op %d: conservation: free=%d private=%d cached=%d total=%d",
					seed, op, kv.FreeBlocks(), private, idx.CachedBlocks(), kv.TotalBlocks())
				return false
			}
			if idx.Evictable() > idx.CachedBlocks() {
				t.Logf("seed %d: evictable %d > cached %d", seed, idx.Evictable(), idx.CachedBlocks())
				return false
			}
			if refs < idx.CachedBlocks()-idx.Evictable() {
				// Every non-evictable cached block is referenced at least once.
				t.Logf("seed %d: refs %d < referenced blocks %d", seed, refs, idx.CachedBlocks()-idx.Evictable())
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPromptHashesSharePrefixes(t *testing.T) {
	turn1 := []ChatMessage{{Role: "user", Content: "tell me about the cluster, in detail, with history"}}
	turn2 := append(append([]ChatMessage{}, turn1...),
		ChatMessage{Role: "assistant", Content: "the cluster has 48 nodes of four H100 GPUs each and a Lustre filesystem"},
		ChatMessage{Role: "user", Content: "and how do I get an account on it?"})
	h1 := ChatPromptHashes(16, turn1)
	h2 := ChatPromptHashes(16, turn2)
	if len(h2) <= len(h1) {
		t.Fatalf("longer conversation must have more blocks: %d vs %d", len(h1), len(h2))
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("block %d diverged despite shared message prefix", i)
		}
	}
	// Different content diverges from the first block.
	other := ChatPromptHashes(16, []ChatMessage{{Role: "user", Content: "tell me about the OTHER cluster, in detail, with history"}})
	if len(other) > 0 && len(h1) > 0 && other[0] == h1[0] {
		t.Fatal("different prompts must not share block keys")
	}
	// Raw-text prompts share literal prefixes too. The diverging spans are
	// long enough to land inside a full block (only full blocks get keys).
	ta := TextPromptHashes(16, string(make([]byte, 200))+strings.Repeat("a", 100))
	tb := TextPromptHashes(16, string(make([]byte, 200))+strings.Repeat("b", 100))
	if ta[0] != tb[0] {
		t.Fatal("texts sharing a 200-byte prefix must share the first block")
	}
	if ta[len(ta)-1] == tb[len(tb)-1] {
		t.Fatal("diverging tails must produce different final block keys")
	}
}

func TestEnginePrefixCacheHitSpeedsUpTTFT(t *testing.T) {
	run := func(disable bool) (first, second *Request) {
		cfg := hopsScoutConfig()
		cfg.NoPrefixCache = disable
		se, e := newEngine(t, cfg)
		msgs := []ChatMessage{{Role: "user", Content: SynthesizeText(2000)}}
		prompt := EstimateTokens(msgs[0].Content) + 4
		hashes := ChatPromptHashes(e.Config().BlockSize, msgs)
		se.Go("client", func(p *sim.Proc) {
			first = e.SubmitOpts(SubmitOptions{Prompt: prompt, MaxNew: 8, PromptHashes: hashes})
			p.Wait(first.Done())
			second = e.SubmitOpts(SubmitOptions{Prompt: prompt, MaxNew: 8, PromptHashes: hashes})
			p.Wait(second.Done())
		})
		se.Run()
		return first, second
	}

	first, second := run(false)
	if first.Err != nil || second.Err != nil {
		t.Fatal(first.Err, second.Err)
	}
	if first.CachedTokens != 0 {
		t.Fatalf("cold request served %d cached tokens", first.CachedTokens)
	}
	if second.CachedTokens == 0 {
		t.Fatal("identical re-submission hit nothing")
	}
	if second.TTFT() >= first.TTFT() {
		t.Fatalf("cached TTFT %v not below cold TTFT %v", second.TTFT(), first.TTFT())
	}

	_, secondOff := run(true)
	if secondOff.CachedTokens != 0 {
		t.Fatal("NoPrefixCache engine must not serve cached tokens")
	}
	if second.TTFT() >= secondOff.TTFT() {
		t.Fatalf("prefix cache should beat the uncached engine: %v vs %v", second.TTFT(), secondOff.TTFT())
	}
}

// TestEngineNoPrefixCacheKeepsIndexEmpty: with caching off the engine's
// index stays empty even when requests carry block keys and a host tier is
// configured: no tier attaches, no sketch is published, nothing is cached
// and no prompt token is served from cache.
func TestEngineNoPrefixCacheKeepsIndexEmpty(t *testing.T) {
	cfg := hopsScoutConfig()
	cfg.NoPrefixCache = true
	cfg.CPUOffloadBlocks = 64
	se, e := newEngine(t, cfg)
	msgs := []ChatMessage{{Role: "user", Content: SynthesizeText(500)}}
	prompt := EstimateTokens(msgs[0].Content) + 4
	hashes := ChatPromptHashes(e.Config().BlockSize, msgs)
	var reqs []*Request
	se.Go("client", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			r := e.SubmitOpts(SubmitOptions{Prompt: prompt, MaxNew: 4, PromptHashes: hashes})
			reqs = append(reqs, r)
			p.Wait(r.Done())
		}
	})
	se.Run()
	for _, r := range reqs {
		if r.Err != nil || r.CachedTokens != 0 {
			t.Fatalf("%s: err %v, %d cached tokens", r.ID, r.Err, r.CachedTokens)
		}
	}
	if idx := e.Prefix(); idx.HostTier() != nil || idx.CachedBlocks() != 0 {
		t.Fatalf("index not empty: tier %v, %d cached blocks", idx.HostTier(), idx.CachedBlocks())
	}
	snap := e.Telemetry()
	if snap.KVBlocksCached != 0 || len(snap.PrefixSketch) != 0 || snap.KVHostBlocksTotal != 0 || snap.KVBlocksUsed != 0 {
		t.Fatalf("telemetry reports cache state: %+v", snap)
	}
	if st := e.Stats(); st.PrefixStats != (PrefixStats{}) {
		t.Fatalf("prefix counters moved: %+v", st.PrefixStats)
	}
}

func TestEngineStatsAndTelemetryCarryPrefixCounters(t *testing.T) {
	se, e := newEngine(t, hopsScoutConfig())
	msgs := []ChatMessage{{Role: "user", Content: SynthesizeText(500)}}
	prompt := EstimateTokens(msgs[0].Content) + 4
	hashes := ChatPromptHashes(e.Config().BlockSize, msgs)
	se.Go("client", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			r := e.SubmitOpts(SubmitOptions{Prompt: prompt, MaxNew: 4, PromptHashes: hashes, Class: "interactive"})
			p.Wait(r.Done())
		}
	})
	se.Run()
	st := e.Stats()
	if st.PrefixHits == 0 || st.CachedTokens == 0 {
		t.Fatalf("stats carry no cache activity: %+v", st)
	}
	snap := e.Telemetry()
	if snap.PrefixHits != st.PrefixHits || snap.CachedTokens != st.CachedTokens {
		t.Fatalf("telemetry disagrees with stats: %+v vs %+v", snap, st)
	}
	if snap.PrefixHitRate() <= 0 {
		t.Fatal("hit rate should be positive after warm re-submissions")
	}
	// After the last request finishes, its prompt blocks stay resident as
	// reclaimable cache: used but evictable.
	if snap.KVBlocksCached == 0 || snap.KVBlocksUsed < snap.KVBlocksCached {
		t.Fatalf("cache residency not visible: %+v", snap)
	}
	if snap.KVPressure() != 0 {
		t.Fatalf("idle engine should report zero KV pressure, got %g", snap.KVPressure())
	}
}

func BenchmarkPrefixAcquireRegister(b *testing.B) {
	kv := NewKVCache(1<<16, 16)
	idx := NewPrefixIndex(kv)
	hashes := chainBlocks(tokenStream(1, 16*128), 16) // 128-block prompt
	b.ReportAllocs()
	seq := &seqKV{}
	for i := 0; i < b.N; i++ {
		hit := idx.Acquire(seq, hashes, len(hashes))
		seq.allocate(kv, len(hashes)-hit+1)
		idx.Register(seq, hashes, hit)
		seq.drop(kv)
		idx.Release(seq)
	}
}

func BenchmarkChatPromptHashes(b *testing.B) {
	msgs := []ChatMessage{
		{Role: "system", Content: SynthesizeText(200)},
		{Role: "user", Content: SynthesizeText(800)},
		{Role: "assistant", Content: SynthesizeText(300)},
		{Role: "user", Content: SynthesizeText(100)},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ChatPromptHashes(16, msgs)
	}
}

// TestSketchIsTheSmallestHeadsWhateverTheOrder: an index holding more heads
// than the sketch publishes picks the same ones, the smallest keys in
// ascending order, however the heads arrived; and publishing into a buffer
// with room allocates nothing.
func TestSketchIsTheSmallestHeadsWhateverTheOrder(t *testing.T) {
	const heads = 300
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, heads)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	build := func(order []int) *PrefixIndex {
		kv := NewKVCache(heads, 16)
		idx := NewPrefixIndex(kv)
		for _, i := range order {
			seq := &seqKV{}
			if err := seq.allocate(kv, 1); err != nil {
				t.Fatal(err)
			}
			idx.Register(seq, keys[i:i+1], 0)
			idx.Release(seq)
		}
		return idx
	}
	a, b := build(rng.Perm(heads)), build(rng.Perm(heads))

	want := slices.Clone(keys)
	slices.Sort(want)
	want = want[:maxSketch]
	for _, idx := range []*PrefixIndex{a, b} {
		if got := idx.AppendSketch(nil, maxSketch); !slices.Equal(got, want) {
			t.Fatalf("sketch = %v\nwant the %d smallest heads %v", got, maxSketch, want)
		}
	}
	// Appending keeps dst's prefix; a bound past the head count publishes
	// every head.
	if got := a.AppendSketch([]uint64{42}, 3); !slices.Equal(got, append([]uint64{42}, want[:3]...)) {
		t.Fatalf("AppendSketch onto a prefix = %v", got)
	}
	if got := a.AppendSketch(nil, 2*heads); len(got) != heads || !slices.IsSorted(got) {
		t.Fatalf("unbounded sketch: %d heads, sorted %v", len(got), slices.IsSorted(got))
	}
	if raceEnabled {
		return // alloc counts are distorted by -race instrumentation
	}
	buf := make([]uint64, 0, maxSketch)
	if allocs := testing.AllocsPerRun(20, func() { buf = a.AppendSketch(buf[:0], maxSketch) }); allocs != 0 {
		t.Fatalf("AppendSketch into a sized buffer: %.1f allocs/op, want 0", allocs)
	}
}

// TestPrefixFillAllocBudget: while a fresh cache fills and no evicted
// node is there to reuse, the index allocates only to grow: the slab by
// append, the block table by doubling. Registering 4,096 fresh blocks into
// an empty index costs at most fillAllocBudget allocations, where one per
// block would cost 4,096. The heads map and the sequence's reference slice
// are grown beforehand: their growth is not the index's cost.
func TestPrefixFillAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted by -race instrumentation")
	}
	const blocks, fillAllocBudget = 4096, 16
	hashes := chainBlocks(tokenStream(1, blocks*16), 16)
	// AllocsPerRun fills once to warm up and once measured, each into an
	// index of its own.
	var idx []*PrefixIndex
	var seqs []*seqKV
	for range 2 {
		kv := NewKVCache(blocks, 16)
		x := NewPrefixIndex(kv)
		for _, h := range hashes {
			x.heads[h] = struct{}{}
		}
		clear(x.heads)
		s := &seqKV{refs: make([]blockID, 0, blocks)}
		if err := s.allocate(kv, blocks); err != nil {
			t.Fatal(err)
		}
		idx, seqs = append(idx, x), append(seqs, s)
	}
	run := 0
	allocs := testing.AllocsPerRun(1, func() {
		idx[run].Register(seqs[run], hashes, 0)
		run++
	})
	for i, x := range idx {
		if x.CachedBlocks() != blocks || len(seqs[i].refs) != blocks {
			t.Fatalf("index %d caches %d blocks, the sequence references %d, want %d",
				i, x.CachedBlocks(), len(seqs[i].refs), blocks)
		}
		if err := checkPrefixIndex(x, seqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if allocs > fillAllocBudget {
		t.Fatalf("filling %d blocks: %.0f allocs, budget %d (slab and table growth)", blocks, allocs, fillAllocBudget)
	}
	t.Logf("filling %d blocks: %.0f allocs (budget %d)", blocks, allocs, fillAllocBudget)
}

// TestPrefixRetainedHeapAllocBudget: a full cache under the LRU's churn
// keeps at most 48 bytes of heap per cached block: its slab node, its
// table slot and the slack both keep for growth. The index fills 32,768
// blocks through eight cache-fulls of 64-block chains of random keys, so
// every cache-full after the first evicts the one before it block by
// block.
func TestPrefixRetainedHeapAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are distorted by -race instrumentation")
	}
	const blocks, chain, budget = 32768, 64, 48.0
	hashes := make([]uint64, chain)
	rng := rand.New(rand.NewSource(1))
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc

	kv := NewKVCache(blocks, 16)
	idx := NewPrefixIndex(kv)
	seq := &seqKV{}
	for range 8 * blocks / chain {
		for i := range hashes {
			hashes[i] = rng.Uint64()
		}
		if !idx.EnsureFree(chain) || seq.allocate(kv, chain) != nil {
			t.Fatalf("cannot admit a %d-block chain", chain)
		}
		idx.Register(seq, hashes, 0)
		idx.Release(seq)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if idx.CachedBlocks() != blocks || idx.Stats().PrefixEvictions != 7*blocks {
		t.Fatalf("%d blocks cached after %d evictions, want %d after %d",
			idx.CachedBlocks(), idx.Stats().PrefixEvictions, blocks, 7*blocks)
	}
	perBlock := float64(int64(ms.HeapAlloc)-int64(before)) / blocks
	runtime.KeepAlive(idx)
	if perBlock > budget {
		t.Fatalf("the index retains %.1f heap bytes per cached block, budget %.0f", perBlock, budget)
	}
	t.Logf("the index retains %.1f heap bytes per cached block (budget %.0f)", perBlock, budget)
}
