package vllm

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// checkPrefixIndex walks every intrusive list of x — the GPU LRU, the host
// tier's LRU and the free list — and cross-checks them, and the handles of
// the live sequences, against the maps and counters they must agree with:
//   - the GPU LRU holds exactly the cached blocks with no references, so
//     its length is Evictable();
//   - the tier's list holds exactly tier.byHash, within Capacity();
//   - no node is on two lists or twice on one, and free nodes are blank;
//   - each cached block's refs is the number of live references to it
//     (never negative);
//   - spare reference slices are empty and share no array with a live one
//     or each other, and no two live slices share one;
//   - heads is the set of head hashes across both tiers;
//   - KV is conserved: the allocator's used blocks are the live private
//     blocks plus one block per GPU-cached block.
//
// A node recycled while still linked or referenced fails one of these.
// live must hold every sequence that holds KV.
func checkPrefixIndex(x *PrefixIndex, live ...*seqKV) error {
	on := map[*prefixBlock]string{}
	walk := func(list string, l *blockList, owner map[uint64]*prefixBlock) error {
		n, prev := 0, &l.root
		for b := l.root.next; b != &l.root; prev, b = b, b.next {
			if b == nil || b.prev != prev {
				return fmt.Errorf("%s: broken link after %d nodes", list, n)
			}
			if where, dup := on[b]; dup {
				return fmt.Errorf("block %#x is on %s and %s", b.hash, where, list)
			}
			on[b] = list
			if owner[b.hash] != b {
				return fmt.Errorf("%s: block %#x is not the one its map holds", list, b.hash)
			}
			if b.refs != 0 {
				return fmt.Errorf("%s: block %#x has %d refs", list, b.hash, b.refs)
			}
			n++
		}
		if l.root.prev != prev || n != l.len {
			return fmt.Errorf("%s: %d nodes linked, len %d", list, n, l.len)
		}
		return nil
	}
	if err := walk("gpu lru", &x.lru, x.byHash); err != nil {
		return err
	}
	if x.Evictable() != x.lru.len {
		return fmt.Errorf("Evictable() = %d, lru holds %d", x.Evictable(), x.lru.len)
	}
	for b := x.free; b != nil; b = b.next {
		if where, dup := on[b]; dup {
			return fmt.Errorf("free block is also on %s", where)
		}
		on[b] = "free list"
		if b.hash != 0 || b.refs != 0 || b.head || b.prev != nil {
			return fmt.Errorf("free block not blank: %+v", *b)
		}
	}
	heads := map[uint64]struct{}{}
	if t := x.tier; t != nil {
		if err := walk("tier lru", &t.lru, t.byHash); err != nil {
			return err
		}
		if len(t.byHash) != t.Len() || t.Len() > t.Capacity() {
			return fmt.Errorf("tier: %d mapped, %d linked, capacity %d", len(t.byHash), t.Len(), t.Capacity())
		}
		for h, b := range t.byHash {
			if on[b] != "tier lru" {
				return fmt.Errorf("tier maps block %#x, which is on %q", h, on[b])
			}
			if b.head {
				heads[h] = struct{}{}
			}
		}
	}
	refs := map[*prefixBlock]int{}
	arrays := map[**prefixBlock]string{}
	private := 0
	for i, s := range live {
		seq := fmt.Sprintf("sequence %d", i)
		if s.private < 0 {
			return fmt.Errorf("%s holds %d private blocks", seq, s.private)
		}
		private += s.private
		if cap(s.refs) > 0 {
			if owner, shared := arrays[&s.refs[:1][0]]; shared {
				return fmt.Errorf("%s and %s share a reference array", owner, seq)
			}
			arrays[&s.refs[:1][0]] = seq
		}
		for _, b := range s.refs {
			if x.byHash[b.hash] != b {
				return fmt.Errorf("%s references block %#x, which is not GPU-cached (on %q)", seq, b.hash, on[b])
			}
			refs[b]++
		}
	}
	for i, spare := range x.spare {
		if len(spare) != 0 || cap(spare) == 0 {
			return fmt.Errorf("spare slice %d: len %d cap %d", i, len(spare), cap(spare))
		}
		if owner, shared := arrays[&spare[:1][0]]; shared {
			return fmt.Errorf("spare slice %d shares its array with %q", i, owner)
		}
		arrays[&spare[:1][0]] = "a spare"
	}
	for h, b := range x.byHash {
		switch {
		case b.refs < 0:
			return fmt.Errorf("block %#x has %d refs", h, b.refs)
		case b.refs != refs[b]:
			return fmt.Errorf("block %#x counts %d refs, sequences hold %d", h, b.refs, refs[b])
		case b.refs == 0 && on[b] != "gpu lru":
			return fmt.Errorf("unreferenced block %#x is on %q, not the gpu lru", h, on[b])
		case b.refs > 0 && (on[b] != "" || b.next != nil):
			return fmt.Errorf("referenced block %#x is linked (on %q)", h, on[b])
		}
		if b.head {
			heads[h] = struct{}{}
		}
	}
	if !maps.Equal(heads, x.heads) {
		return fmt.Errorf("heads: index publishes %d, the tiers hold %d", len(x.heads), len(heads))
	}
	if used := x.kv.UsedBlocks(); used != private+x.CachedBlocks() {
		return fmt.Errorf("kv uses %d blocks, sequences hold %d private and the index caches %d",
			used, private, x.CachedBlocks())
	}
	return nil
}

// TestPrefixCacheAllocBudget: a warm prefix cache allocates nothing per
// admission, whatever the admission does to it — evict, demote into the
// host tier, promote back, drop the tier's oldest block, register new
// blocks, release references. Hashing a prompt allocates only its key
// slice.
func TestPrefixCacheAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted by -race instrumentation")
	}
	// Three 3-block chains through a 6-block GPU cache and a 3-block tier:
	// each admission promotes part of its chain back, demotes the others'
	// coldest blocks and overflows the tier.
	kv := NewKVCache(6, 16)
	idx := NewPrefixIndex(kv)
	idx.EnableHostTier(3)
	var chains [][]uint64
	for seed := uint64(1); seed <= 3; seed++ {
		chains = append(chains, chainBlocks(tokenStream(seed, 3*16), 16))
	}
	warm := false
	seq := &seqKV{}
	cycle := func() {
		before := idx.Stats()
		for _, hashes := range chains {
			hit := idx.Acquire(seq, hashes, len(hashes))
			need := len(hashes) - hit + 1 // private blocks + decode slot
			if !idx.EnsureFree(need) || seq.allocate(kv, need) != nil {
				t.Fatalf("cannot admit %d blocks", need)
			}
			idx.Register(seq, hashes, hit)
			seq.drop(kv)
			idx.Release(seq)
		}
		// Every steady cycle, measured or warm-up, takes all four paths.
		if st := idx.Stats(); warm && (st.PrefixEvictions == before.PrefixEvictions || st.TierDemotions == before.TierDemotions ||
			st.TierPromotions == before.TierPromotions || st.HostDrops == before.HostDrops) {
			t.Fatalf("a cycle must evict, demote, promote and drop: %+v -> %+v", before, st)
		}
	}
	cycle() // every node, reference slice and map slot now exists
	warm = true
	for run := 0; run < 20; run++ {
		if allocs := testing.AllocsPerRun(1, cycle); allocs != 0 {
			t.Fatalf("run %d: a steady admission cycle allocated %.0f times, want 0", run, allocs)
		}
	}
	if err := checkPrefixIndex(idx); err != nil {
		t.Fatal(err)
	}

	msgs := []ChatMessage{bigSystemPrompt(), {Role: "user", Content: SynthesizeText(300)}}
	if allocs := testing.AllocsPerRun(50, func() { ChatPromptHashes(16, msgs) }); allocs != 1 {
		t.Errorf("ChatPromptHashes: %.1f allocs, want 1 (the key slice)", allocs)
	}
	text := SynthesizeText(500)
	if allocs := testing.AllocsPerRun(50, func() { TextPromptHashes(16, text) }); allocs != 1 {
		t.Errorf("TextPromptHashes: %.1f allocs, want 1 (the key slice)", allocs)
	}
}

// engineOutcomeDigest is the FNV-64a digest of TestEngineKVConservation's
// per-request outcomes. A change that declares a behaviour change updates it
// in its own diff, as the example goldens are.
const engineOutcomeDigest = "55338b15c8038602"

// TestEngineKVConservation runs a seeded engine through shared-prefix
// traffic on a GPU cache small enough to force cache eviction and
// preemption, with a host tier and a mix of batch and interactive
// requests carrying TTFT targets, and checks KV ownership after every
// step: used blocks are the running sequences' private blocks plus the
// cached ones, each cached block counts exactly the running sequences that
// reference it, no running sequence holds more blocks than its prompt,
// generated tokens and next token need, and waiting sequences hold
// nothing. Every request must finish, and the run's outcomes must match
// engineOutcomeDigest.
func TestEngineKVConservation(t *testing.T) {
	const seed = 1
	cfg := hopsScoutConfig()
	cfg.MaxModelLen = 4096
	cfg.NumGPUBlocksOverride = 300
	cfg.CPUOffloadBlocks = 64
	se := sim.NewEngine(seed)
	e, err := New(se, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// check runs on the engine's process, where a failing test must not
	// stop the goroutine: it reports, and the loop ends.
	check := func() error {
		var live []*seqKV
		private := 0
		refs := map[*prefixBlock]int{}
		for _, s := range e.running {
			live = append(live, &s.kv)
			private += s.kv.private
			for _, b := range s.kv.refs {
				refs[b]++
			}
			tokens := s.req.Prompt + s.req.Generated + 1
			if held, need := s.kv.private+len(s.kv.refs), e.kv.BlocksForTokens(tokens); held > need {
				return fmt.Errorf("%s holds %d blocks, more than its %d tokens need (%d)", s.req.ID, held, tokens, need)
			}
		}
		if used, cached := e.KV().UsedBlocks(), e.Prefix().CachedBlocks(); used != private+cached {
			return fmt.Errorf("%d blocks used, running sequences hold %d private and %d are cached", used, private, cached)
		}
		for h, b := range e.idx.byHash {
			if b.refs != refs[b] {
				return fmt.Errorf("block %#x counts %d refs, running sequences hold %d", h, b.refs, refs[b])
			}
		}
		for _, s := range e.wq.seqs {
			if s.kv.private != 0 || len(s.kv.refs) != 0 {
				return fmt.Errorf("waiting %s holds %d private blocks and %d refs", s.req.ID, s.kv.private, len(s.kv.refs))
			}
		}
		return checkPrefixIndex(e.idx, live...)
	}
	// The engine loop of Run, checked after every step.
	steps := 0
	e.loop = se.Go("vllm-engine", func(p *sim.Proc) {
		for !e.crashed {
			if len(e.wq.seqs) == 0 && len(e.running) == 0 {
				e.idle.Reset()
				p.Wait(&e.idle)
				continue
			}
			e.step(p)
			steps++
			if err := check(); err != nil {
				t.Errorf("step %d: %v", steps, err)
				return
			}
		}
	})

	// Four 30-block system prompts; most requests add a suffix of their
	// own. A bare system prompt fills whole blocks, so its last block is
	// prefilled privately even when cached and then deduplicated.
	rng := rand.New(rand.NewSource(seed))
	var reqs []*Request
	se.Go("load", func(p *sim.Proc) {
		for i := 0; i < 120; i++ {
			p.Sleep(time.Duration(rng.Intn(60)) * time.Millisecond)
			fam := uint64(1 + rng.Intn(4))
			suffix := 16 + rng.Intn(160)
			if rng.Intn(4) == 0 {
				suffix = 0
			}
			tokens := append(tokenStream(fam, 30*16), tokenStream(uint64(1000+i), suffix)...)
			o := SubmitOptions{
				Prompt: len(tokens), PromptHashes: chainBlocks(tokens, 16),
				MaxNew: 8 + rng.Intn(40), Class: "interactive", TTFTTarget: 150 * time.Millisecond,
			}
			if rng.Intn(3) == 0 {
				o.MaxNew, o.Class, o.TTFTTarget = 200+rng.Intn(400), "batch", 2*time.Second
			}
			reqs = append(reqs, e.SubmitOpts(o))
		}
	})
	se.Run()
	if t.Failed() {
		return
	}

	h := fnv.New64a()
	for _, r := range reqs {
		if r.Err != nil {
			t.Errorf("%s failed: %v", r.ID, r.Err)
		}
		fmt.Fprintf(h, "%s %d %d %d %d %t\n", r.ID, r.Generated, r.CachedTokens,
			r.FirstToken.Sub(sim.Epoch), r.Finished.Sub(sim.Epoch), r.Err != nil)
	}
	if kv, idx := e.KV(), e.Prefix(); kv.UsedBlocks() != idx.CachedBlocks() || idx.CachedBlocks() != idx.Evictable() {
		t.Fatalf("after drain: used %d, cached %d, evictable %d", kv.UsedBlocks(), idx.CachedBlocks(), idx.Evictable())
	}
	st := e.Stats()
	if st.PrefixEvictions == 0 || st.Preemptions == 0 || st.TierDemotions == 0 || st.TierPromotions == 0 {
		t.Fatalf("traffic must evict, preempt, demote and promote: %+v", st)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != engineOutcomeDigest {
		t.Errorf("outcome digest %s, want %s: the engine's steps changed what %d requests got. "+
			"A declared behaviour change updates engineOutcomeDigest in its own diff, as it does the goldens.",
			got, engineOutcomeDigest, len(reqs))
	}
	t.Logf("%d steps: %d evictions, %d preemptions, %d demotions, %d promotions over %d requests",
		steps, st.PrefixEvictions, st.Preemptions, st.TierDemotions, st.TierPromotions, len(reqs))
}
