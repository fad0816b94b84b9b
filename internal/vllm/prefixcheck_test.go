package vllm

import (
	"fmt"
	"maps"
	"testing"
)

// checkPrefixIndex walks every intrusive list of x — the GPU LRU, the host
// tier's LRU and the free list — and cross-checks them against the maps
// and counters they must agree with:
//   - the GPU LRU holds exactly the cached blocks with no references, so
//     its length is Evictable();
//   - the tier's list holds exactly tier.byHash, within Capacity();
//   - no node is on two lists or twice on one, and free nodes are blank;
//   - each cached block's refs is the number of sequence references to it
//     (never negative), so the Refs(seq) sum to the refs;
//   - spare reference slices are empty and share no array with a live one;
//   - heads is the set of head hashes across both tiers;
//   - the KV cache holds one prefixOwner block per GPU-cached block.
//
// A node recycled while still linked or referenced fails one of these.
func checkPrefixIndex(x *PrefixIndex) error {
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
	for seq, blocks := range x.seqs {
		if len(blocks) == 0 {
			return fmt.Errorf("sequence %s has an empty reference entry", seq)
		}
		if owner, shared := arrays[&blocks[:1][0]]; shared {
			return fmt.Errorf("sequences %s and %s share a reference array", owner, seq)
		}
		arrays[&blocks[:1][0]] = seq
		for _, b := range blocks {
			if x.byHash[b.hash] != b {
				return fmt.Errorf("sequence %s references block %#x, which is not GPU-cached (on %q)", seq, b.hash, on[b])
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
	if held := x.kv.Holding(prefixOwner); held != len(x.byHash) {
		return fmt.Errorf("kv holds %d cache blocks, index maps %d", held, len(x.byHash))
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
	cycle := func() {
		before := idx.Stats()
		for _, hashes := range chains {
			hit := idx.Acquire("seq", hashes, len(hashes))
			need := len(hashes) - hit + 1 // private blocks + decode slot
			if !idx.EnsureFree(need) || kv.Allocate("seq", need) != nil {
				t.Fatalf("cannot admit %d blocks", need)
			}
			idx.Register("seq", hashes, hit)
			kv.Release("seq")
			idx.Release("seq")
		}
		// Every steady cycle, measured or warm-up, takes all four paths.
		if st := idx.Stats(); warm && (st.Evictions == before.Evictions || st.Demotions == before.Demotions ||
			st.Promotions == before.Promotions || st.HostDrops == before.HostDrops) {
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
