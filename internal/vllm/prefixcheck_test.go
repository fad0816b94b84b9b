package vllm

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// checkPrefixIndex walks every slot of x's block tables and every
// intrusive list of its slab — the GPU LRU, the host tier's LRU and the
// free list — and cross-checks them, and the references of the live
// sequences, against the counters they must agree with:
//   - each table's count is its filled slots, within three-quarters load,
//     each entry is found from its home slot, and no hash is in a table
//     twice (checkBlockTable);
//   - the GPU LRU holds exactly the cached blocks with no references, so
//     its length is Evictable();
//   - the tier's list holds exactly the tier's table, within Capacity();
//   - no node is on two lists or twice on one, free nodes are blank and in
//     no table, every node past the reserved ones is in a table or free,
//     and the noBlock node stays blank;
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
	nodes := x.nodes
	if nodes[noBlock] != (prefixBlock{}) {
		return fmt.Errorf("the noBlock node was written: %+v", nodes[noBlock])
	}
	gpu, err := checkBlockTable(&x.byHash, nodes)
	if err != nil {
		return fmt.Errorf("gpu table: %v", err)
	}
	on := map[blockID]string{}
	walk := func(list string, l *blockList, owner map[uint64]blockID) error {
		n, prev := 0, l.root
		for b := nodes[l.root].next; b != l.root; prev, b = b, nodes[b].next {
			if b < firstBlock || int(b) >= len(nodes) || nodes[b].prev != prev {
				return fmt.Errorf("%s: broken link after %d nodes", list, n)
			}
			if where, dup := on[b]; dup {
				return fmt.Errorf("block %#x is on %s and %s", nodes[b].hash, where, list)
			}
			on[b] = list
			if owner[nodes[b].hash] != b {
				return fmt.Errorf("%s: block %#x is not the one its table holds", list, nodes[b].hash)
			}
			if nodes[b].refs != 0 {
				return fmt.Errorf("%s: block %#x has %d refs", list, nodes[b].hash, nodes[b].refs)
			}
			n++
		}
		if nodes[l.root].prev != prev || n != l.len {
			return fmt.Errorf("%s: %d nodes linked, len %d", list, n, l.len)
		}
		return nil
	}
	if err := walk("gpu lru", &x.lru, gpu); err != nil {
		return err
	}
	if x.Evictable() != x.lru.len {
		return fmt.Errorf("Evictable() = %d, lru holds %d", x.Evictable(), x.lru.len)
	}
	inTable := map[blockID]string{}
	for _, b := range gpu {
		inTable[b] = "gpu table"
	}
	heads := map[uint64]struct{}{}
	if t := x.tier; t != nil {
		if t.nodes != &x.nodes {
			return fmt.Errorf("tier reads a slab other than the index's")
		}
		parked, err := checkBlockTable(&t.byHash, nodes)
		if err != nil {
			return fmt.Errorf("tier table: %v", err)
		}
		if err := walk("tier lru", &t.lru, parked); err != nil {
			return err
		}
		if len(parked) != t.Len() || t.Len() > t.Capacity() {
			return fmt.Errorf("tier: %d mapped, %d linked, capacity %d", len(parked), t.Len(), t.Capacity())
		}
		for h, b := range parked {
			if on[b] != "tier lru" {
				return fmt.Errorf("tier maps block %#x, which is on %q", h, on[b])
			}
			if where, dup := inTable[b]; dup {
				return fmt.Errorf("block %#x is in the tier table and the %s", h, where)
			}
			inTable[b] = "tier table"
			if nodes[b].head {
				heads[h] = struct{}{}
			}
		}
	}
	for b := x.free; b != noBlock; b = nodes[b].next {
		if b < firstBlock || int(b) >= len(nodes) {
			return fmt.Errorf("free list links ID %d, outside the slab's blocks", b)
		}
		if where, dup := on[b]; dup {
			return fmt.Errorf("free block is also on %s", where)
		}
		on[b] = "free list"
		if where, cached := inTable[b]; cached {
			return fmt.Errorf("free block %d is in the %s", b, where)
		}
		if n := nodes[b]; n.hash != 0 || n.refs != 0 || n.head || n.prev != noBlock {
			return fmt.Errorf("free block not blank: %+v", n)
		}
	}
	for b := firstBlock; int(b) < len(nodes); b++ {
		if _, cached := inTable[b]; !cached && on[b] != "free list" {
			return fmt.Errorf("block %d (%+v) is in no table and not free", b, nodes[b])
		}
	}
	refs := map[blockID]int{}
	arrays := map[*blockID]string{}
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
			if int(b) >= len(nodes) || gpu[nodes[b].hash] != b {
				return fmt.Errorf("%s references block %d, which is not GPU-cached (on %q)", seq, b, on[b])
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
	for h, b := range gpu {
		switch n := nodes[b]; {
		case n.refs < 0:
			return fmt.Errorf("block %#x has %d refs", h, n.refs)
		case int(n.refs) != refs[b]:
			return fmt.Errorf("block %#x counts %d refs, sequences hold %d", h, n.refs, refs[b])
		case n.refs == 0 && on[b] != "gpu lru":
			return fmt.Errorf("unreferenced block %#x is on %q, not the gpu lru", h, on[b])
		case n.refs > 0 && (on[b] != "" || n.next != noBlock):
			return fmt.Errorf("referenced block %#x is linked (on %q)", h, on[b])
		}
		if nodes[b].head {
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

// checkBlockTable checks one block table against the slab its IDs index
// and returns its entries by hash: the count is the filled slots, within
// three-quarters load; every ID names a block node; no hash is there
// twice; and every entry is found from its home slot, with no empty slot
// between the two.
func checkBlockTable(t *blockTable, nodes []prefixBlock) (map[uint64]blockID, error) {
	size := len(t.slots)
	if size&(size-1) != 0 || size > 0 && t.shift != uint(64-bits.TrailingZeros(uint(size))) {
		return nil, fmt.Errorf("%d slots at shift %d", size, t.shift)
	}
	entries := map[uint64]blockID{}
	for i, b := range t.slots {
		if b == noBlock {
			continue
		}
		if b < firstBlock || int(b) >= len(nodes) {
			return nil, fmt.Errorf("slot %d holds ID %d, outside the slab's blocks", i, b)
		}
		h := nodes[b].hash
		if other, dup := entries[h]; dup {
			return nil, fmt.Errorf("hash %#x is in blocks %d and %d", h, other, b)
		}
		entries[h] = b
		for j := t.home(h); j != i; j = (j + 1) & (size - 1) {
			if t.slots[j] == noBlock {
				return nil, fmt.Errorf("hash %#x in slot %d is cut off from its home slot %d by empty slot %d", h, i, t.home(h), j)
			}
		}
	}
	if t.n != len(entries) || 4*t.n > 3*size {
		return nil, fmt.Errorf("counts %d entries, %d of %d slots filled", t.n, len(entries), size)
	}
	for h, b := range entries {
		if got := t.find(nodes, h); got != b {
			return nil, fmt.Errorf("find(%#x) = %d, the table holds %d", h, got, b)
		}
	}
	return entries, nil
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
		refs := map[blockID]int{}
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
		for _, b := range e.idx.byHash.slots {
			if n := e.idx.nodes[b]; b != noBlock && int(n.refs) != refs[b] {
				return fmt.Errorf("block %#x counts %d refs, running sequences hold %d", n.hash, n.refs, refs[b])
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

// FuzzBlockTable drives a block table and a Go map through the same
// inserts, finds and deletes, one byte an op: its top two bits pick the op
// (insert, find, delete, insert) and its low six bits the hash. The 64
// hashes crowd the table's two ends at every size: half have their home in
// the last slots, so their probe runs wrap past the end, and half in the
// first slots, where the wrapped runs land. After every op the table and
// the map agree, and checkBlockTable finds every entry from its home slot.
// The table starts at 8 slots, so it doubles too.
func FuzzBlockTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		// A hash whose product with the table's multiplier has top bits j
		// has its home at slot j>>(7-log2(slots)) at every size up to 128.
		inv := uint64(0x9E3779B97F4A7C15)
		for range 5 {
			inv *= 2 - 0x9E3779B97F4A7C15*inv // Newton's step for the inverse mod 2^64
		}
		var keys [64]uint64
		for j := range uint64(32) {
			keys[j] = (^uint64(0) - j<<57) * inv // homes at the end
			keys[32+j] = (j << 57) * inv         // homes at the start
		}
		nodes := make([]prefixBlock, firstBlock)
		var tab blockTable
		tab.resize(nodes, 8)
		want := map[uint64]blockID{}
		for i, op := range ops {
			h := keys[op&63]
			switch op >> 6 {
			case 1:
				if got := tab.find(nodes, h); got != want[h] {
					t.Fatalf("op %d: find(%#x) = %d, want %d", i, h, got, want[h])
				}
			case 2:
				if got := tab.remove(nodes, h); got != want[h] {
					t.Fatalf("op %d: remove(%#x) = %d, want %d", i, h, got, want[h])
				}
				delete(want, h)
			default:
				if want[h] != noBlock {
					continue // the table holds each hash once
				}
				b := blockID(len(nodes))
				nodes = append(nodes, prefixBlock{hash: h})
				tab.insert(nodes, b)
				want[h] = b
			}
			got, err := checkBlockTable(&tab, nodes)
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if !maps.Equal(got, want) {
				t.Fatalf("op %d: the table holds %v, the map %v", i, got, want)
			}
		}
	})
}
