package vllm

import (
	"math/bits"
	"slices"

	"repro/internal/sched"
)

// Automatic prefix caching, vLLM-style: every full block of a prompt is
// keyed by a rolling hash chained over the block's tokens and everything
// before them, so a block key identifies the block's content AND its whole
// prefix. Sequences whose prompts share a prefix share the physical KV
// blocks (ref-counted); a new request whose leading blocks are already
// resident skips their prefill compute entirely — the Tpf term of the
// step-time model — which is where session-affine routing turns from a
// placement nicety into a measurable TTFT win. Blocks released by their
// last referencing sequence stay resident as reusable cache and are
// LRU-evicted only when the allocator needs room.
//
// The index allocates nothing in steady state, and none of its nodes
// holds a pointer. Every cached block is one prefixBlock node in a slab the
// index owns, named for its whole life by its blockID, an index into the
// slab: it sits on the LRU while unreferenced, moves to the host tier on
// demotion and back on promotion, and once evicted for good goes to a free
// list that Register draws from. The LRUs, the free list, the tier and
// each sequence's references hold IDs, and both hash lookups, the GPU
// index's and the host tier's, are open-addressing tables of IDs that read
// each key from its node. A cached block costs its 24-byte node, a 4-byte
// slot kept under three-quarters load, and the slack both keep for
// growth: about 34 bytes of heap under the LRU's churn, none of which the
// garbage collector scans. While a fresh cache fills, the slab grows by
// append and each table doubles. A sequence's reference slice goes back
// to a spare pool on Release and is drawn again by the next admission.

// PrefixStats counts cache effectiveness (cumulative). Engine.Stats embeds
// it, so each counter is declared once.
type PrefixStats struct {
	// PrefixHits and PrefixMisses count full prompt blocks looked up at
	// admission.
	PrefixHits   int64
	PrefixMisses int64
	// PrefixEvictions counts cached blocks reclaimed to make allocation
	// room.
	PrefixEvictions int64
	// CachedTokens totals the prefill tokens skipped via cache hits.
	CachedTokens int64
	// Tiered-cache counters (zero without a host tier). TierDemotions
	// counts GPU evictions that parked the block in the host tier instead
	// of dropping it; TierPromotions counts demoted blocks transferred back
	// on a prefix hit; HostDrops counts blocks the bounded tier itself
	// evicted.
	TierDemotions  int64
	TierPromotions int64
	HostDrops      int64
}

// blockID names a prefix-cache node by its index in the index's slab.
// Unlike a pointer into the slab, it survives the slab's growth.
type blockID int32

// The reserved IDs: noBlock, the zero ID, names no block, and gpuRoot and
// tierRoot are the root nodes of the GPU LRU and the host tier's LRU.
// Cached blocks take the IDs from firstBlock on.
const (
	noBlock blockID = iota
	gpuRoot
	tierRoot
	firstBlock
)

// prefixBlock is one cached KV block, GPU-resident or parked in the host
// tier, and the node of the intrusive list it sits on.
type prefixBlock struct {
	hash uint64
	refs int32
	// prev and next link the block into the index's LRU while it is GPU-
	// resident and unreferenced, or into the host tier's LRU while parked
	// there (both noBlock otherwise). On the index's free list only next is
	// used.
	prev, next blockID
	// head marks a depth-0 block: the first block of a prompt chain, the
	// granularity the prefix-membership sketch publishes (chain hashing
	// means deeper blocks exist only where their head does).
	head bool
}

// blockList is an intrusive doubly linked LRU of slab nodes threaded
// through their prev/next links, oldest at the front. It is circular
// through its root node, so a node is on a list exactly when its next is
// set. Its methods take the slab the nodes live in.
type blockList struct {
	root blockID // the root's next is the front, its prev the back
	len  int
}

// newBlockList makes the empty list rooted at the reserved node root.
func newBlockList(nodes []prefixBlock, root blockID) blockList {
	nodes[root].prev, nodes[root].next = root, root
	return blockList{root: root}
}

// front returns the oldest node, noBlock when the list is empty.
func (l *blockList) front(nodes []prefixBlock) blockID {
	if l.len == 0 {
		return noBlock
	}
	return nodes[l.root].next
}

// pushBack links the unlinked node b at the back.
func (l *blockList) pushBack(nodes []prefixBlock, b blockID) {
	last := nodes[l.root].prev
	nodes[b].prev, nodes[b].next = last, l.root
	nodes[last].next, nodes[l.root].prev = b, b
	l.len++
}

// remove unlinks b, which must be on l.
func (l *blockList) remove(nodes []prefixBlock, b blockID) {
	n := &nodes[b]
	nodes[n.prev].next, nodes[n.next].prev = n.next, n.prev
	n.prev, n.next = noBlock, noBlock
	l.len--
}

// blockTable maps a block hash to the ID of the slab node holding it:
// open addressing with linear probing over a power-of-two array of IDs,
// each key read from its node, so a slot is 4 bytes and no pointer. A
// hash's home slot is the high bits of its product with the 64-bit golden
// ratio. A deletion shifts the rest of its probe run back, so the LRU's
// churn leaves no tombstones. The table is allocated on its first insert
// and doubles at three-quarters load. Its methods take the slab.
type blockTable struct {
	slots []blockID
	n     int
	shift uint // 64 - log2(len(slots))
}

// minTableSlots is a table's size at its first insert, 16 KB: a fresh
// cache fills its first 3,072 blocks without a doubling.
const minTableSlots = 4096

// home returns hash's home slot.
func (t *blockTable) home(hash uint64) int { return int(hash * 0x9E3779B97F4A7C15 >> t.shift) }

// find returns the node holding hash, noBlock when the table has none.
func (t *blockTable) find(nodes []prefixBlock, hash uint64) blockID {
	if t.n == 0 {
		return noBlock
	}
	mask := len(t.slots) - 1
	for i := t.home(hash); ; i = (i + 1) & mask {
		if b := t.slots[i]; b == noBlock || nodes[b].hash == hash {
			return b
		}
	}
}

// insert adds node b, whose hash the table must not hold yet.
func (t *blockTable) insert(nodes []prefixBlock, b blockID) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.resize(nodes, max(2*len(t.slots), minTableSlots))
	}
	t.place(nodes[b].hash, b)
	t.n++
}

// place puts b in the first empty slot from hash's home on.
func (t *blockTable) place(hash uint64, b blockID) {
	mask := len(t.slots) - 1
	i := t.home(hash)
	for t.slots[i] != noBlock {
		i = (i + 1) & mask
	}
	t.slots[i] = b
}

// resize rehashes the table into size slots, a power of two.
func (t *blockTable) resize(nodes []prefixBlock, size int) {
	old := t.slots
	t.slots = make([]blockID, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, b := range old {
		if b != noBlock {
			t.place(nodes[b].hash, b)
		}
	}
}

// remove deletes hash and returns the node that held it, noBlock when the
// table has none. Each later entry of the probe run moves back into the
// hole when the hole lies between its home slot and its slot, which keeps
// every entry reachable from its home without tombstones.
func (t *blockTable) remove(nodes []prefixBlock, hash uint64) blockID {
	if t.n == 0 {
		return noBlock
	}
	mask := len(t.slots) - 1
	i := t.home(hash)
	for t.slots[i] != noBlock && nodes[t.slots[i]].hash != hash {
		i = (i + 1) & mask
	}
	gone := t.slots[i]
	if gone == noBlock {
		return noBlock
	}
	for j := (i + 1) & mask; t.slots[j] != noBlock; j = (j + 1) & mask {
		b := t.slots[j]
		if (j-t.home(nodes[b].hash))&mask >= (j-i)&mask {
			t.slots[i], i = b, j
		}
	}
	t.slots[i] = noBlock
	t.n--
	return gone
}

// PrefixIndex is the hash→block map over a KVCache. It holds one
// allocator block per GPU-cached hash. The sequences referencing a block
// carry the reference in their seqKV, and the block's refs counts them.
type PrefixIndex struct {
	kv *KVCache
	// nodes is the slab of every block node, GPU-resident, parked in the
	// host tier or free; a blockID indexes it, and the first firstBlock
	// entries are reserved.
	nodes  []prefixBlock
	byHash blockTable
	// lru holds unreferenced cached blocks, oldest at the front.
	lru blockList
	// free chains (through next) the nodes of evicted blocks no tier
	// holds; spare holds emptied reference slices. Register and Acquire
	// draw on them before allocating.
	free  blockID
	spare [][]blockID
	stats PrefixStats
	// tier is the host-memory spill tier (nil = disabled): GPU-evicted
	// blocks demote here instead of losing their identity.
	tier *HostTier
	// heads is the set of available depth-0 chain keys — GPU-resident or
	// parked in the host tier — published as the replica's
	// prefix-membership sketch for cache-aware placement.
	heads map[uint64]struct{}
	// promoted counts host→GPU transfers since the last DrainPromoted:
	// the engine charges the per-block transfer cost against the step
	// that executed the admission.
	promoted int
}

// NewPrefixIndex builds an empty index over kv.
func NewPrefixIndex(kv *KVCache) *PrefixIndex {
	x := &PrefixIndex{
		kv:    kv,
		nodes: make([]prefixBlock, firstBlock),
		heads: make(map[uint64]struct{}),
	}
	x.lru = newBlockList(x.nodes, gpuRoot)
	return x
}

// EnableHostTier attaches a host-memory spill tier holding at most blocks
// demoted blocks (<= 0 leaves tiering off). The tier keeps its nodes in
// the index's slab.
func (x *PrefixIndex) EnableHostTier(blocks int) {
	if blocks > 0 {
		x.tier = &HostTier{capacity: blocks, nodes: &x.nodes, lru: newBlockList(x.nodes, tierRoot)}
	}
}

// HostTier returns the attached spill tier (nil when tiering is off).
func (x *PrefixIndex) HostTier() *HostTier { return x.tier }

// Stats returns the cumulative counters.
func (x *PrefixIndex) Stats() PrefixStats { return x.stats }

// CachedBlocks returns all cache-resident blocks (referenced or not).
func (x *PrefixIndex) CachedBlocks() int { return x.byHash.n }

// Evictable returns the cache-resident blocks no sequence references —
// the reclaimable-on-demand population.
func (x *PrefixIndex) Evictable() int { return x.lru.len }

// ref takes one reference on b, removing it from the LRU if it was
// unreferenced.
func (x *PrefixIndex) ref(b blockID) {
	n := &x.nodes[b]
	if n.refs == 0 && n.next != noBlock {
		x.lru.remove(x.nodes, b)
	}
	n.refs++
}

// refsOf returns s's reference slice, or a spare one when s holds none.
func (x *PrefixIndex) refsOf(s *seqKV) []blockID {
	n := len(x.spare)
	if s.refs != nil || n == 0 {
		return s.refs
	}
	refs := x.spare[n-1]
	x.spare = x.spare[:n-1]
	return refs
}

// newBlock returns a GPU block node for hash, recycled from the free list
// when one is there, otherwise appended to the slab. The append may move
// the slab, so no pointer into it may be held across this call.
func (x *PrefixIndex) newBlock(hash uint64, refs int32, head bool) blockID {
	b := x.free
	if b == noBlock {
		b = blockID(len(x.nodes))
		x.nodes = append(x.nodes, prefixBlock{})
	} else {
		x.free = x.nodes[b].next
	}
	x.nodes[b] = prefixBlock{hash: hash, refs: refs, head: head}
	return b
}

// recycle puts the node of a block that is cached nowhere any more on the
// free list.
func (x *PrefixIndex) recycle(b blockID) {
	x.nodes[b] = prefixBlock{next: x.free}
	x.free = b
}

// Lookup reports how many leading blocks of hashes (at most limit) are
// available — GPU-resident or parked in the host tier — without
// referencing or promoting them.
func (x *PrefixIndex) Lookup(hashes []uint64, limit int) int {
	if limit > len(hashes) {
		limit = len(hashes)
	}
	n := 0
	for n < limit {
		if x.byHash.find(x.nodes, hashes[n]) == noBlock {
			if x.tier == nil || !x.tier.Contains(hashes[n]) {
				break
			}
		}
		n++
	}
	return n
}

// Acquire references the longest cached chain prefix of hashes (capped at
// limit blocks) on behalf of s and returns the block count. A block
// parked in the host tier counts as a hit: it is promoted back to a GPU
// block (the engine charges the transfer cost, far below the block's
// prefill cost). Hit and miss counters cover every block up to limit — a
// miss is a full block the sequence will now prefill itself.
func (x *PrefixIndex) Acquire(s *seqKV, hashes []uint64, limit int) int {
	if limit < 0 {
		limit = 0
	}
	if limit > len(hashes) {
		limit = len(hashes)
	}
	hit := 0
	refs := x.refsOf(s)
	for hit < limit {
		b := x.byHash.find(x.nodes, hashes[hit])
		if b == noBlock {
			if b = x.promote(hashes[hit]); b == noBlock {
				break
			}
		}
		x.ref(b)
		refs = append(refs, b)
		hit++
	}
	s.refs = refs
	x.stats.PrefixHits += int64(hit)
	x.stats.PrefixMisses += int64(limit - hit)
	return hit
}

// promote transfers a host-tier block back onto the GPU: the block leaves
// the tier first (so making GPU room cannot demote it onto itself), then
// one GPU block is allocated — evicting, and possibly demoting, colder
// unreferenced cache if needed. On failure the block returns to the tier
// un-promoted; that put drops nothing, because an EnsureFree(1) that fails
// has evicted nothing into the tier. It returns the promoted block, or
// noBlock.
func (x *PrefixIndex) promote(hash uint64) blockID {
	if x.tier == nil {
		return noBlock
	}
	b := x.tier.take(hash)
	if b == noBlock {
		return noBlock
	}
	if !x.EnsureFree(1) || x.kv.Allocate(1) != nil {
		x.tier.put(b)
		return noBlock
	}
	x.byHash.insert(x.nodes, b)
	x.stats.TierPromotions++
	x.promoted++
	return b
}

// DrainPromoted returns the host→GPU transfers since the last call; the
// engine adds the per-block transfer cost to the step executing them.
func (x *PrefixIndex) DrainPromoted() int {
	n := x.promoted
	x.promoted = 0
	return n
}

// Register promotes s's freshly computed full prompt blocks into the
// cache: for each hash from index `from` on, one of the sequence's private
// blocks becomes the cache's, referenced by the sequence. A hash that is
// already cached (a concurrent sequence registered it first, or the
// acquire limit stopped short of a resident block) is referenced instead
// and the duplicate private block is freed.
func (x *PrefixIndex) Register(s *seqKV, hashes []uint64, from int) {
	refs := x.refsOf(s)
	for i := from; i < len(hashes); i++ {
		if b := x.byHash.find(x.nodes, hashes[i]); b != noBlock {
			x.ref(b)
			refs = append(refs, b)
			// The sequence prefilled this block privately; the shared copy
			// supersedes it.
			if s.private > 0 {
				s.private--
				x.kv.Release(1)
			}
			continue
		}
		if s.private == 0 {
			// The sequence holds fewer private blocks than prompt hashes —
			// nothing left to promote (short final allocations under an
			// acquire cap); stop quietly.
			break
		}
		// The private block becomes the cache's; the allocator's count
		// does not change.
		s.private--
		b := x.newBlock(hashes[i], 1, i == 0)
		x.byHash.insert(x.nodes, b)
		refs = append(refs, b)
		if i == 0 {
			x.heads[hashes[i]] = struct{}{}
		}
	}
	s.refs = refs
}

// Abort rolls back a failed admission attempt: drops s's references and
// un-counts the lookup Acquire recorded. The engine retries a blocked
// head-of-queue sequence every step, and without the un-count those
// retries would inflate the hit/miss counters far past actual traffic.
func (x *PrefixIndex) Abort(s *seqKV, hit, limit int) {
	x.Release(s)
	x.stats.PrefixHits -= int64(hit)
	if limit > hit {
		x.stats.PrefixMisses -= int64(limit - hit)
	}
}

// Release drops every cache reference s holds and returns its slice to the
// spares. Blocks reaching zero references stay resident and join the LRU
// tail as reusable cache. The walk is in reverse chain order so the
// deepest blocks sit closest to the eviction front: evicting a chain tail
// leaves its prefix reusable, evicting a head would orphan the whole tail.
func (x *PrefixIndex) Release(s *seqKV) {
	for i := len(s.refs) - 1; i >= 0; i-- {
		b := s.refs[i]
		n := &x.nodes[b]
		n.refs--
		if n.refs == 0 {
			x.lru.pushBack(x.nodes, b)
		}
	}
	if cap(s.refs) > 0 {
		x.spare = append(x.spare, s.refs[:0])
	}
	s.refs = nil
}

// EnsureFree evicts unreferenced cached blocks (oldest first) until the
// allocator has at least n free blocks, reporting whether it got there.
// Referenced blocks are never touched: only the LRU of zero-ref blocks is
// walked. With a host tier attached the evicted block demotes — its GPU
// block is still freed, but the hash identity parks in host memory for a
// cheap later re-promotion instead of a full re-prefill.
func (x *PrefixIndex) EnsureFree(n int) bool {
	for x.kv.FreeBlocks() < n {
		b := x.lru.front(x.nodes)
		if b == noBlock {
			return false
		}
		x.lru.remove(x.nodes, b)
		x.byHash.remove(x.nodes, x.nodes[b].hash)
		x.kv.Release(1)
		x.stats.PrefixEvictions++
		if x.tier == nil {
			if n := x.nodes[b]; n.head {
				delete(x.heads, n.hash)
			}
			x.recycle(b)
			continue
		}
		x.stats.TierDemotions++
		switch dropped := x.tier.put(b); {
		case dropped == b:
			// Already parked: the tier's copy stands in for this one.
			x.recycle(b)
		case dropped != noBlock:
			x.stats.HostDrops++
			// A head leaves the sketch only when its last copy is gone —
			// a fresh GPU-resident re-registration of the same chain may
			// shadow the stale tier copy.
			if d := x.nodes[dropped]; d.head && x.byHash.find(x.nodes, d.hash) == noBlock {
				delete(x.heads, d.hash)
			}
			x.recycle(dropped)
		}
	}
	return true
}

// maxSketch bounds the published prefix-membership sketch: plenty for the
// distinct system prompts a replica serves concurrently, small enough that
// the telemetry snapshot stays compact and the picker's membership scan
// stays trivial.
const maxSketch = 128

// AppendSketch appends the max smallest available depth-0 chain keys (GPU-
// or host-tier-resident) to dst in ascending order and returns it — the
// replica's prefix-membership sketch. The choice depends only on the set
// of heads, never on map iteration order, so two indexes holding the same
// heads publish the same sketch and sketch routing stays reproducible.
// The selection runs inside dst (a bounded max-heap of the smallest keys
// seen), so nothing is allocated beyond growing dst once.
func (x *PrefixIndex) AppendSketch(dst []uint64, max int) []uint64 {
	if max <= 0 {
		return dst
	}
	dst = slices.Grow(dst, min(max, len(x.heads)))
	base := len(dst)
	heaped := false
	for h := range x.heads {
		if len(dst)-base < max {
			dst = append(dst, h)
			continue
		}
		sel := dst[base:]
		if !heaped {
			for i := len(sel)/2 - 1; i >= 0; i-- {
				siftDownMax(sel, i)
			}
			heaped = true
		}
		if h < sel[0] {
			sel[0] = h
			siftDownMax(sel, 0)
		}
	}
	slices.Sort(dst[base:])
	return dst
}

// siftDownMax restores the max-heap order of h below position i.
func siftDownMax(h []uint64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r] > h[c] {
			c = r
		}
		if h[i] >= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// noteCachedTokens records prefill tokens skipped via cache hits.
func (x *PrefixIndex) noteCachedTokens(n int) { x.stats.CachedTokens += int64(n) }

// ---------------------------------------------------------------------------
// Prompt hashing: the simulation has no real tokenizer, so prompts hash at
// the same granularity the token estimator counts them — one hash per
// estimated token, chained into per-block keys. Two prompts sharing a
// message (or text) prefix produce identical leading block keys, which is
// exactly the property automatic prefix caching needs.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString[S []byte | string](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	h *= fnvPrime64 // separator round
	return h
}

func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// keyChain folds a prompt's per-token hash stream into per-full-block
// chain keys in one pass: block i's key covers its own tokens and, through
// the chain, every token before it. Its folds append keys to the caller's
// slice and stop once the slice is at capacity, so a caller sizes it to
// the blocks it wants and nothing else is allocated.
type keyChain struct {
	h    uint64 // chain key over every token folded so far
	size int    // tokens per block
	left int    // tokens still missing from the current block
}

func newKeyChain(blockSize int) keyChain {
	return keyChain{h: fnvOffset64, size: blockSize, left: blockSize}
}

// token folds one token hash into the chain, appending the chain key to
// keys when the token completes a block.
func (c *keyChain) token(keys []uint64, t uint64) []uint64 {
	c.h = fnvUint(c.h, t)
	if c.left--; c.left == 0 {
		keys = append(keys, c.h)
		c.left = c.size
	}
	return keys
}

// message folds a chat message's n tokens, each hashed from base (the
// message identity) and the token's position, until keys is full.
func (c *keyChain) message(keys []uint64, base uint64, n int) []uint64 {
	for j := 0; j < n && len(keys) < cap(keys); j++ {
		keys = c.token(keys, fnvUint(base, uint64(j)))
	}
	return keys
}

// messageBase is the identity every token hash of a chat message derives
// from.
func messageBase(m ChatMessage) uint64 {
	return fnvString(fnvString(fnvOffset64, m.Role), m.Content)
}

// messageTokens is the token count the API server charges for m: its
// content estimate plus the per-message template overhead.
func messageTokens(m ChatMessage) int { return contentTokens(m.Content) }

// contentTokens is messageTokens of a message with this content.
func contentTokens[S []byte | string](content S) int { return EstimateTokens(content) + 4 }

// ChatPromptHashes derives the per-block prefix keys for a chat prompt.
// The hash stream length equals the token count the API server charges for
// the same messages, so block keys line up with KV block boundaries.
func ChatPromptHashes(blockSize int, msgs []ChatMessage) []uint64 {
	if blockSize <= 0 {
		return nil
	}
	tokens := 0
	for _, m := range msgs {
		tokens += messageTokens(m)
	}
	keys := make([]uint64, 0, tokens/blockSize)
	c := newKeyChain(blockSize)
	for _, m := range msgs {
		keys = c.message(keys, messageBase(m), messageTokens(m))
	}
	return keys
}

// chatPrompt returns the prompt token count of scanned messages and
// their ChatPromptHashes, read in place. The key slice is its only
// allocation, and a prompt shorter than one block makes none.
func chatPrompt(blockSize int, msgs sched.Messages) (tokens int, keys []uint64) {
	for it := msgs; ; {
		_, content, ok := it.Next()
		if !ok {
			break
		}
		tokens += contentTokens(content)
	}
	if blockSize <= 0 {
		return tokens, nil
	}
	return tokens, foldMessages(make([]uint64, 0, tokens/blockSize), blockSize, msgs)
}

// foldMessages folds scanned messages into keys as ChatPromptHashes folds
// decoded ones, until keys is full. A span hashes as the string it holds.
func foldMessages(keys []uint64, blockSize int, msgs sched.Messages) []uint64 {
	c := newKeyChain(blockSize)
	for len(keys) < cap(keys) {
		role, content, ok := msgs.Next()
		if !ok {
			break
		}
		keys = c.message(keys, fnvString(fnvString(fnvOffset64, role), content), contentTokens(content))
	}
	return keys
}

// TextPromptHashes derives per-block prefix keys for a raw completion
// prompt: one hash per estimated token, keyed by the token's 4-character
// span so texts sharing a literal prefix share leading blocks.
func TextPromptHashes(blockSize int, text string) []uint64 {
	if blockSize <= 0 {
		return nil
	}
	n := EstimateTokens(text)
	keys := make([]uint64, 0, n/blockSize)
	c := newKeyChain(blockSize)
	for j := 0; j < n && len(keys) < cap(keys); j++ {
		keys = c.token(keys, fnvString(fnvOffset64, text[j*4:min(j*4+4, len(text))]))
	}
	return keys
}
