package vllm

// Tiered KV cache: a host-memory (CPU offload) tier under the GPU
// KVCache. When the prefix index needs GPU room it LRU-demotes
// unreferenced cached blocks; with a host tier configured the demoted
// block's identity (its chain hash — a real deployment moves the KV bytes
// over PCIe, the simulation needs only the identity plus the transfer
// cost) parks in host memory instead of vanishing. A later prefix hit
// against a demoted block re-promotes it to the GPU at a configurable
// per-block transfer cost, far cheaper than re-prefilling the block's
// tokens — the avoidable-recompute cost the paper's long-lived chat
// services keep paying without a spill tier.

// HostTier is the bounded host-memory spill tier: a hash→block map plus
// its own LRU so capacity pressure drops the coldest demoted block first.
type HostTier struct {
	capacity int
	byHash   map[uint64]*prefixBlock
	// lru holds the tier's blocks, oldest demotion at the front.
	lru blockList
}

// NewHostTier builds an empty tier holding at most capacity blocks.
func NewHostTier(capacity int) *HostTier {
	t := &HostTier{
		capacity: capacity,
		byHash:   make(map[uint64]*prefixBlock),
	}
	t.lru.init()
	return t
}

// Capacity returns the tier's block bound.
func (t *HostTier) Capacity() int { return t.capacity }

// Len returns the blocks currently parked in the tier.
func (t *HostTier) Len() int { return t.lru.len }

// Contains reports whether hash is parked in the tier.
func (t *HostTier) Contains(hash uint64) bool {
	_, ok := t.byHash[hash]
	return ok
}

// put parks the demoted block b and returns the node the caller must
// recycle, if any: nil when b was parked with room to spare; the oldest
// resident, dropped to make room, when the tier was full; b itself when
// it was not parked — its hash is already parked (that copy's LRU position
// is refreshed instead of duplicating) or the tier has no capacity.
func (t *HostTier) put(b *prefixBlock) (dropped *prefixBlock) {
	if t.capacity <= 0 {
		return b
	}
	if old, ok := t.byHash[b.hash]; ok {
		t.lru.remove(old)
		t.lru.pushBack(old)
		return b
	}
	if t.lru.len >= t.capacity {
		dropped = t.lru.front()
		t.lru.remove(dropped)
		delete(t.byHash, dropped.hash)
	}
	t.lru.pushBack(b)
	t.byHash[b.hash] = b
	return dropped
}

// take removes hash from the tier (the promotion path), returning its
// node.
func (t *HostTier) take(hash uint64) (*prefixBlock, bool) {
	b, ok := t.byHash[hash]
	if !ok {
		return nil, false
	}
	t.lru.remove(b)
	delete(t.byHash, hash)
	return b, true
}
