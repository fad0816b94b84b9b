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

// HostTier is the bounded host-memory spill tier: a hash→block table plus
// its own LRU so capacity pressure drops the coldest demoted block first.
// Its nodes live in the prefix index's slab, which EnableHostTier hands it.
type HostTier struct {
	capacity int
	nodes    *[]prefixBlock
	byHash   blockTable
	// lru holds the tier's blocks, oldest demotion at the front.
	lru blockList
}

// Capacity returns the tier's block bound.
func (t *HostTier) Capacity() int { return t.capacity }

// Len returns the blocks currently parked in the tier.
func (t *HostTier) Len() int { return t.lru.len }

// Contains reports whether hash is parked in the tier.
func (t *HostTier) Contains(hash uint64) bool { return t.byHash.find(*t.nodes, hash) != noBlock }

// put parks the demoted block b and returns the node the caller must
// recycle, if any: noBlock when b was parked with room to spare; the
// oldest resident, dropped to make room, when the tier was full; b itself
// when its hash is already parked (that copy's LRU position is refreshed
// instead of duplicating).
func (t *HostTier) put(b blockID) (dropped blockID) {
	nodes := *t.nodes
	if old := t.byHash.find(nodes, nodes[b].hash); old != noBlock {
		t.lru.remove(nodes, old)
		t.lru.pushBack(nodes, old)
		return b
	}
	if t.lru.len >= t.capacity {
		dropped = t.lru.front(nodes)
		t.lru.remove(nodes, dropped)
		t.byHash.remove(nodes, nodes[dropped].hash)
	}
	t.lru.pushBack(nodes, b)
	t.byHash.insert(nodes, b)
	return dropped
}

// take removes hash from the tier (the promotion path), returning its
// node, or noBlock when hash is not parked.
func (t *HostTier) take(hash uint64) blockID {
	nodes := *t.nodes
	b := t.byHash.remove(nodes, hash)
	if b != noBlock {
		t.lru.remove(nodes, b)
	}
	return b
}
