package vllm

import (
	"fmt"
)

// KVCache is a PagedAttention-style block allocator. GPU memory left after
// weights is carved into fixed-size blocks of blockSize tokens; sequences
// allocate blocks as they grow and release them when they finish or are
// preempted. The allocator never over-commits: allocation fails when the
// free list is empty, which drives the engine's preemption logic.
type KVCache struct {
	totalBlocks int
	blockSize   int // tokens per block
	free        int
	held        map[string]int // sequence ID → blocks held
	// peakUsed tracks the high-water mark for metrics.
	peakUsed int
}

// NewKVCache builds an allocator with the given geometry.
func NewKVCache(totalBlocks, blockSize int) *KVCache {
	if totalBlocks < 0 {
		totalBlocks = 0
	}
	return &KVCache{
		totalBlocks: totalBlocks,
		blockSize:   blockSize,
		free:        totalBlocks,
		held:        make(map[string]int),
	}
}

// BlocksForTokens returns the blocks needed to hold n tokens.
func (kv *KVCache) BlocksForTokens(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + kv.blockSize - 1) / kv.blockSize
}

// TotalBlocks returns the allocator capacity.
func (kv *KVCache) TotalBlocks() int { return kv.totalBlocks }

// FreeBlocks returns the current free count.
func (kv *KVCache) FreeBlocks() int { return kv.free }

// UsedBlocks returns blocks currently allocated.
func (kv *KVCache) UsedBlocks() int { return kv.totalBlocks - kv.free }

// PeakUsed returns the allocation high-water mark.
func (kv *KVCache) PeakUsed() int { return kv.peakUsed }

// Holding returns the blocks held by a sequence.
func (kv *KVCache) Holding(seqID string) int { return kv.held[seqID] }

// CanAllocate reports whether n more blocks are available.
func (kv *KVCache) CanAllocate(n int) bool { return n <= kv.free }

// Allocate claims n blocks for seqID. It fails atomically when fewer than n
// blocks are free.
func (kv *KVCache) Allocate(seqID string, n int) error {
	if n < 0 {
		return fmt.Errorf("kvcache: negative allocation %d", n)
	}
	if n > kv.free {
		return fmt.Errorf("kvcache: out of blocks: want %d, free %d", n, kv.free)
	}
	kv.free -= n
	kv.held[seqID] += n
	if used := kv.UsedBlocks(); used > kv.peakUsed {
		kv.peakUsed = used
	}
	return nil
}

// EnsureTokens grows seqID's allocation to cover tokens, allocating only the
// delta. It reports the number of new blocks taken (0 when already covered)
// and fails without partial allocation when the delta cannot be satisfied.
func (kv *KVCache) EnsureTokens(seqID string, tokens int) (int, error) {
	need := kv.BlocksForTokens(tokens) - kv.held[seqID]
	if need <= 0 {
		return 0, nil
	}
	if err := kv.Allocate(seqID, need); err != nil {
		return 0, err
	}
	return need, nil
}

// Transfer moves n blocks of held ownership from one owner to another
// without touching the free list — how the prefix index promotes a
// sequence's freshly computed prompt blocks into shared cache ownership.
func (kv *KVCache) Transfer(from, to string, n int) error {
	if n < 0 {
		return fmt.Errorf("kvcache: negative transfer %d", n)
	}
	if kv.held[from] < n {
		return fmt.Errorf("kvcache: transfer %d from %q holding %d", n, from, kv.held[from])
	}
	kv.held[from] -= n
	if kv.held[from] == 0 {
		delete(kv.held, from)
	}
	kv.held[to] += n
	return nil
}

// ReleaseN frees n of the blocks held by owner (the prefix index's
// one-block-at-a-time eviction path; Release drops a whole sequence).
func (kv *KVCache) ReleaseN(owner string, n int) error {
	if n < 0 || kv.held[owner] < n {
		return fmt.Errorf("kvcache: release %d from %q holding %d", n, owner, kv.held[owner])
	}
	kv.held[owner] -= n
	if kv.held[owner] == 0 {
		delete(kv.held, owner)
	}
	kv.free += n
	if kv.free > kv.totalBlocks {
		panic("kvcache: double free")
	}
	return nil
}

// Release frees every block held by seqID.
func (kv *KVCache) Release(seqID string) int {
	n := kv.held[seqID]
	if n == 0 {
		delete(kv.held, seqID)
		return 0
	}
	kv.free += n
	delete(kv.held, seqID)
	if kv.free > kv.totalBlocks {
		panic("kvcache: double free")
	}
	return n
}

// Leak permanently removes n blocks from the pool (never to return), the
// memory-leak failure mode the paper mentions for long-running vLLM
// containers. Returns the blocks actually leaked.
func (kv *KVCache) Leak(n int) int {
	if n > kv.free {
		n = kv.free
	}
	kv.free -= n
	kv.totalBlocks -= n
	return n
}
