package vllm

import (
	"fmt"
)

// KVCache is a PagedAttention-style block allocator. GPU memory left after
// weights is carved into fixed-size blocks of blockSize tokens; sequences
// allocate blocks as they grow and release them when they finish or are
// preempted. The allocator never over-commits: allocation fails when the
// free list is empty, which drives the engine's preemption logic.
//
// The allocator only counts. Each holder records its own blocks: a
// sequence's seqKV carries its private blocks and its prefix-cache
// references, and the prefix index holds one block per cached hash.
type KVCache struct {
	totalBlocks int
	blockSize   int // tokens per block
	free        int
	// peakUsed tracks the high-water mark for metrics.
	peakUsed int
}

// seqKV is the KV a sequence holds, carried on the sequence itself: the
// private blocks it allocated, and the cached prefix blocks it references,
// in chain order.
type seqKV struct {
	private int
	refs    []blockID
}

// allocate claims n more private blocks for s from kv, failing atomically
// when fewer than n blocks are free.
func (s *seqKV) allocate(kv *KVCache, n int) error {
	if err := kv.Allocate(n); err != nil {
		return err
	}
	s.private += n
	return nil
}

// drop returns every private block of s to kv.
func (s *seqKV) drop(kv *KVCache) {
	kv.Release(s.private)
	s.private = 0
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

// Allocate claims n blocks. It fails atomically when fewer than n blocks
// are free.
func (kv *KVCache) Allocate(n int) error {
	if n < 0 {
		return fmt.Errorf("kvcache: negative allocation %d", n)
	}
	if n > kv.free {
		return fmt.Errorf("kvcache: out of blocks: want %d, free %d", n, kv.free)
	}
	kv.free -= n
	if used := kv.UsedBlocks(); used > kv.peakUsed {
		kv.peakUsed = used
	}
	return nil
}

// Release returns n blocks to the free pool.
func (kv *KVCache) Release(n int) {
	kv.free += n
	if kv.free > kv.totalBlocks {
		panic("kvcache: double free")
	}
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
