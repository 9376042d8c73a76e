// Evaluation memoization (the relaxation-loop hot path): a primitive
// evaluation is a pure function of the primitive's parameters and its
// processed input signals, so its output can be cached and reused — both
// when the relaxation loop revisits a primitive whose inputs have settled
// back to a previously-seen combination, and across the many structurally
// identical primitive instances of a regular design (the same economy that
// motivates the paper's vectored primitives, §3.3.2, applied between
// instances instead of between bits).
//
// Keys are exact, not probabilistic, and built by the compiled tape
// (tape.Program.AppendKey): every quantity Prim reads is encoded into the
// key, and input waveforms are represented by interned handles
// (values.Interner), whose equality coincides with semantic waveform
// equality even under fingerprint collisions.  A cache hit therefore
// returns a value bit-identical to what evaluation would have produced,
// which is what lets the verifier guarantee cached and uncached runs agree
// exactly.
package eval

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// cacheShards is the number of independent lock stripes.  Must be a power
// of two.  Keys are routed to a stripe by a seeded hash of the key bytes,
// so concurrent workers looking up different primitives rarely share a
// lock.
const cacheShards = 32

// Cache memoizes Prim evaluations.  It is safe for concurrent use: the
// parallel case engine shares one cache across all case workers, so every
// worker starts from whatever the shared post-initialisation relaxation
// already computed.  The table is striped into cacheShards independently locked
// shards.  Stored output slices are treated as immutable by all callers.
type Cache struct {
	shards [cacheShards]cacheShard
	seed   maphash.Seed
	hits   atomic.Int64
	misses atomic.Int64
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[string]cacheEntry
}

// cacheEntry pairs one evaluation's outputs with their interned handles,
// so a hit's consumer can compare and store results by handle without
// re-hashing the waveforms.
type cacheEntry struct {
	outs []Signal
	ids  []uint64
}

// NewCache returns an empty evaluation cache.
func NewCache() *Cache {
	c := &Cache{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].m = make(map[string]cacheEntry)
	}
	return c
}

// shard routes a key to its stripe.
func (c *Cache) shard(key []byte) *cacheShard {
	return &c.shards[maphash.Bytes(c.seed, key)&(cacheShards-1)]
}

// Get looks up the outputs for a key built by tape.Program.AppendKey,
// returning the signals and their interned waveform handles.  The key is
// accepted as a byte slice so the caller can reuse one scratch buffer
// across lookups without allocating.
func (c *Cache) Get(key []byte) ([]Signal, []uint64, bool) {
	sh := c.shard(key)
	sh.mu.RLock()
	e, ok := sh.m[string(key)]
	sh.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e.outs, e.ids, ok
}

// Put stores the outputs of one evaluation together with their interned
// handles (ids[i] is the handle of outs[i].Wave).  Neither slice may be
// modified afterwards.
func (c *Cache) Put(key []byte, outs []Signal, ids []uint64) {
	sh := c.shard(key)
	sh.mu.Lock()
	sh.m[string(key)] = cacheEntry{outs: outs, ids: ids}
	sh.mu.Unlock()
}

// Stats reports hits, misses and resident entries.
func (c *Cache) Stats() (hits, misses, entries int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		entries += len(sh.m)
		sh.mu.RUnlock()
	}
	return int(c.hits.Load()), int(c.misses.Load()), entries
}
