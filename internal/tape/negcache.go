package tape

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// negShards is the number of independent lock stripes, mirroring the
// evaluation cache's striping so concurrent case workers checking
// different sites rarely share a lock.  Must be a power of two.
const negShards = 32

// NegCache is a striped set of constraint-site keys whose full check
// produced no violations and no margins — the only outcomes worth
// memoizing across runs, because an empty outcome is independent of the
// instance and net names and the case label that appear in violation
// messages.  Keys are exact (the evaluation-memo key plus the checker
// intervals, built by Program.AppendKey), so membership implies the full
// check would return nothing.
type NegCache struct {
	shards [negShards]negShard
	seed   maphash.Seed
	hits   atomic.Int64
	misses atomic.Int64
}

type negShard struct {
	mu sync.RWMutex
	m  map[string]struct{}
}

// NewNegCache returns an empty site cache.
func NewNegCache() *NegCache {
	c := &NegCache{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].m = make(map[string]struct{})
	}
	return c
}

// shard routes a key to its stripe.
func (c *NegCache) shard(key []byte) *negShard {
	return &c.shards[maphash.Bytes(c.seed, key)&(negShards-1)]
}

// Known reports whether the site key is recorded as clean.
func (c *NegCache) Known(key []byte) bool {
	sh := c.shard(key)
	sh.mu.RLock()
	_, ok := sh.m[string(key)]
	sh.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return ok
}

// Add records a clean site key.
func (c *NegCache) Add(key []byte) {
	sh := c.shard(key)
	sh.mu.Lock()
	sh.m[string(key)] = struct{}{}
	sh.mu.Unlock()
}

// Stats reports hits, misses and resident entries.
func (c *NegCache) Stats() (hits, misses, entries int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		entries += len(sh.m)
		sh.mu.RUnlock()
	}
	return int(c.hits.Load()), int(c.misses.Load()), entries
}
