package cluster

import (
	"container/list"
	"sync"

	"scaldtv/internal/expand"
	"scaldtv/internal/hdl"
	"scaldtv/internal/netlist"
)

// designCache is a bounded LRU of compiled designs keyed by an FNV-64a
// of the source text, with the stored source byte-compared on lookup so
// a hash collision degrades to a recompile, never to the wrong design.
// Both sides of the wire keep one: the worker so a batch of sub-jobs for
// one design parses and elaborates it once ever (and keeps its compiled
// tape program and warm memo tables attached via the design's engine
// cache), the coordinator so partitioning a repeat request costs a map
// probe instead of an elaboration.
type designCache struct {
	mu  sync.Mutex
	ent map[uint64]*list.Element
	lru *list.List // front = most recently used
}

type designEntry struct {
	key uint64
	src string
	d   *netlist.Design
}

// designCacheSize bounds a design cache's LRU.
const designCacheSize = 64

func newDesignCache() *designCache {
	return &designCache{ent: make(map[uint64]*list.Element), lru: list.New()}
}

// srcHash is the cache key: plain FNV-64a over the source text (no
// option mixing — the compiled design is option-independent).
func srcHash(src string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(src); i++ {
		h = (h ^ uint64(src[i])) * 1099511628211
	}
	return h
}

// compile returns the design compiled from src, from cache when the
// exact text has been seen, compiling and caching otherwise.  Concurrent
// callers may race to compile the same new text; both results are valid
// and the second insert wins harmlessly.
func (c *designCache) compile(src string) (*netlist.Design, error) {
	key := srcHash(src)
	c.mu.Lock()
	if e, ok := c.ent[key]; ok {
		ent := e.Value.(*designEntry)
		if ent.src == src {
			c.lru.MoveToFront(e)
			c.mu.Unlock()
			return ent.d, nil
		}
	}
	c.mu.Unlock()

	f, err := hdl.Parse(src)
	if err != nil {
		return nil, err
	}
	d, _, err := expand.Expand(f)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.ent[key]; ok {
		// Replace (collision or racing insert): drop the old element.
		c.lru.Remove(e)
		delete(c.ent, key)
	}
	c.ent[key] = c.lru.PushFront(&designEntry{key: key, src: src, d: d})
	for c.lru.Len() > designCacheSize {
		e := c.lru.Back()
		victim := e.Value.(*designEntry)
		c.lru.Remove(e)
		delete(c.ent, victim.key)
	}
	return d, nil
}

// len reports the number of cached designs, for metrics.
func (c *designCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
