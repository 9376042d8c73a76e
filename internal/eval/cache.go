// Evaluation memoization (the relaxation-loop hot path): a primitive
// evaluation is a pure function of the primitive's parameters and its
// processed input signals, so its output can be cached and reused — both
// when the relaxation loop revisits a primitive whose inputs have settled
// back to a previously-seen combination, and across the many structurally
// identical primitive instances of a regular design (the same economy that
// motivates the paper's vectored primitives, §3.3.2, applied between
// instances instead of between bits).
//
// Keys are exact, not probabilistic: every quantity Prim reads is encoded
// into the key, and input waveforms are represented by interned handles
// (values.Interner), whose equality coincides with semantic waveform
// equality even under fingerprint collisions.  A cache hit therefore
// returns a value bit-identical to what evaluation would have produced,
// which is what lets the verifier guarantee cached and uncached runs agree
// exactly.
package eval

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
)

// WaveID returns the interned handle of a net's current waveform.  Handle
// equality must imply semantic waveform equality (values.Interner provides
// this).
type WaveID func(netlist.NetID) uint64

// cacheShards is the number of independent lock stripes.  Must be a power
// of two.  Keys are routed to a stripe by an FNV-1a hash of the key bytes,
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
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].m = make(map[string]cacheEntry)
	}
	return c
}

// shard routes a key to its stripe by FNV-1a over the key bytes.
func (c *Cache) shard(key []byte) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return &c.shards[h&(cacheShards-1)]
}

// Get looks up the outputs for a key built with AppendKey, returning the
// signals and their interned waveform handles.  The key is accepted as a
// byte slice so the caller can reuse one scratch buffer across lookups
// without allocating.
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

// NoteHit records a memoization hit served on the cache's behalf by a
// front-line structure (the tape's warm slots), so the hit/miss counters
// reflect every evaluation avoided, whichever layer avoided it.
func (c *Cache) NoteHit() { c.hits.Add(1) }

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

// AppendKey appends the memoization key for evaluating p in the current
// signal state to buf and returns the extended slice.  The key covers
// everything Prim reads:
//
//   - the primitive's kind, width and delay parameters, and the period;
//   - per input bit, the processed-connection identity: the complement
//     rail, the resolved directive head and remainder (a pin directive
//     starts a fresh string, otherwise the incoming signal's continues),
//     the interconnection delay as resolved under that head, and the
//     interned handle of the input waveform.
//
// Two primitives with equal keys are therefore indistinguishable to Prim,
// whichever nets they are wired to, and share one cache entry.
func AppendKey(buf []byte, d *netlist.Design, p *netlist.Prim, get Getter, id WaveID) []byte {
	buf = append(buf, byte(p.Kind))
	buf = binary.AppendUvarint(buf, uint64(p.Width))
	buf = appendTime(buf, d.Period)
	buf = appendRange(buf, p.Delay)
	buf = appendRange(buf, p.SelectDelay)
	if p.RF != nil {
		buf = append(buf, 1)
		buf = appendRange(buf, p.RF.Rise)
		buf = appendRange(buf, p.RF.Fall)
	} else {
		buf = append(buf, 0)
	}
	for _, port := range p.In {
		buf = binary.AppendUvarint(buf, uint64(len(port.Bits)))
		for _, c := range port.Bits {
			sig := get(c.Net)
			dirs := sig.Dirs
			if !c.Directives.Empty() {
				dirs = c.Directives
			}
			head, rest := dirs.Head()
			flags := byte(0)
			if c.Invert {
				flags = 1
			}
			buf = append(buf, flags, byte(head))
			buf = binary.AppendUvarint(buf, uint64(len(rest)))
			buf = append(buf, string(rest)...)
			buf = appendRange(buf, d.WireDelay(c.Net, head))
			buf = binary.AppendUvarint(buf, id(c.Net))
		}
	}
	return buf
}

func appendTime(buf []byte, t tick.Time) []byte {
	return binary.AppendVarint(buf, int64(t))
}

func appendRange(buf []byte, r tick.Range) []byte {
	return appendTime(appendTime(buf, r.Min), r.Max)
}
