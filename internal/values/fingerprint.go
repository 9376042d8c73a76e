package values

import (
	"sync"
	"sync/atomic"
)

// Fingerprint returns a 64-bit structural hash of the waveform: its period,
// its out-of-band skew, and the canonical (normalized) segment list.  Two
// semantically Equal waveforms always have the same fingerprint, whatever
// segmentation they were built with: the normalized form — adjacent
// equal-valued segments merged, zero-width segments dropped, the first
// segment anchored at time 0 — is uniquely determined by the periodic step
// function the waveform denotes, so hashing it hashes the semantics.
//
// The converse does not hold (64 bits can collide); callers needing exact
// identity use an Interner, which disambiguates colliding fingerprints and
// hands out genuinely unique handles.
func (w Waveform) Fingerprint() uint64 {
	if !w.normalized() {
		w = w.normalize()
	}
	// FNV-1a over the canonical encoding.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	mix(uint64(w.Period))
	mix(uint64(w.Skew))
	for _, s := range w.Segs {
		h ^= uint64(s.V)
		h *= prime64
		mix(uint64(s.W))
	}
	return h
}

// normalized reports whether the segment list is already in canonical form,
// so Fingerprint can skip the normalizing copy on the (overwhelmingly
// common) waveforms produced by the value algebra, which normalizes on
// construction.
func (w Waveform) normalized() bool {
	for i, s := range w.Segs {
		if s.W == 0 {
			return false
		}
		if i > 0 && w.Segs[i-1].V == s.V {
			return false
		}
	}
	return true
}

// canonEqual reports exact equality of two canonical (normalized)
// waveforms.  On normalized forms it agrees with the semantic Equal but
// runs without allocating.
func canonEqual(a, b Waveform) bool {
	if a.Period != b.Period || a.Skew != b.Skew || len(a.Segs) != len(b.Segs) {
		return false
	}
	for i := range a.Segs {
		if a.Segs[i] != b.Segs[i] {
			return false
		}
	}
	return true
}

// internShards is the number of independent lock stripes.  Must be a
// power of two.  Waveforms are routed to a stripe by fingerprint, so
// concurrent interning of distinct waveforms rarely contends on a lock.
const internShards = 32

// Interner deduplicates waveforms (hash-consing): semantically Equal
// waveforms intern to one shared canonical copy — so their segment storage
// is shared — and to one unique handle.  Distinct waveforms always receive
// distinct handles, even when their 64-bit fingerprints collide, which lets
// handles stand in for full waveform comparisons: id(a) == id(b) ⇔
// a.Equal(b).
//
// An Interner is safe for concurrent use.  The table is striped into
// internShards independently locked shards keyed by fingerprint; handle
// ids come from one shared atomic counter, so ids are unique across the
// whole table but their numeric order depends on interning order.
type Interner struct {
	shards [internShards]internShard
	next   atomic.Uint64
	hits   atomic.Int64
}

type internShard struct {
	mu      sync.RWMutex
	buckets map[uint64][]internEntry
}

type internEntry struct {
	w  Waveform
	id uint64
}

// NewInterner returns an empty interning table.
func NewInterner() *Interner {
	in := &Interner{}
	for i := range in.shards {
		in.shards[i].buckets = make(map[uint64][]internEntry)
	}
	return in
}

// Intern returns the canonical copy of w and its unique handle.  The first
// time a waveform value is seen, its normalized form is stored and becomes
// the canonical copy; later Equal waveforms return that same copy.
func (in *Interner) Intern(w Waveform) (Waveform, uint64) {
	if !w.normalized() {
		w = w.normalize()
	}
	fp := w.Fingerprint()
	sh := &in.shards[fp&(internShards-1)]
	sh.mu.RLock()
	for _, e := range sh.buckets[fp] {
		if canonEqual(e.w, w) {
			sh.mu.RUnlock()
			in.hits.Add(1)
			return e.w, e.id
		}
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Re-check under the write lock: another goroutine may have inserted
	// the same waveform between the two lock acquisitions.
	for _, e := range sh.buckets[fp] {
		if canonEqual(e.w, w) {
			in.hits.Add(1)
			return e.w, e.id
		}
	}
	// The canonical copy owns its segment storage: the caller keeps its
	// slice, and the table must not alias memory it may later overwrite.
	if len(w.Segs) > 0 {
		w.Segs = append([]Segment(nil), w.Segs...)
	}
	e := internEntry{w: w, id: in.next.Add(1)}
	sh.buckets[fp] = append(sh.buckets[fp], e)
	return e.w, e.id
}

// Stats reports the table's activity: unique is the number of distinct
// waveforms stored, shared the number of Intern calls that were served an
// existing copy (the storage actually deduplicated).
func (in *Interner) Stats() (unique, shared int) {
	return int(in.next.Load()), int(in.hits.Load())
}
