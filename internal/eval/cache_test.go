package eval

import (
	"testing"

	"scaldtv/internal/tick"
	"scaldtv/internal/values"
)

// TestCacheRoundTrip: a stored evaluation is returned on hit, under any
// byte slice holding the same key, and the counters track hits and
// misses.
func TestCacheRoundTrip(t *testing.T) {
	c := NewCache()
	key := []byte{byte(0x11), 2, 0xA5, 0, 7}
	if _, _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	w := values.Const(50*tick.NS, values.VS).Paint(10*tick.NS, 20*tick.NS, values.VC)
	outs, ids := []Signal{{Wave: w, Dirs: "A"}}, []uint64{42}
	c.Put(key, outs, ids)
	cached, cachedIDs, ok := c.Get(key)
	if !ok {
		t.Fatal("stored entry not found")
	}
	if len(cached) != 1 || !cached[0].Wave.Equal(w) || cached[0].Dirs != "A" || len(cachedIDs) != 1 || cachedIDs[0] != 42 {
		t.Errorf("cached entry %v %v differs from the stored one", cached, cachedIDs)
	}
	// A reused scratch buffer holding the same bytes hits the same entry.
	buf := append(make([]byte, 0, 16), key...)
	if _, _, ok := c.Get(buf); !ok {
		t.Error("an equal key in another buffer missed the entry")
	}
	if hits, misses, entries := c.Stats(); hits != 2 || misses != 1 || entries != 1 {
		t.Errorf("stats = (%d hits, %d misses, %d entries), want (2, 1, 1)", hits, misses, entries)
	}
}
