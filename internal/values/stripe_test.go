package values

import (
	"sync"
	"testing"

	"scaldtv/internal/tick"
)

// The striped interner's contract under concurrency: for every waveform,
// all goroutines receive the SAME handle and the SAME canonical copy —
// exact-handle semantics (id(a) == id(b) ⇔ a.Equal(b)) must survive the
// racy first-insert window where several goroutines miss on the read lock
// and re-check under the write lock.  Run with -race.
func TestInternerConcurrentExactHandles(t *testing.T) {
	const (
		goroutines = 16
		distinct   = 64
		rounds     = 50
	)
	waves := make([]Waveform, distinct)
	for i := range waves {
		w := Const(100*tick.NS, V0)
		w = w.Paint(tick.Time(i+1)*tick.NS, tick.Time(i+20)*tick.NS, V1)
		if i%3 == 0 {
			w = w.WithSkew(tick.Time(i) * tick.NS / 2)
		}
		waves[i] = w
	}

	in := NewInterner()
	got := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]uint64, distinct)
			for r := 0; r < rounds; r++ {
				for i, w := range waves {
					// Rebuild an equal-but-not-identical waveform half the
					// time, so the canonical-copy path is exercised from
					// fresh segment storage too.
					if (g+r)%2 == 1 {
						w = Waveform{Period: w.Period, Skew: w.Skew,
							Segs: append([]Segment(nil), w.Segs...)}
					}
					cw, id := in.Intern(w)
					if r == 0 {
						ids[i] = id
					} else if ids[i] != id {
						t.Errorf("g%d wave %d: handle moved %d -> %d", g, i, ids[i], id)
						return
					}
					if !cw.Equal(waves[i]) {
						t.Errorf("g%d wave %d: canonical copy differs", g, i)
						return
					}
				}
			}
			got[g] = ids
		}(g)
	}
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		for i := range waves {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutines disagree on wave %d: %d vs %d", i, got[g][i], got[0][i])
			}
		}
	}
	// Distinct waveforms must hold distinct handles.
	seen := map[uint64]int{}
	for i, id := range got[0] {
		if j, dup := seen[id]; dup {
			t.Fatalf("waves %d and %d share handle %d", i, j, id)
		}
		seen[id] = i
	}
	unique, shared := in.Stats()
	if unique != distinct {
		t.Errorf("unique = %d, want %d", unique, distinct)
	}
	if wantShared := goroutines*rounds*distinct - distinct; shared != wantShared {
		t.Errorf("shared = %d, want %d", shared, wantShared)
	}
}

// TestInternerOwnsCanonicalStorage: a canonical copy must own its segment
// storage — overwriting the caller's segment slice after Intern must not
// disturb the interned copy.
func TestInternerOwnsCanonicalStorage(t *testing.T) {
	w := Const(100*tick.NS, V0).Paint(10*tick.NS, 30*tick.NS, V1)
	in := NewInterner()
	cw, id := in.Intern(w)
	want := append([]Segment(nil), cw.Segs...)

	// Scribble over the caller's slice.
	for i := range w.Segs {
		w.Segs[i] = Segment{V: VC, W: tick.NS}
	}
	cw2, id2 := in.Intern(Waveform{Period: 100 * tick.NS,
		Segs: append([]Segment(nil), want...)})
	if id2 != id {
		t.Fatalf("handle moved after the caller's slice changed: %d -> %d", id, id2)
	}
	for i := range want {
		if cw2.Segs[i] != want[i] {
			t.Fatalf("canonical segments corrupted through the caller's slice at %d", i)
		}
	}
}
