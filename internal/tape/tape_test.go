package tape

import (
	"testing"

	"scaldtv/internal/gen"
	"scaldtv/internal/netlist"
)

func testDesign(t testing.TB, chips int) *netlist.Design {
	t.Helper()
	d, _, err := gen.Generate(gen.Config{Chips: chips})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return d
}

// TestCompileClassification checks the check-plan assignment and the
// flat connection table against the design's own structure.
func TestCompileClassification(t *testing.T) {
	d := testDesign(t, 101)
	p, err := Compile(d)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if p.Lev != d.Levelization() {
		t.Errorf("program does not reuse the design's cached levelization")
	}
	if len(p.Plans) != len(d.Prims) {
		t.Fatalf("plans sized %d, want %d", len(p.Plans), len(d.Prims))
	}
	counts := map[CheckPlan]int{}
	for pi := range d.Prims {
		pr := &d.Prims[pi]
		plan := p.Plans[pi]
		counts[plan]++
		want := PlanNone
		switch {
		case pr.Kind.IsChecker():
			want = PlanSite
		case pr.Kind.IsStorage():
			want = PlanStorage
		case pr.Kind.IsGate() && len(pr.In) > 1:
			want = PlanDirective
		}
		if plan != want {
			t.Errorf("prim %d (%v): plan %v, want %v", pi, pr.Kind, plan, want)
		}
	}
	for _, plan := range []CheckPlan{PlanNone, PlanSite, PlanDirective, PlanStorage} {
		if counts[plan] == 0 {
			t.Errorf("degenerate classification: no %v sites in %v", plan, counts)
		}
	}

	// The flat connection table must mirror every primitive's input bits
	// in evaluation-key order.
	for pi := range d.Prims {
		span := p.ConnSpan[pi]
		k := int(span[0])
		for _, port := range d.Prims[pi].In {
			for _, c := range port.Bits {
				if k >= int(span[1]) || p.ConnNet[k] != c.Net || p.ConnDirs[k] != c.Directives {
					t.Fatalf("prim %d: flat conn table diverges at index %d", pi, k)
				}
				k++
			}
		}
		if k != int(span[1]) {
			t.Fatalf("prim %d: span [%d,%d) but %d conns", pi, span[0], span[1], k-int(span[0]))
		}
	}
}

// TestSeeds checks the seed image: one interned handle per net, pinning
// only on clock-asserted nets, and assertion nets listed in order.
func TestSeeds(t *testing.T) {
	d := testDesign(t, 101)
	p, err := Compile(d)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := p.Seeds()
	if len(s.Initial) != len(d.Nets) || len(s.InitialID) != len(d.Nets) || len(s.Pinned) != len(d.Nets) {
		t.Fatalf("seed tables sized %d/%d/%d, want %d",
			len(s.Initial), len(s.InitialID), len(s.Pinned), len(d.Nets))
	}
	for i := range s.Initial {
		w, id := p.Intern.Intern(s.Initial[i])
		if id != s.InitialID[i] {
			t.Fatalf("net %d: seed handle %d, re-intern gives %d", i, s.InitialID[i], id)
		}
		_ = w
	}
	last := netlist.NetID(-1)
	for _, id := range s.AssertNets {
		if id <= last {
			t.Fatalf("AssertNets not strictly ascending at %d", id)
		}
		last = id
		if d.Nets[id].Assert == nil {
			t.Fatalf("net %d listed in AssertNets without an assertion", id)
		}
	}
}

// TestForWarmPathNoAlloc pins the contract the verifier relies on: after
// the first compile, obtaining the program again allocates nothing.
func TestForWarmPathNoAlloc(t *testing.T) {
	d := testDesign(t, 101)
	first, err := For(d)
	if err != nil {
		t.Fatalf("for: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		p, err := For(d)
		if err != nil || p != first {
			t.Fatalf("warm For: p=%p err=%v", p, err)
		}
	}); allocs != 0 {
		t.Errorf("warm For allocates %.1f objects per call, want 0", allocs)
	}
}

// TestRefreshGeneration checks the environment-generation guard: an
// unchanged design keeps the seed image and warm-slot table, an in-place
// numeric edit swaps in fresh ones (the old slots were computed under the
// old parameters), and the edit is reflected in the reseeded image.
func TestRefreshGeneration(t *testing.T) {
	d := testDesign(t, 101)
	p, err := For(d)
	if err != nil {
		t.Fatalf("for: %v", err)
	}
	seeds0, slots0 := p.Seeds(), p.Slots()
	if err := p.Refresh(d); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if p.Seeds() != seeds0 || p.Slots() != slots0 {
		t.Fatalf("refresh of an unchanged design swapped the seed image or slot table")
	}

	// An in-place numeric edit on any evaluated primitive.
	edited := -1
	for pi := range d.Prims {
		if !d.Prims[pi].Kind.IsChecker() {
			edited = pi
			break
		}
	}
	d.Prims[edited].Delay.Min++
	d.Prims[edited].Delay.Max++
	if err := p.Refresh(d); err != nil {
		t.Fatalf("refresh after edit: %v", err)
	}
	if p.Seeds() == seeds0 {
		t.Errorf("numeric edit did not rebuild the seed image")
	}
	if p.Slots() == slots0 {
		t.Errorf("numeric edit did not discard the warm slot table")
	}

	seeds1, slots1 := p.Seeds(), p.Slots()
	if err := p.Refresh(d); err != nil {
		t.Fatalf("second refresh: %v", err)
	}
	if p.Seeds() != seeds1 || p.Slots() != slots1 {
		t.Errorf("refresh after a no-op swapped the rebuilt image again")
	}
}

// TestNegCache exercises the striped membership set.
func TestNegCache(t *testing.T) {
	c := NewNegCache()
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte{byte(i), byte(i >> 2), 0xA5, byte(i * 7)}
	}
	for _, k := range keys {
		if c.Known(k) {
			t.Fatalf("empty cache knows %x", k)
		}
	}
	for _, k := range keys {
		c.Add(k)
	}
	for _, k := range keys {
		if !c.Known(k) {
			t.Fatalf("added key %x unknown", k)
		}
	}
	hits, misses, entries := c.Stats()
	if hits != len(keys) || misses != len(keys) || entries != len(keys) {
		t.Errorf("stats = %d/%d/%d, want %d/%d/%d",
			hits, misses, entries, len(keys), len(keys), len(keys))
	}
}
