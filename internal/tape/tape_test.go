package tape

import (
	"slices"
	"testing"

	"scaldtv/internal/assertion"
	"scaldtv/internal/gen"
	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
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
	// in port order: net, complement rail and pin directives.
	if len(p.ConnInvert) != len(p.ConnNet) || len(p.ConnDirs) != len(p.ConnNet) {
		t.Fatalf("conn columns sized %d/%d/%d", len(p.ConnNet), len(p.ConnInvert), len(p.ConnDirs))
	}
	inverted := 0
	for pi := range d.Prims {
		span := p.ConnSpan[pi]
		k := int(span[0])
		for _, port := range d.Prims[pi].In {
			for _, c := range port.Bits {
				if k >= int(span[1]) || p.ConnNet[k] != c.Net || p.ConnInvert[k] != c.Invert || p.ConnDirs[k] != c.Directives {
					t.Fatalf("prim %d: flat conn table diverges at index %d", pi, k)
				}
				if c.Invert {
					inverted++
				}
				k++
			}
		}
		if k != int(span[1]) {
			t.Fatalf("prim %d: span [%d,%d) but %d conns", pi, span[0], span[1], k-int(span[0]))
		}
	}
	if inverted == 0 {
		t.Errorf("degenerate fixture: no connection uses the complement rail")
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

// TestRefreshGeneration checks the seed image's generation guard.  An
// in-place edit to any field buildSeeds reads rebuilds the image, and the
// rebuilt image survives a no-op refresh.  An edit it does not read — a
// primitive delay, a net's wire override, both read live by the memo and
// site keys — keeps the image.  Either way the image equals a fresh
// compile's of the edited design.
func TestRefreshGeneration(t *testing.T) {
	// clockAssert returns the assertion of the design's first clock net.
	clockAssert := func(t *testing.T, d *netlist.Design) *assertion.Assertion {
		for i := range d.Nets {
			if a := d.Nets[i].Assert; a != nil && len(a.Ranges) > 0 &&
				(a.Kind == assertion.Clock || a.Kind == assertion.PrecisionClock) {
				return a
			}
		}
		t.Fatal("no clock-asserted net")
		return nil
	}
	for _, tc := range []struct {
		name    string
		edit    func(t *testing.T, d *netlist.Design)
		rebuild bool
	}{
		{"period", func(t *testing.T, d *netlist.Design) { d.Period += d.ClockUnit }, true},
		{"clock unit", func(t *testing.T, d *netlist.Design) { d.ClockUnit /= 2 }, true},
		{"precision skew", func(t *testing.T, d *netlist.Design) { d.PrecisionSkew.Max += tick.NS }, true},
		{"clock skew", func(t *testing.T, d *netlist.Design) { d.ClockSkew.Max += tick.NS }, true},
		{"assertion ranges", func(t *testing.T, d *netlist.Design) { clockAssert(t, d).Ranges[0].End++ }, true},
		{"assertion skew", func(t *testing.T, d *netlist.Design) {
			clockAssert(t, d).Skew = &tick.Range{Min: -tick.NS, Max: 2 * tick.NS}
		}, true},
		{"assertion polarity", func(t *testing.T, d *netlist.Design) {
			a := clockAssert(t, d)
			a.LowAsserted = !a.LowAsserted
		}, true},
		{"primitive delay", func(t *testing.T, d *netlist.Design) {
			for pi := range d.Prims {
				if !d.Prims[pi].Kind.IsChecker() {
					d.Prims[pi].Delay.Min++
					d.Prims[pi].Delay.Max++
					return
				}
			}
		}, false},
		{"net wire", func(t *testing.T, d *netlist.Design) {
			for i := range d.Nets {
				if d.Nets[i].Driver != netlist.NoDriver {
					d.Nets[i].Wire = &tick.Range{Min: tick.NS, Max: 3 * tick.NS}
					return
				}
			}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := testDesign(t, 101)
			p, err := For(d)
			if err != nil {
				t.Fatalf("for: %v", err)
			}
			seeds0 := p.Seeds()
			if err := p.Refresh(d); err != nil {
				t.Fatalf("refresh: %v", err)
			}
			if p.Seeds() != seeds0 {
				t.Fatalf("refresh of an unchanged design rebuilt the seed image")
			}
			tc.edit(t, d)
			if err := p.Refresh(d); err != nil {
				t.Fatalf("refresh after edit: %v", err)
			}
			seeds1 := p.Seeds()
			if rebuilt := seeds1 != seeds0; rebuilt != tc.rebuild {
				t.Fatalf("edit rebuilt the seed image: %v, want %v", rebuilt, tc.rebuild)
			}
			if err := p.Refresh(d); err != nil {
				t.Fatalf("second refresh: %v", err)
			}
			if p.Seeds() != seeds1 {
				t.Errorf("refresh after a no-op rebuilt the image again")
			}
			fresh, err := Compile(d)
			if err != nil {
				t.Fatalf("compile edited design: %v", err)
			}
			sameSeeds(t, seeds1, fresh.Seeds())
		})
	}
}

// sameSeeds asserts two seed images agree on every waveform, pin flag,
// assertion net and cross-reference entry.  Handles are interner-local,
// so waveforms compare by content.
func sameSeeds(t *testing.T, got, want *Seeds) {
	t.Helper()
	if len(got.Initial) != len(want.Initial) {
		t.Fatalf("seed image covers %d nets, want %d", len(got.Initial), len(want.Initial))
	}
	for i := range want.Initial {
		if !got.Initial[i].Equal(want.Initial[i]) || got.Pinned[i] != want.Pinned[i] {
			t.Fatalf("net %d: seed %v pinned=%v, fresh compile %v pinned=%v",
				i, got.Initial[i], got.Pinned[i], want.Initial[i], want.Pinned[i])
		}
	}
	if !slices.Equal(got.AssertNets, want.AssertNets) || !slices.Equal(got.Undefined, want.Undefined) {
		t.Errorf("assertion nets or cross-reference differ from a fresh compile")
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
