package tape

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"scaldtv/internal/assertion"
	"scaldtv/internal/expand"
	"scaldtv/internal/gen"
	"scaldtv/internal/hdl"
	"scaldtv/internal/lib"
	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
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
	if cap(p.ConnNet) != len(p.ConnNet) || cap(p.ConnInvert) != len(p.ConnInvert) || cap(p.ConnDirs) != len(p.ConnDirs) {
		t.Errorf("conn columns not sized before filling: capacities %d/%d/%d for %d connections",
			cap(p.ConnNet), cap(p.ConnInvert), cap(p.ConnDirs), len(p.ConnNet))
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

// TestSeeds checks the seed image against a fresh per-net rendering
// under the verifier's seeding rule (§2.9 step 1): the assertion
// waveform, pinned for clocks; the always-stable default for an undriven,
// unasserted net; UNKNOWN for any other.  Each net's seed must equal that
// rendering and carry the handle re-interning it gives, and the pin
// flags, assertion nets and cross-reference must be what the rule
// implies.  The designs are the ones internal/expand pins, a generated
// one, and one whose nets spell one assertion through distinct
// *Assertion values.
func TestSeeds(t *testing.T) {
	designs := map[string]*netlist.Design{"gen/chips=101": testDesign(t, 101)}
	for name, src := range seedSources(t) {
		f, err := hdl.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d, _, err := expand.Expand(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		designs[name] = d
	}
	for name, d := range designs {
		p, err := Compile(d)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		s := p.Seeds()
		if len(s.Initial) != len(d.Nets) || len(s.InitialID) != len(d.Nets) || len(s.Pinned) != len(d.Nets) {
			t.Fatalf("%s: seed tables sized %d/%d/%d, want %d", name,
				len(s.Initial), len(s.InitialID), len(s.Pinned), len(d.Nets))
		}
		var assertNets []netlist.NetID
		undefined := map[string]bool{}
		for i := range d.Nets {
			n := &d.Nets[i]
			var want values.Waveform
			pinned := false
			switch {
			case n.Assert != nil:
				if want, err = n.Assert.Waveform(d.Env()); err != nil {
					t.Fatalf("%s: net %q: %v", name, n.Name, err)
				}
				pinned = n.Assert.Kind == assertion.Clock || n.Assert.Kind == assertion.PrecisionClock
				if n.Driver != netlist.NoDriver {
					assertNets = append(assertNets, netlist.NetID(i))
				}
			case n.Driver == netlist.NoDriver:
				want = values.Const(d.Period, values.VS)
				undefined[n.Base] = true
			default:
				want = values.Const(d.Period, values.VU)
			}
			if !s.Initial[i].Equal(want) || s.Pinned[i] != pinned {
				t.Fatalf("%s: net %d %q: seed %v pinned=%v, want %v pinned=%v",
					name, i, n.Name, s.Initial[i], s.Pinned[i], want, pinned)
			}
			if _, id := p.Intern.Intern(want); id != s.InitialID[i] {
				t.Fatalf("%s: net %d %q: seed handle %d, interning its rendering gives %d", name, i, n.Name, s.InitialID[i], id)
			}
		}
		var wantUndef []string
		for base := range undefined {
			wantUndef = append(wantUndef, base)
		}
		slices.Sort(wantUndef)
		if !slices.Equal(s.AssertNets, assertNets) || !slices.Equal(s.Undefined, wantUndef) {
			t.Errorf("%s: assertion nets %v and cross-reference %v, want %v and %v",
				name, s.AssertNets, s.Undefined, assertNets, wantUndef)
		}
	}
}

// seedSources returns the designs internal/expand pins — every example
// with the component library appended, the 16 generator shapes at 51
// chips and a 1003-chip design — and one whose nets spell one assertion
// through distinct *Assertion values: scalars each parse their own, and
// two spellings of one stem share the first one's.
func seedSources(t *testing.T) map[string]string {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.scald"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example designs: %v", err)
	}
	out := map[string]string{}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out["example/"+filepath.Base(p)] = string(src) + "\n" + lib.Prelude
	}
	for s := 0; s < 16; s++ {
		cfg := gen.Config{Chips: 51, Inject: s % 4, Depth: 2 + s/4%2, Feedback: 0.05 * float64(s/8), Cases: 2}
		out[fmt.Sprintf("shape%02d/chips=51", s)] = gen.Source(cfg)
	}
	out["gen/chips=1003"] = gen.Source(gen.Config{Chips: 1003, Inject: 1, Cases: 2})
	out["shared-spellings"] = `design SPELL
period 50ns
clockunit 6.25ns
buf B1 delay=(1,2) ("A .S0-4") -> ("P .S0-4")
buf B2 delay=(1,2) ("B .S0-4") -> ("Q .S0-4")
buf B3 delay=(1,2) ("C .S0.0-4") -> ("R .S0-4"<0:3>)
or B4 delay=(1,2) ("R  .S0-4"<0:3>, "CK .P2-3") -> ("S .S0-4")
buf B5 delay=(1,2) ("CK .P2-3") -> ("CK2 .P2-3")
and B6 delay=(1,2) (FLOAT, "R .S0-4"<4:5>, -"WCK .P2-3 L") -> (U)
setuphold C1 setup=1 hold=1 ("S .S0-4", "CK2 .P2-3")
`
	return out
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
