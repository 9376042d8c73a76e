package verify

import (
	"fmt"
	"math/rand"
	"testing"

	"scaldtv/internal/assertion"
	"scaldtv/internal/gen"
	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
)

// The metamorphic property under test: for any sequence of parameter
// edits, Reverify after each edit must produce a report bit-identical to
// a from-scratch Verify of the edited design — same violations in the
// same order, same margins, same kept waveforms, for every worker count —
// and to a from-scratch Reference run.

// gateSwaps lists the same-shape instance swaps: one-input gates trade
// among themselves, multi-input gates among themselves.
var oneInSwaps = []netlist.Kind{netlist.KBuf, netlist.KNot}
var multiInSwaps = []netlist.Kind{netlist.KAnd, netlist.KOr, netlist.KNand, netlist.KNor, netlist.KXor, netlist.KChg}

// randomEdit applies one random, validity-preserving parameter edit to d
// and returns the change set describing it plus a human-readable tag.
func randomEdit(t *testing.T, d *netlist.Design, rng *rand.Rand) (netlist.Changes, string) {
	t.Helper()
	cu := d.ClockUnit
	if cu == 0 {
		cu = tick.NS
	}
	maxU := float64(d.Period) / float64(cu)
	for tries := 0; tries < 1000; tries++ {
		switch rng.Intn(6) {
		case 0: // propagation-delay bump on a driving primitive
			pi := netlist.PrimID(rng.Intn(len(d.Prims)))
			p := &d.Prims[pi]
			if p.Kind.IsChecker() {
				continue
			}
			delta := tick.Time(rng.Intn(9)-4) * tick.NS / 10
			if p.RF != nil {
				if p.RF.Rise.Max+delta < p.RF.Rise.Min {
					continue
				}
				p.RF.Rise.Max += delta
				return netlist.Changes{Prims: []netlist.PrimID{pi}}, fmt.Sprintf("rf bump %q %+d ps", p.Name, delta)
			}
			if p.Delay.Max+delta < p.Delay.Min {
				continue
			}
			p.Delay.Max += delta
			return netlist.Changes{Prims: []netlist.PrimID{pi}}, fmt.Sprintf("delay bump %q %+d ps", p.Name, delta)
		case 1: // checker-interval tweak
			pi := netlist.PrimID(rng.Intn(len(d.Prims)))
			p := &d.Prims[pi]
			delta := tick.Time(rng.Intn(5)-2) * tick.NS / 5
			switch p.Kind {
			case netlist.KSetupHold, netlist.KSetupRiseHoldFall:
				if p.Setup+delta < 0 {
					continue
				}
				p.Setup += delta
				return netlist.Changes{Prims: []netlist.PrimID{pi}}, fmt.Sprintf("setup tweak %q %+d ps", p.Name, delta)
			case netlist.KMinPulse:
				if p.MinHigh+delta <= 0 {
					continue
				}
				p.MinHigh += delta
				return netlist.Changes{Prims: []netlist.PrimID{pi}}, fmt.Sprintf("minpulse tweak %q %+d ps", p.Name, delta)
			}
		case 2: // same-shape instance swap
			pi := netlist.PrimID(rng.Intn(len(d.Prims)))
			p := &d.Prims[pi]
			set := multiInSwaps
			if len(p.In) == 1 && len(p.In[0].Bits) == 1 {
				set = oneInSwaps
			}
			ok := false
			for _, k := range set {
				if p.Kind == k {
					ok = true
				}
			}
			if !ok {
				continue
			}
			nk := set[rng.Intn(len(set))]
			if nk == p.Kind {
				continue
			}
			old := p.Kind
			p.Kind = nk
			return netlist.Changes{Prims: []netlist.PrimID{pi}}, fmt.Sprintf("swap %q %v -> %v", p.Name, old, nk)
		case 3: // wire-delay override set or cleared
			id := netlist.NetID(rng.Intn(len(d.Nets)))
			n := &d.Nets[id]
			if n.Wire != nil && rng.Intn(2) == 0 {
				n.Wire = nil
				return netlist.Changes{Nets: []netlist.NetID{id}}, fmt.Sprintf("wire clear %q", n.Name)
			}
			w := tick.R(0, float64(rng.Intn(4)))
			n.Wire = &w
			return netlist.Changes{Nets: []netlist.NetID{id}}, fmt.Sprintf("wire %q -> %v", n.Name, w)
		case 4, 5: // assertion window tweak, stable or clock
			id := netlist.NetID(rng.Intn(len(d.Nets)))
			n := &d.Nets[id]
			if n.Assert == nil || len(n.Assert.Ranges) == 0 {
				continue
			}
			na := *n.Assert
			na.Ranges = append(na.Ranges[:0:0], na.Ranges...)
			r := &na.Ranges[rng.Intn(len(na.Ranges))]
			if r.IsWidth {
				continue
			}
			delta := 0.25
			if rng.Intn(2) == 0 {
				delta = -0.25
			}
			if r.End+delta <= r.Start || r.End+delta > maxU {
				delta = -delta
			}
			if r.End+delta <= r.Start || r.End+delta > maxU {
				continue
			}
			r.End += delta
			// Install the rewritten assertion on every net of the base, so
			// the per-signal consistency rule (§2.5.1) keeps holding.
			var ids []netlist.NetID
			for j := range d.Nets {
				if d.Nets[j].Base == n.Base && d.Nets[j].Assert != nil {
					d.Nets[j].Assert = &na
					ids = append(ids, netlist.NetID(j))
				}
			}
			return netlist.Changes{Nets: ids}, fmt.Sprintf("assert tweak %q end %+0.2f units", n.Name, delta)
		}
	}
	t.Fatal("no applicable random edit found after 1000 tries")
	return netlist.Changes{}, ""
}

// TestMetamorphicReverify runs randomized edit sequences over generated
// designs and checks the bit-identity contract for Workers 1, 2 and 8.
// Each row's edit stream is seeded by its index and the worker count
// unless the row pins a seed.  The nocache and intra rows check the
// incremental tape against the memo-free Reference instead of Run; the
// kindswap row pins a seed whose third edit swaps a table gate (OR) for
// CHG on a design whose compiled tape the edit keeps.  Run with -race: the concurrent reverify path
// shares the interner, evaluation cache and initial-waveform table across
// case workers.
func TestMetamorphicReverify(t *testing.T) {
	type cfgCase struct {
		name string
		cfg  gen.Config
		ref  bool  // compare against Reference instead of Run
		seed int64 // fixed edit-stream seed; 0 derives it from the row
	}
	plain := gen.Config{Chips: 34, Cases: 2, Inject: 1}
	cfgs := []cfgCase{
		{name: "plain", cfg: plain},
		{name: "varcycle", cfg: gen.Config{Chips: 51, VariableCycle: true, Cases: 2}},
		{name: "nocache", cfg: gen.Config{Chips: 34, Cases: 2}, ref: true},
		{name: "intra", cfg: plain, ref: true},
		{name: "kindswap", cfg: plain, seed: 2008},
	}
	const steps = 5
	for _, workers := range []int{1, 2, 8} {
		for ci, c := range cfgs {
			c, workers, ci := c, workers, ci
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				t.Parallel()
				seed := c.seed
				if seed == 0 {
					seed = int64(1000*ci + workers)
				}
				rng := rand.New(rand.NewSource(seed))
				d, _, err := gen.Generate(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{Workers: workers, KeepWaves: true, Margins: true}
				scratchRun := Run
				if c.ref {
					scratchRun = Reference
				}
				V := NewVerifier(d, opts)
				if _, err := V.Verify(); err != nil {
					t.Fatal(err)
				}
				for step := 0; step < steps; step++ {
					ch, desc := randomEdit(t, d, rng)
					inc, err := V.Reverify(ch)
					if err != nil {
						t.Fatalf("step %d (%s): %v", step, desc, err)
					}
					if !inc.Stats.Incremental {
						t.Fatalf("step %d (%s): fell back to a full run", step, desc)
					}
					scratch, err := scratchRun(d, opts)
					if err != nil {
						t.Fatalf("step %d (%s): scratch: %v", step, desc, err)
					}
					sameReports(t, fmt.Sprintf("step %d (%s)", step, desc), scratch, inc)
				}
			})
		}
	}
}

// TestMetamorphicEditsExerciseAssertKinds sanity-checks that the edit
// generator can hit clock assertions, not only stable ones — otherwise
// the pinned re-seeding path would go untested.
func TestMetamorphicEditsExerciseAssertKinds(t *testing.T) {
	d, _, err := gen.Generate(gen.Config{Chips: 34})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	kinds := map[assertion.Kind]bool{}
	for i := 0; i < 300; i++ {
		ch, _ := randomEdit(t, d, rng)
		for _, id := range ch.Nets {
			if a := d.Nets[id].Assert; a != nil {
				kinds[a.Kind] = true
			}
		}
	}
	if !kinds[assertion.Stable] || !(kinds[assertion.PrecisionClock] || kinds[assertion.Clock]) {
		t.Errorf("edit generator never touched both assertion families: %v", kinds)
	}
}
