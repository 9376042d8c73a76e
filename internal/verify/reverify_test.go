package verify

import (
	"testing"

	"scaldtv/internal/gen"
	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
)

// findPrim locates a primitive by name.
func findPrim(t *testing.T, d *netlist.Design, name string) netlist.PrimID {
	t.Helper()
	for pi := range d.Prims {
		if d.Prims[pi].Name == name {
			return netlist.PrimID(pi)
		}
	}
	t.Fatalf("primitive %q not found", name)
	return 0
}

// TestReverifyDelayEdit: bumping one buffer's delay and reverifying gives
// the same report as verifying the edited design from scratch, while
// reusing most of the converged waveforms.
func TestReverifyDelayEdit(t *testing.T) {
	for _, workers := range []int{1, 2} {
		d := buildMultiCase(t, 4)
		opts := Options{Workers: workers, KeepWaves: true, Margins: true}
		V := NewVerifier(d, opts)
		if _, err := V.Verify(); err != nil {
			t.Fatal(err)
		}

		pi := findPrim(t, d, "DELAY B")
		d.Prims[pi].Delay.Max += 4 * tick.NS
		inc, err := V.Reverify(netlist.Changes{Prims: []netlist.PrimID{pi}})
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := Run(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameReports(t, "delay edit", scratch, inc)

		if !inc.Stats.Incremental {
			t.Error("Stats.Incremental not set")
		}
		if inc.Stats.DirtyPrims == 0 || inc.Stats.DirtyPrims >= len(d.Prims) {
			t.Errorf("DirtyPrims = %d, want a proper cone of %d prims", inc.Stats.DirtyPrims, len(d.Prims))
		}
		if inc.Stats.ReusedWaves == 0 {
			t.Error("ReusedWaves = 0, expected untouched nets to carry over")
		}
		if inc.Stats.PrimEvals >= scratch.Stats.PrimEvals {
			t.Errorf("incremental PrimEvals %d not below scratch %d", inc.Stats.PrimEvals, scratch.Stats.PrimEvals)
		}
	}
}

// TestReverifySequence: a chain of edits, each reverified, tracks the
// from-scratch result at every step — including edits that revert.
func TestReverifySequence(t *testing.T) {
	d := buildMultiCase(t, 4)
	opts := Options{Workers: 1, KeepWaves: true, Margins: true}
	V := NewVerifier(d, opts)
	if _, err := V.Verify(); err != nil {
		t.Fatal(err)
	}
	chk := findPrim(t, d, "REG CHK")
	buf := findPrim(t, d, "DELAY A")
	steps := []func() netlist.Changes{
		func() netlist.Changes { // tighten the set-up: new violations, zero relaxation
			d.Prims[chk].Setup += 10 * tick.NS
			return netlist.Changes{Prims: []netlist.PrimID{chk}}
		},
		func() netlist.Changes { // slow the shared buffer
			d.Prims[buf].Delay.Max += 2 * tick.NS
			return netlist.Changes{Prims: []netlist.PrimID{buf}}
		},
		func() netlist.Changes { // revert both
			d.Prims[chk].Setup -= 10 * tick.NS
			d.Prims[buf].Delay.Max -= 2 * tick.NS
			return netlist.Changes{Prims: []netlist.PrimID{chk, buf}}
		},
		func() netlist.Changes { // wire-delay edit on the checked net
			id, ok := d.NetByName("R")
			if !ok {
				t.Fatal("net R not found")
			}
			w := tick.R(0, 3)
			d.Nets[id].Wire = &w
			return netlist.Changes{Nets: []netlist.NetID{id}}
		},
	}
	for i, step := range steps {
		ch := step()
		inc, err := V.Reverify(ch)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		scratch, err := Run(d, opts)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		sameReports(t, "sequence step", scratch, inc)
	}
}

// TestReverifyCheckerEditNoRelax: a checker-interval edit requires no
// primitive re-evaluation at all — only the site re-checks.
func TestReverifyCheckerEditNoRelax(t *testing.T) {
	d := buildMultiCase(t, 2)
	V := NewVerifier(d, Options{})
	if _, err := V.Verify(); err != nil {
		t.Fatal(err)
	}
	chk := findPrim(t, d, "REG CHK")
	d.Prims[chk].Setup += 20 * tick.NS
	inc, err := V.Reverify(netlist.Changes{Prims: []netlist.PrimID{chk}})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Stats.PrimEvals != 0 {
		t.Errorf("checker edit scheduled %d evaluations, want 0", inc.Stats.PrimEvals)
	}
	if inc.Stats.ReusedWaves != len(d.Nets)*len(inc.Cases) {
		t.Errorf("ReusedWaves = %d, want every net in every case (%d)",
			inc.Stats.ReusedWaves, len(d.Nets)*len(inc.Cases))
	}
	scratch, err := Run(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "checker edit", scratch, inc)
	tightened := false
	for _, viol := range inc.Violations {
		if viol.Prim == "REG CHK" && viol.Required == d.Prims[chk].Setup {
			tightened = true
		}
	}
	if !tightened {
		t.Error("no violation reflects the tightened set-up requirement")
	}
}

// TestReverifyEmptyChanges: an empty change set reverifies to the
// identical report with zero work.
func TestReverifyEmptyChanges(t *testing.T) {
	d := buildMultiCase(t, 3)
	opts := Options{KeepWaves: true, Margins: true}
	V := NewVerifier(d, opts)
	base, err := V.Verify()
	if err != nil {
		t.Fatal(err)
	}
	inc, err := V.Reverify(netlist.Changes{})
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "empty changes", base, inc)
	if inc.Stats.PrimEvals != 0 || inc.Stats.Events != 0 {
		t.Errorf("empty change set did work: %d evals, %d events", inc.Stats.PrimEvals, inc.Stats.Events)
	}
}

// TestReverifyWithoutVerify: Reverify before any Verify falls back to a
// full run.
func TestReverifyWithoutVerify(t *testing.T) {
	d := buildMultiCase(t, 2)
	V := NewVerifier(d, Options{})
	res, err := V.Reverify(netlist.Changes{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Incremental {
		t.Error("fallback run reported itself incremental")
	}
	if res.Stats.PrimEvals == 0 {
		t.Error("fallback run did no work")
	}
}

// TestUpdateIncremental: Update with a parameter-only edit reverifies
// incrementally; a structural edit falls back to a full verification.
func TestUpdateIncremental(t *testing.T) {
	cfg := gen.Config{Chips: 34, Cases: 2}
	d, _, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{KeepWaves: true, Margins: true}
	V := NewVerifier(d, opts)
	if _, err := V.Verify(); err != nil {
		t.Fatal(err)
	}

	// The same generator config produces a structurally identical design;
	// edit one instance's delay.
	nd, _, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edited := -1
	for pi := range nd.Prims {
		if nd.Prims[pi].Kind == netlist.KBuf || nd.Prims[pi].Kind == netlist.KOr {
			nd.Prims[pi].Delay.Max += tick.NS
			edited = pi
			break
		}
	}
	if edited < 0 {
		t.Fatal("no editable primitive found")
	}
	res, incremental, err := V.Update(nd)
	if err != nil {
		t.Fatal(err)
	}
	if !incremental || !res.Stats.Incremental {
		t.Fatal("parameter-only Update did not reverify incrementally")
	}
	if V.Design() != nd {
		t.Error("Update did not adopt the new design")
	}
	scratch, err := Run(nd, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "update", scratch, res)

	// A structural change — different case list — forces a full run.
	sd, _, err := gen.Generate(gen.Config{Chips: 34, Cases: 3})
	if err != nil {
		t.Fatal(err)
	}
	res2, incremental2, err := V.Update(sd)
	if err != nil {
		t.Fatal(err)
	}
	if incremental2 || res2.Stats.Incremental {
		t.Error("structural Update claimed to be incremental")
	}
	scratch2, err := Run(sd, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "structural update", scratch2, res2)
}

// TestVerifierRepeatedFullRuns: calling Verify twice reuses the warm
// interner/cache and still reproduces the one-shot Run result.
func TestVerifierRepeatedFullRuns(t *testing.T) {
	d := buildMultiCase(t, 4)
	opts := Options{KeepWaves: true, Margins: true}
	V := NewVerifier(d, opts)
	first, err := V.Verify()
	if err != nil {
		t.Fatal(err)
	}
	second, err := V.Verify()
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "repeat verify", first, second)
	if second.Stats.CacheHits <= first.Stats.CacheHits {
		t.Error("second full run did not hit the retained cache")
	}
}
