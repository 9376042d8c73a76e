package tape

import (
	"bytes"
	"testing"

	"scaldtv/internal/eval"
	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
)

// keyFixture builds a design with two structurally identical AND gates on
// disjoint nets plus one gate with a different delay, compiles it, and
// returns a signal state where the twin gates see semantically equal
// inputs: sigs[n] and its interned handle ids[n] per net.
func keyFixture(t *testing.T) (*netlist.Design, *Program, []eval.Signal, []uint64) {
	t.Helper()
	b := netlist.NewBuilder("cache-fixture")
	b.SetPeriod(50 * tick.NS)
	b.SetDefaultWire(tick.R(0, 2))
	a1, b1 := b.Net("A1 .S0-10"), b.Net("B1 .S5-20")
	a2, b2 := b.Net("A2 .S0-10"), b.Net("B2 .S5-20")
	o1, o2, o3 := b.Net("O1"), b.Net("O2"), b.Net("O3")
	b.Gate(netlist.KAnd, "G1", tick.R(1, 2), []netlist.NetID{o1}, netlist.Conns(a1), netlist.Conns(b1))
	b.Gate(netlist.KAnd, "G2", tick.R(1, 2), []netlist.NetID{o2}, netlist.Conns(a2), netlist.Conns(b2))
	b.Gate(netlist.KAnd, "G3", tick.R(1, 3), []netlist.NetID{o3}, netlist.Conns(a1), netlist.Conns(b1))
	d := b.MustBuild()
	p, err := For(d)
	if err != nil {
		t.Fatal(err)
	}

	sigs := make([]eval.Signal, len(d.Nets))
	ids := make([]uint64, len(d.Nets))
	env := d.Env()
	for i := range d.Nets {
		w := values.Const(d.Period, values.VU)
		if d.Nets[i].Assert != nil {
			w, err = d.Nets[i].Assert.Waveform(env)
			if err != nil {
				t.Fatal(err)
			}
		}
		sigs[i].Wave, ids[i] = p.Intern.Intern(w)
	}
	return d, p, sigs, ids
}

// TestAppendKeyStructuralSharing: identical instances with semantically
// equal inputs on different nets produce identical keys; a parameter
// change produces a different key.
func TestAppendKeyStructuralSharing(t *testing.T) {
	d, p, sigs, ids := keyFixture(t)
	k1 := p.AppendKey(nil, d, 0, sigs, ids, false)
	k2 := p.AppendKey(nil, d, 1, sigs, ids, false)
	k3 := p.AppendKey(nil, d, 2, sigs, ids, false)
	if !bytes.Equal(k1, k2) {
		t.Errorf("structurally identical gates key differently:\n%x\n%x", k1, k2)
	}
	if bytes.Equal(k1, k3) {
		t.Error("gates with different delays share a key")
	}
	// The site key extends the memo key with the checker intervals.
	site := p.AppendKey(nil, d, 0, sigs, ids, true)
	if !bytes.HasPrefix(site, k1) || len(site) == len(k1) {
		t.Errorf("site key %x does not extend the memo key %x", site, k1)
	}
	d.Prims[0].Setup += tick.NS
	if bytes.Equal(site, p.AppendKey(nil, d, 0, sigs, ids, true)) {
		t.Error("a set-up edit did not change the site key")
	}
	if !bytes.Equal(k1, p.AppendKey(nil, d, 0, sigs, ids, false)) {
		t.Error("a set-up edit changed the memo key; evaluation does not read it")
	}
}

// TestAppendKeyInputSensitivity: changing one input waveform, the
// input's complement rail or its net's wire delay changes the key, and
// undoing the change restores it.
func TestAppendKeyInputSensitivity(t *testing.T) {
	d, p, sigs, ids := keyFixture(t)
	for i := range d.Nets {
		sigs[i].Wave, ids[i] = p.Intern.Intern(values.Const(d.Period, values.VS))
	}
	base := p.AppendKey(nil, d, 0, sigs, ids, false)

	a1 := d.Prims[0].In[0].Bits[0].Net
	saveW, saveID := sigs[a1].Wave, ids[a1]
	sigs[a1].Wave, ids[a1] = p.Intern.Intern(values.Const(d.Period, values.VC))
	if bytes.Equal(base, p.AppendKey(nil, d, 0, sigs, ids, false)) {
		t.Error("changing an input waveform did not change the key")
	}
	sigs[a1].Wave, ids[a1] = saveW, saveID
	if restored := p.AppendKey(nil, d, 0, sigs, ids, false); !bytes.Equal(base, restored) {
		t.Error("restoring the input did not restore the key")
	}

	// Wire delays are read live: an in-place override changes the key of
	// the same program.
	d.Nets[a1].Wire = &tick.Range{Min: tick.NS, Max: 4 * tick.NS}
	if bytes.Equal(base, p.AppendKey(nil, d, 0, sigs, ids, false)) {
		t.Error("setting the input net's wire delay did not change the key")
	}
	d.Nets[a1].Wire = nil
	if !bytes.Equal(base, p.AppendKey(nil, d, 0, sigs, ids, false)) {
		t.Error("clearing the wire override did not restore the key")
	}

	// The complement rail is structure: flipping it goes through
	// RebuildFanout and a recompile, whose flat table carries the flip.
	d.Prims[0].In[0].Bits[0].Invert = true
	d.RebuildFanout()
	q, err := For(d)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(base, q.AppendKey(nil, d, 0, sigs, ids, false)) {
		t.Error("flipping the input's complement rail did not change the key")
	}
}

// TestCacheHitMatchesEvaluation: for every driving primitive in the
// fixture, the cached result equals a fresh evaluation.
func TestCacheHitMatchesEvaluation(t *testing.T) {
	d, p, sigs, ids := keyFixture(t)
	get := func(n netlist.NetID) eval.Signal { return sigs[n] }
	c := eval.NewCache()
	for pi := range d.Prims {
		key := p.AppendKey(nil, d, netlist.PrimID(pi), sigs, ids, false)
		fresh, err := eval.Prim(d, &d.Prims[pi], get)
		if err != nil {
			t.Fatal(err)
		}
		if cached, _, ok := c.Get(key); ok {
			for i := range fresh {
				if !cached[i].Wave.Equal(fresh[i].Wave) || cached[i].Dirs != fresh[i].Dirs {
					t.Errorf("prim %d: cached output %d differs from evaluation", pi, i)
				}
			}
			continue
		}
		c.Put(key, fresh, nil)
	}
	if hits, _, _ := c.Stats(); hits != 1 {
		t.Errorf("%d cache hits, want 1 (the structurally identical twin)", hits)
	}
}
