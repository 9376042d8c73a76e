package netlist_test

import (
	"testing"

	"scaldtv/internal/gen"
	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
)

func genDesign(t *testing.T, cfg gen.Config) *netlist.Design {
	t.Helper()
	d, _, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFingerprintDeterministic locks that fingerprints are a pure
// function of design content: two independent elaborations of the same
// source hash identically, and differing sources differ.
func TestFingerprintDeterministic(t *testing.T) {
	cfg := gen.Config{Chips: 34, Cases: 2, Inject: 1}
	a := genDesign(t, cfg)
	b := genDesign(t, cfg)
	if netlist.Fingerprint(a) != netlist.Fingerprint(b) {
		t.Error("same source, different Fingerprint")
	}
	c := genDesign(t, gen.Config{Chips: 51, Cases: 2})
	if netlist.Fingerprint(a) == netlist.Fingerprint(c) {
		t.Error("different designs share a Fingerprint")
	}
}

// TestStructuralFingerprintMatchesDiff locks how Diff classifies edits:
// each parameter-level edit is accepted and changes the fingerprint, and
// each structural edit is rejected.  It is named for the structural
// fingerprint that once mirrored this classification, which went when
// nothing read it.
func TestStructuralFingerprintMatchesDiff(t *testing.T) {
	cfg := gen.Config{Chips: 34, Cases: 2, Inject: 1}
	base := genDesign(t, cfg)

	paramEdits := []struct {
		name string
		edit func(d *netlist.Design)
	}{
		{"delay bump", func(d *netlist.Design) {
			for i := range d.Prims {
				if !d.Prims[i].Kind.IsChecker() && d.Prims[i].RF == nil {
					d.Prims[i].Delay.Max += tick.NS / 10
					return
				}
			}
			t.Fatal("no plain-delay primitive")
		}},
		{"instance rename", func(d *netlist.Design) {
			d.Prims[0].Name += " X"
		}},
		{"same-shape kind swap", func(d *netlist.Design) {
			for i := range d.Prims {
				p := &d.Prims[i]
				if p.Kind == netlist.KAnd {
					p.Kind = netlist.KOr
					return
				}
				if p.Kind == netlist.KOr {
					p.Kind = netlist.KAnd
					return
				}
			}
			t.Fatal("no swappable gate")
		}},
		{"wire override", func(d *netlist.Design) {
			w := tick.R(0, 3)
			d.Nets[0].Wire = &w
		}},
		{"checker tweak", func(d *netlist.Design) {
			for i := range d.Prims {
				if d.Prims[i].Kind == netlist.KSetupHold {
					d.Prims[i].Setup += tick.NS / 5
					return
				}
			}
			t.Skip("no setup/hold checker in generated design")
		}},
		{"assertion range tweak", func(d *netlist.Design) {
			for i := range d.Nets {
				n := &d.Nets[i]
				if n.Assert == nil || len(n.Assert.Ranges) == 0 || n.Assert.Ranges[0].IsWidth {
					continue
				}
				na := *n.Assert
				na.Ranges = append(na.Ranges[:0:0], na.Ranges...)
				na.Ranges[0].Start += 0.125
				for j := range d.Nets {
					if d.Nets[j].Base == n.Base && d.Nets[j].Assert != nil {
						d.Nets[j].Assert = &na
					}
				}
				return
			}
			t.Fatal("no asserted net with a time range")
		}},
	}
	for _, pe := range paramEdits {
		t.Run("param/"+pe.name, func(t *testing.T) {
			d := genDesign(t, cfg)
			pe.edit(d)
			if _, ok := netlist.Diff(base, d); !ok {
				t.Fatalf("Diff rejected %s as structural", pe.name)
			}
			if pe.name != "checker tweak" && netlist.Fingerprint(d) == netlist.Fingerprint(base) {
				t.Errorf("%s did not change the full fingerprint", pe.name)
			}
		})
	}

	structEdits := []struct {
		name string
		edit func(d *netlist.Design)
	}{
		{"period", func(d *netlist.Design) { d.Period += tick.NS }},
		{"default wire", func(d *netlist.Design) { d.DefaultWire.Max += tick.NS / 4 }},
		{"case label", func(d *netlist.Design) {
			if len(d.Cases) == 0 {
				t.Skip("no cases")
			}
			d.Cases[0].Label += "X"
		}},
		{"rewire input", func(d *netlist.Design) {
			for i := range d.Prims {
				p := &d.Prims[i]
				if len(p.In) == 0 || len(p.In[0].Bits) == 0 {
					continue
				}
				c := &p.In[0].Bits[0]
				c.Net = (c.Net + 1) % netlist.NetID(len(d.Nets))
				return
			}
			t.Fatal("no input connection")
		}},
		{"invert rail", func(d *netlist.Design) {
			for i := range d.Prims {
				p := &d.Prims[i]
				if len(p.In) == 0 || len(p.In[0].Bits) == 0 {
					continue
				}
				p.In[0].Bits[0].Invert = !p.In[0].Bits[0].Invert
				return
			}
			t.Fatal("no input connection")
		}},
	}
	for _, se := range structEdits {
		t.Run("struct/"+se.name, func(t *testing.T) {
			d := genDesign(t, cfg)
			se.edit(d)
			if _, ok := netlist.Diff(base, d); ok {
				t.Fatalf("Diff accepted %s as parameter-level", se.name)
			}
		})
	}
}
