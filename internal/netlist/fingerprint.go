package netlist

import (
	"math"

	"scaldtv/internal/tick"
)

// floatBits hashes a float by its IEEE bit pattern, canonicalizing the
// two zeros so -0.0 and +0.0 fingerprint alike.
func floatBits(v float64) uint64 {
	if v == 0 {
		return 0
	}
	return math.Float64bits(v)
}

// Design fingerprinting extends the canonical-form FNV hashing of
// values.Waveform.Fingerprint to whole elaborated netlists, giving the
// persistent verification store (internal/store) its content addresses.
//
// Two fingerprints are defined:
//
//   - Fingerprint covers everything the verifier reads: the full netlist
//     including every parameter, name and assertion spelling.  Two designs
//     with equal Fingerprints verify identically (for identical
//     verify-relevant Options).
//
//   - StructuralFingerprint deliberately excludes exactly the fields Diff
//     classifies as parameter-level edits (delays, checker intervals,
//     same-shape kind swaps, wire overrides, assertion range tweaks and
//     instance names), so that any two designs Diff accepts as
//     structurally identical share a StructuralFingerprint: it names
//     the designs one retained Verifier can Update between
//     incrementally.
//
// Both hashes are FNV-1a with length-prefixed strings, so field
// boundaries cannot alias.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvSum accumulates an FNV-1a hash over typed fields.
type fnvSum struct{ h uint64 }

func newFNV() fnvSum { return fnvSum{h: fnvOffset64} }

func (f *fnvSum) byte(b byte) {
	f.h = (f.h ^ uint64(b)) * fnvPrime64
}

func (f *fnvSum) u64(x uint64) {
	for i := 0; i < 8; i++ {
		f.byte(byte(x >> (8 * i)))
	}
}

func (f *fnvSum) i64(x int64)      { f.u64(uint64(x)) }
func (f *fnvSum) int(x int)        { f.u64(uint64(int64(x))) }
func (f *fnvSum) time(t tick.Time) { f.i64(int64(t)) }
func (f *fnvSum) rng(r tick.Range) { f.time(r.Min); f.time(r.Max) }
func (f *fnvSum) bool(b bool)      { f.byte(boolByte(b)) }

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func (f *fnvSum) str(s string) {
	f.int(len(s))
	for i := 0; i < len(s); i++ {
		f.byte(s[i])
	}
}

// rngPtr hashes an optional range: presence bit then the value.
func (f *fnvSum) rngPtr(r *tick.Range) {
	f.bool(r != nil)
	if r != nil {
		f.rng(*r)
	}
}

// Fingerprint returns the full content hash of the design: every field
// the verifier or the report renderer reads.  Fanout indices and the
// levelization cache are derived state and excluded; the name index is
// excluded because it mirrors Nets[i].Name.
func Fingerprint(d *Design) uint64 {
	f := newFNV()
	f.str(d.Name)
	d.hashEnv(&f)
	f.int(len(d.Nets))
	for i := range d.Nets {
		n := &d.Nets[i]
		f.str(n.Name)
		f.str(n.Base)
		f.str(n.Assert.String())
		f.rngPtr(n.Wire)
	}
	f.int(len(d.Prims))
	for i := range d.Prims {
		p := &d.Prims[i]
		f.byte(byte(p.Kind))
		f.str(p.Name)
		f.int(p.Width)
		f.rng(p.Delay)
		f.rng(p.SelectDelay)
		f.bool(p.RF != nil)
		if p.RF != nil {
			f.rng(p.RF.Rise)
			f.rng(p.RF.Fall)
		}
		f.time(p.Setup)
		f.time(p.Hold)
		f.time(p.MinHigh)
		f.time(p.MinLow)
		f.i64(int64(p.Fn))
		d.hashPorts(&f, p, true)
	}
	d.hashCases(&f)
	d.hashDelayFns(&f)
	return f.h
}

// StructuralFingerprint returns a hash of only the structure Diff
// requires to match before it will express an edit as parameter-level
// Changes: the design environment, net identities and assertion kinds,
// primitive shapes and connectivity, and the case table.  The alignment
// invariant, locked by TestStructuralFingerprintMatchesDiff, is:
//
//	Diff(a, b) ok  ⇒  StructuralFingerprint(a) == StructuralFingerprint(b)
func StructuralFingerprint(d *Design) uint64 {
	f := newFNV()
	// d.Name is not compared by Diff, so it is not structural.
	d.hashEnv(&f)
	f.int(len(d.Nets))
	for i := range d.Nets {
		n := &d.Nets[i]
		f.str(n.Name)
		f.str(n.Base)
		// Assertion presence and kind are structural (they pin nets and
		// shape the cross-reference); the range spelling is a parameter.
		f.bool(n.Assert != nil)
		if n.Assert != nil {
			f.byte(byte(n.Assert.Kind))
		}
		// n.Wire is a parameter-level override.
	}
	f.int(len(d.Prims))
	for i := range d.Prims {
		p := &d.Prims[i]
		// Kind enters only through its shape traits, mirroring
		// connectivityEqual: AND ↔ OR is a parameter edit.
		f.bool(p.Kind.IsChecker())
		f.bool(p.Kind.IsStorage())
		f.bool(p.Kind.IsGate())
		f.int(p.Kind.NumSelects())
		f.int(p.Width)
		// The analytic-function binding is structural: Diff refuses edits
		// that change which function (if any) produces a prim's delay.
		f.i64(int64(p.Fn))
		d.hashPorts(&f, p, false)
	}
	d.hashCases(&f)
	d.hashDelayFns(&f)
	return f.h
}

// hashEnv hashes the design-wide verification environment — any change
// here is structural for Diff.
func (d *Design) hashEnv(f *fnvSum) {
	f.time(d.Period)
	f.time(d.ClockUnit)
	f.rng(d.DefaultWire)
	f.rng(d.PrecisionSkew)
	f.rng(d.ClockSkew)
	f.bool(d.WiredOr)
}

// hashPorts hashes the primitive's connections.  Port names are hashed
// only for the full fingerprint: connectivityEqual ignores them, so they
// are not structural.
func (d *Design) hashPorts(f *fnvSum, p *Prim, withNames bool) {
	f.int(len(p.In))
	for pi := range p.In {
		port := &p.In[pi]
		if withNames {
			f.str(port.Name)
		}
		f.int(len(port.Bits))
		for _, c := range port.Bits {
			f.i64(int64(c.Net))
			f.bool(c.Invert)
			f.str(string(c.Directives))
		}
	}
	f.int(len(p.Out))
	for pi := range p.Out {
		port := &p.Out[pi]
		if withNames {
			f.str(port.Name)
		}
		f.int(len(port.Bits))
		for _, n := range port.Bits {
			f.i64(int64(n))
		}
	}
}

// hashDelayFns hashes the analytic delay tables.  They enter both
// fingerprints — Diff treats any change to them as structural, because
// the symbolic margin surfaces a retained run carries are derived from
// these tables, not from the concrete Prim.Delay values.
func (d *Design) hashDelayFns(f *fnvSum) {
	f.int(len(d.Params))
	for i := range d.Params {
		p := &d.Params[i]
		f.str(p.Name)
		f.u64(floatBits(p.Default))
		f.u64(floatBits(p.Lo))
		f.u64(floatBits(p.Hi))
	}
	f.int(len(d.DelayFns))
	for i := range d.DelayFns {
		fn := &d.DelayFns[i]
		for _, a := range [2]Affine{fn.Min, fn.Max} {
			f.time(a.Base)
			f.int(len(a.Coeffs))
			for _, c := range a.Coeffs {
				f.i64(int64(c.Param))
				f.u64(floatBits(c.PS))
			}
		}
	}
}

func (d *Design) hashCases(f *fnvSum) {
	f.int(len(d.Cases))
	for i := range d.Cases {
		c := &d.Cases[i]
		f.str(c.Label)
		f.int(len(c.Assignments))
		for _, a := range c.Assignments {
			f.str(a.Base)
			f.byte(byte(a.Value))
		}
	}
}
