package netlist

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"scaldtv/internal/assertion"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
)

// Builder constructs a Design programmatically.  Errors stick: the first
// failure is remembered and reported by Build, so construction code reads
// linearly without per-call error handling.
type Builder struct {
	d   *Design
	err error

	// names maps every net's full name to its ID while the design is
	// built.  It is read when a net is about to be created, so every
	// spelling of one name is one net, and for scalar references; never
	// for a bit a symbol's table already holds.  Build drops it.
	names map[string]NetID

	syms   []symbol       // vector spellings resolved by Symbol
	symIdx map[string]Sym // spelling → index into syms
	buf    []byte         // reused bit-name buffer

	// wantNets and wantPrims are the counts Reserve was given; a full
	// table grows to them in one step (see regrow).
	wantNets, wantPrims int
}

// Sym identifies a vector spelling resolved by Builder.Symbol.
type Sym int32

// Stem is what the bit names of a vector spelling share: bit i is named
// Base<i>Suffix.  Spellings with one stem ("X .S0-4", "X  .S0-4") name
// the same nets.
type Stem struct {
	Base   string // the spelling with its assertion stripped
	Suffix string // " ‹assertion›" after each bit's subscript, or ""
}

// symbol is one vector spelling ("STG2 Q", "FN .S0-8") with the nets of
// the bits resolved through it.  Its table spans bits lo, lo+1, ...; it
// grows to cover a request only while it stays at most about twice the
// bits it holds, so a far-off bit index costs a name lookup, never a
// table that long.
type symbol struct {
	stem   Stem
	assert *assertion.Assertion // shared by every bit; nil for none
	lo     int                  // bit index of bits[0]
	bits   []NetID              // noNet where the bit's net is not yet known
	known  int                  // entries of bits that are not noNet
}

// noNet marks a symbol table entry whose net is not yet known.
const noNet NetID = -1

// minTable is the table span a symbol may always reach, however few
// bits it holds.
const minTable = 64

// NewBuilder starts a design with the paper's customary defaults: the
// caller must set the period; wire delay defaults to 0.0/2.0 ns and the
// clock skews to the Mark IIA rules (±1 ns precision, ±5 ns non-precision)
// per §3.3.
func NewBuilder(name string) *Builder {
	return &Builder{d: &Design{
		Name:          name,
		ClockUnit:     tick.NS,
		DefaultWire:   tick.R(0, 2),
		PrecisionSkew: tick.R(-1, 1),
		ClockSkew:     tick.R(-5, 5),
	}, names: make(map[string]NetID), symIdx: make(map[string]Sym)}
}

// firstStage is the most entries a table holds room for before the
// design has filled that many: a design that fails early costs no more,
// whatever counts Reserve was given.
const firstStage = 1 << 10

// maxAhead bounds how far past its length a full table grows towards
// the counts Reserve was given: to at most the larger of maxAhead
// entries and twice its length.  Counts that run ahead of the design
// cost no more than that.
const maxAhead = 1 << 17

// Reserve sizes the net and primitive tables, and the build-time name
// map, for the given counts, so none of them regrows more than once
// while the design fills: each starts with room for at most firstStage
// entries, and when it is full it grows to its count in one step (see
// regrow).  Tables grow past the counts as usual if they must.  It is
// for a new Builder: once a net or primitive exists, it does nothing.
func (b *Builder) Reserve(nets, prims int) {
	if len(b.d.Nets) > 0 || len(b.d.Prims) > 0 {
		return
	}
	b.wantNets, b.wantPrims = nets, prims
	b.d.Nets = make([]Net, 0, min(nets, firstStage))
	b.d.Prims = make([]Prim, 0, min(prims, firstStage))
	b.names = make(map[string]NetID, cap(b.d.Nets))
}

// regrow copies a full table into one with room for want entries, but
// for no more than max(maxAhead, 2*len(s)).
func regrow[T any](s []T, want int) []T {
	t := make([]T, len(s), min(want, max(maxAhead, 2*len(s))))
	copy(t, s)
	return t
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("netlist: "+format, args...)
	}
}

// SetPeriod sets the circuit clock period (§2.2).
func (b *Builder) SetPeriod(p tick.Time) *Builder {
	if p <= 0 {
		b.fail("non-positive period %v", p)
	}
	b.d.Period = p
	return b
}

// SetClockUnit sets the designer clock unit (§2.3).
func (b *Builder) SetClockUnit(u tick.Time) *Builder {
	if u <= 0 {
		b.fail("non-positive clock unit %v", u)
	}
	b.d.ClockUnit = u
	return b
}

// SetDefaultWire sets the default interconnection delay (§2.5.3).
func (b *Builder) SetDefaultWire(r tick.Range) *Builder {
	b.d.DefaultWire = r
	return b
}

// SetPrecisionSkew sets the default skew applied to .P clocks.
func (b *Builder) SetPrecisionSkew(r tick.Range) *Builder {
	b.d.PrecisionSkew = r
	return b
}

// SetClockSkew sets the default skew applied to .C clocks.
func (b *Builder) SetClockSkew(r tick.Range) *Builder {
	b.d.ClockSkew = r
	return b
}

// SetWiredOr permits multiply-driven nets, whose drivers combine as a
// wired OR (the ECL output-tying idiom the 10145A data sheet advertises).
func (b *Builder) SetWiredOr(on bool) *Builder {
	b.d.WiredOr = on
	return b
}

// Net returns the net with the given full signal name, creating it on
// first use.  The name may embed an assertion ("W DATA .S0-6").  A new
// net keeps a copy of the name, so the caller's string may point into a
// larger buffer the design must not retain.
func (b *Builder) Net(name string) NetID {
	if id, ok := b.names[name]; ok {
		return id
	}
	name = strings.Clone(name)
	sig, err := assertion.Parse(name)
	if err != nil {
		b.fail("%v", err)
		sig = assertion.Signal{Base: name, Raw: name}
	}
	return b.newNet(name, sig.Base, sig.Assert)
}

func (b *Builder) newNet(name, base string, a *assertion.Assertion) NetID {
	if n := len(b.d.Nets); n == cap(b.d.Nets) && n < b.wantNets {
		b.d.Nets = regrow(b.d.Nets, b.wantNets)
		names := make(map[string]NetID, cap(b.d.Nets))
		maps.Copy(names, b.names)
		b.names = names
	}
	id := NetID(len(b.d.Nets))
	b.d.Nets = append(b.d.Nets, Net{
		Name:   name,
		Base:   base,
		Assert: a,
		Driver: NoDriver,
	})
	b.names[name] = id
	return id
}

// Vector returns width nets named "BASE<i> ‹assertion›", creating them on
// first use.  The assertion suffix, if any, is shared by every bit.
func (b *Builder) Vector(name string, width int) []NetID {
	if width <= 0 {
		b.fail("vector %q with non-positive width %d", name, width)
		width = 1
	}
	s, err := b.Symbol(name)
	if err != nil {
		b.fail("%v", err)
		return make([]NetID, width)
	}
	return slices.Clone(b.Bits(s, 0, width-1))
}

// Symbol resolves a vector spelling, parsing its base name and assertion
// on first use.
func (b *Builder) Symbol(name string) (Sym, error) {
	if s, ok := b.symIdx[name]; ok {
		return s, nil
	}
	sig, err := assertion.Parse(name)
	if err != nil {
		return 0, err
	}
	sy := symbol{stem: Stem{Base: sig.Base}, assert: sig.Assert}
	if sig.Assert != nil {
		sy.stem.Suffix = " " + sig.Assert.String()
	}
	s := Sym(len(b.syms))
	b.syms = append(b.syms, sy)
	b.symIdx[name] = s
	return s, nil
}

// Stem returns the stem of a symbol's bit names.
func (b *Builder) Stem(s Sym) Stem { return b.syms[s].stem }

// Bits returns the nets of bits lo..hi of a vector symbol, creating them
// on first use.  Bit i is named "BASE<i>", followed by " ‹assertion›"
// when the spelling has one; its Base is "BASE<i>" and every bit shares
// the symbol's *Assertion, which must not be mutated afterwards.  A bit
// the symbol's table holds costs an index; any other is looked up by its
// full name before it is created, so two spellings of one bit, or a
// quoted scalar naming it, share its net.  The returned slice may alias
// the table and must not be modified.
func (b *Builder) Bits(s Sym, lo, hi int) []NetID {
	sy := &b.syms[s]
	if !sy.cover(lo, hi) {
		out := make([]NetID, hi-lo+1)
		for i := range out {
			out[i] = b.bitNet(sy, lo+i)
		}
		return out
	}
	tab := sy.bits[lo-sy.lo : hi-sy.lo+1 : hi-sy.lo+1]
	for i, id := range tab {
		if id == noNet {
			tab[i] = b.bitNet(sy, lo+i)
			sy.known++
		}
	}
	return tab
}

// cover widens the table to span bits lo..hi, unless that would leave
// it more than about twice as long as the bits it would then hold.
// Bounds are inclusive, so a bit index at the top of the int range
// cannot overflow.
func (sy *symbol) cover(lo, hi int) bool {
	if len(sy.bits) == 0 {
		sy.lo = lo
	}
	last := sy.lo + (len(sy.bits) - 1)
	nlo, nlast := min(sy.lo, lo), max(last, hi)
	if nlo == sy.lo && nlast == last {
		return true
	}
	if nlast-nlo >= 2*(sy.known+hi-lo+1)+minTable {
		return false
	}
	if nlo < sy.lo {
		grown := make([]NetID, last-nlo+1, 2*(nlast-nlo+1))
		fill(grown[:sy.lo-nlo])
		copy(grown[sy.lo-nlo:], sy.bits)
		sy.lo, sy.bits = nlo, grown
	}
	n := len(sy.bits)
	sy.bits = append(sy.bits, make([]NetID, nlast-nlo+1-n)...)
	fill(sy.bits[n:])
	return true
}

func fill(ids []NetID) {
	for i := range ids {
		ids[i] = noNet
	}
}

// bitNet returns the net of bit i of a symbol, creating it if no net has
// its full name yet.
func (b *Builder) bitNet(sy *symbol, i int) NetID {
	buf := append(append(b.buf[:0], sy.stem.Base...), '<')
	buf = append(strconv.AppendInt(buf, int64(i), 10), '>')
	bitBase := len(buf)
	buf = append(buf, sy.stem.Suffix...)
	b.buf = buf
	if id, ok := b.names[string(buf)]; ok {
		return id
	}
	name := string(buf)
	return b.newNet(name, name[:bitBase], sy.assert)
}

// SetWire overrides the interconnection delay of every given net (§2.5.3,
// e.g. the 0.0/6.0 ns address lines of the Fig 2-5 example).
func (b *Builder) SetWire(r tick.Range, nets ...NetID) *Builder {
	if !r.Valid() {
		b.fail("invalid wire delay %v", r)
		return b
	}
	for _, n := range nets {
		if n < 0 || int(n) >= len(b.d.Nets) {
			b.fail("SetWire: net %d out of range", n)
			return b
		}
		w := r
		b.d.Nets[n].Wire = &w
	}
	return b
}

// NetsByBase returns the nets created so far that belong to the logical
// signal with the given base name.
func (b *Builder) NetsByBase(base string) []NetID { return b.d.NetsByBase(base) }

// Conns wraps nets as plain input connections.
func Conns(nets ...NetID) []Conn {
	out := make([]Conn, len(nets))
	for i, n := range nets {
		out[i] = Conn{Net: n}
	}
	return out
}

// ConnsOf wraps a net slice as plain input connections.
func ConnsOf(nets []NetID) []Conn { return Conns(nets...) }

// Invert returns the complement-rail version of the connections (the
// leading "-" of §3.1).
func Invert(cs []Conn) []Conn {
	out := append([]Conn(nil), cs...)
	for i := range out {
		out[i].Invert = !out[i].Invert
	}
	return out
}

// Directive attaches an evaluation string (§2.6) to the connections.
func (b *Builder) Directive(dirs string, cs []Conn) []Conn {
	d, err := assertion.ParseDirectives(dirs)
	if err != nil {
		b.fail("%v", err)
		return cs
	}
	out := append([]Conn(nil), cs...)
	for i := range out {
		out[i].Directives = d
	}
	return out
}

// broadcast replicates a scalar connection across a width-bit port.
func (b *Builder) broadcast(port []Conn, width int, prim, name string) []Conn {
	if len(port) == width {
		return port
	}
	if len(port) == 1 && width > 1 {
		out := make([]Conn, width)
		for i := range out {
			out[i] = port[0]
		}
		return out
	}
	b.fail("primitive %q port %s has %d bits, want %d", prim, name, len(port), width)
	return make([]Conn, width)
}

func (b *Builder) addPrim(p Prim) PrimID {
	if n := len(b.d.Prims); n == cap(b.d.Prims) && n < b.wantPrims {
		b.d.Prims = regrow(b.d.Prims, b.wantPrims)
	}
	id := PrimID(len(b.d.Prims))
	b.d.Prims = append(b.d.Prims, p)
	return id
}

// Gate adds an n-input combinational gate.  The width is taken from the
// output vector; one-bit inputs are broadcast across wider outputs.  When
// the output is a single bit, multi-bit inputs are split into individual
// input ports, giving reduction gates (an OR across a bus, the CHG over a
// whole data path in Fig 3-9) with no special syntax.
func (b *Builder) Gate(k Kind, name string, delay tick.Range, out []NetID, ins ...[]Conn) PrimID {
	if !k.IsGate() {
		b.fail("Gate called with non-gate kind %v", k)
		return -1
	}
	w := len(out)
	if w == 1 && k != KBuf && k != KNot {
		// One backing array holds every split input bit.
		n := 0
		for _, in := range ins {
			n += len(in)
		}
		bits := make([]Conn, 0, n)
		for _, in := range ins {
			bits = append(bits, in...)
		}
		ins = make([][]Conn, n)
		for i := range ins {
			ins[i] = bits[i : i+1 : i+1]
		}
	}
	p := Prim{Kind: k, Name: name, Width: w, Delay: delay,
		In:  make([]Port, len(ins)),
		Out: []OutPort{{Name: "O", Bits: out}}}
	for i, in := range ins {
		pn := gateInName(i)
		p.In[i] = Port{Name: pn, Bits: b.broadcast(in, w, name, pn)}
	}
	return b.addPrim(p)
}

// Static input port names: I0, I1, ... for gates, S0..S2 and D0..D7 for
// multiplexers.
var (
	gateInNames  = numberedNames('I', 64)
	muxSelNames  = numberedNames('S', 3)
	muxDataNames = numberedNames('D', 8)
)

func numberedNames(prefix byte, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(prefix) + strconv.Itoa(i)
	}
	return out
}

// gateInName names gate input port i; only wide reductions go past the
// table.
func gateInName(i int) string {
	if i < len(gateInNames) {
		return gateInNames[i]
	}
	return "I" + strconv.Itoa(i)
}

// GateRF adds a combinational gate with direction-dependent delays
// (§4.2.2): rising output edges take rise, falling edges fall.
func (b *Builder) GateRF(k Kind, name string, rise, fall tick.Range, out []NetID, ins ...[]Conn) PrimID {
	id := b.Gate(k, name, tick.Range{}, out, ins...)
	if id >= 0 {
		b.d.Prims[id].RF = &RFDelay{Rise: rise, Fall: fall}
	}
	return id
}

// Buf adds a non-inverting buffer or explicit delay element (also used for
// the CORR fictitious delays of §4.2.3).
func (b *Builder) Buf(name string, delay tick.Range, out []NetID, in []Conn) PrimID {
	return b.Gate(KBuf, name, delay, out, in)
}

// Mux adds a 2-, 4-, or 8-input multiplexer.  sel carries one connection
// per select bit; selDelay is the extra delay from the select inputs
// (Fig 3-6).
func (b *Builder) Mux(k Kind, name string, delay, selDelay tick.Range, out []NetID, sel []Conn, data ...[]Conn) PrimID {
	ns, nd := k.NumSelects(), k.NumMuxData()
	if ns == 0 {
		b.fail("Mux called with non-mux kind %v", k)
		return -1
	}
	if len(sel) != ns {
		b.fail("mux %q needs %d select bits, got %d", name, ns, len(sel))
		return -1
	}
	if len(data) != nd {
		b.fail("mux %q needs %d data inputs, got %d", name, nd, len(data))
		return -1
	}
	w := len(out)
	p := Prim{Kind: k, Name: name, Width: w, Delay: delay, SelectDelay: selDelay,
		Out: []OutPort{{Name: "O", Bits: out}}}
	p.In = make([]Port, 0, ns+nd)
	sel = append([]Conn(nil), sel...)
	for i := range sel {
		p.In = append(p.In, Port{Name: muxSelNames[i], Bits: sel[i : i+1 : i+1]})
	}
	for i, d := range data {
		p.In = append(p.In, Port{Name: muxDataNames[i], Bits: b.broadcast(d, w, name, muxDataNames[i])})
	}
	return b.addPrim(p)
}

// Register adds an edge-triggered register (Fig 2-1, first model).
func (b *Builder) Register(name string, delay tick.Range, q []NetID, ck Conn, d []Conn) PrimID {
	w := len(q)
	return b.addPrim(Prim{Kind: KReg, Name: name, Width: w, Delay: delay,
		In: []Port{
			{Name: "CK", Bits: []Conn{ck}},
			{Name: "D", Bits: b.broadcast(d, w, name, "D")},
		},
		Out: []OutPort{{Name: "Q", Bits: q}}})
}

// RegisterRS adds a register with asynchronous SET and RESET (Fig 2-1,
// second model).
func (b *Builder) RegisterRS(name string, delay tick.Range, q []NetID, ck Conn, d []Conn, set, reset Conn) PrimID {
	w := len(q)
	return b.addPrim(Prim{Kind: KRegRS, Name: name, Width: w, Delay: delay,
		In: []Port{
			{Name: "CK", Bits: []Conn{ck}},
			{Name: "D", Bits: b.broadcast(d, w, name, "D")},
			{Name: "S", Bits: []Conn{set}},
			{Name: "R", Bits: []Conn{reset}},
		},
		Out: []OutPort{{Name: "Q", Bits: q}}})
}

// Latch adds a transparent latch (Fig 2-2, first model).
func (b *Builder) Latch(name string, delay tick.Range, q []NetID, enable Conn, d []Conn) PrimID {
	w := len(q)
	return b.addPrim(Prim{Kind: KLatch, Name: name, Width: w, Delay: delay,
		In: []Port{
			{Name: "E", Bits: []Conn{enable}},
			{Name: "D", Bits: b.broadcast(d, w, name, "D")},
		},
		Out: []OutPort{{Name: "Q", Bits: q}}})
}

// LatchRS adds a latch with asynchronous SET and RESET (Fig 2-2, second
// model).
func (b *Builder) LatchRS(name string, delay tick.Range, q []NetID, enable Conn, d []Conn, set, reset Conn) PrimID {
	w := len(q)
	return b.addPrim(Prim{Kind: KLatchRS, Name: name, Width: w, Delay: delay,
		In: []Port{
			{Name: "E", Bits: []Conn{enable}},
			{Name: "D", Bits: b.broadcast(d, w, name, "D")},
			{Name: "S", Bits: []Conn{set}},
			{Name: "R", Bits: []Conn{reset}},
		},
		Out: []OutPort{{Name: "Q", Bits: q}}})
}

// SetupHold adds a SETUP HOLD CHK primitive (Fig 2-3): the input must be
// stable setup before and hold after the rising edge of ck.
func (b *Builder) SetupHold(name string, setup, hold tick.Time, in []Conn, ck Conn) PrimID {
	return b.addPrim(Prim{Kind: KSetupHold, Name: name, Width: len(in),
		Setup: setup, Hold: hold,
		In: []Port{
			{Name: "I", Bits: in},
			{Name: "CK", Bits: []Conn{ck}},
		}})
}

// SetupRiseHoldFall adds a SETUP RISE HOLD FALL CHK primitive (Fig 2-3):
// set-up before the rising edge, stability while the clock is true, and
// hold after the falling edge.
func (b *Builder) SetupRiseHoldFall(name string, setup, hold tick.Time, in []Conn, ck Conn) PrimID {
	return b.addPrim(Prim{Kind: KSetupRiseHoldFall, Name: name, Width: len(in),
		Setup: setup, Hold: hold,
		In: []Port{
			{Name: "I", Bits: in},
			{Name: "CK", Bits: []Conn{ck}},
		}})
}

// MinPulse adds a MIN PULSE WIDTH checker (Fig 2-4).
func (b *Builder) MinPulse(name string, minHigh, minLow tick.Time, in Conn) PrimID {
	return b.addPrim(Prim{Kind: KMinPulse, Name: name, Width: 1,
		MinHigh: minHigh, MinLow: minLow,
		In: []Port{{Name: "I", Bits: []Conn{in}}}})
}

// Param declares a named design parameter with its default value and
// allowed range, returning its index for use in Coeff.  Redeclaring a
// name is an error.
func (b *Builder) Param(name string, def, lo, hi float64) int32 {
	for _, p := range b.d.Params {
		if p.Name == name {
			b.fail("parameter %q declared twice", name)
			return -1
		}
	}
	b.d.Params = append(b.d.Params, Param{Name: name, Default: def, Lo: lo, Hi: hi})
	return int32(len(b.d.Params) - 1)
}

// AddDelayFn appends an analytic delay function, returning the 1-based
// handle Prim.Fn uses (via BindDelayFn).
func (b *Builder) AddDelayFn(fn DelayFn) int32 {
	b.d.DelayFns = append(b.d.DelayFns, fn)
	return int32(len(b.d.DelayFns))
}

// BindDelayFn marks a primitive's delay as the evaluation of the given
// analytic function (a 1-based AddDelayFn handle), setting Prim.Delay to
// the function's value at the design's default parameter point.
func (b *Builder) BindDelayFn(id PrimID, fn int32) *Builder {
	if id < 0 || int(id) >= len(b.d.Prims) {
		b.fail("BindDelayFn: primitive %d out of range", id)
		return b
	}
	if fn <= 0 || int(fn) > len(b.d.DelayFns) {
		b.fail("BindDelayFn: delay function %d out of range", fn)
		return b
	}
	b.d.Prims[id].Fn = fn
	b.d.Prims[id].Delay = b.d.DelayFns[fn-1].Eval(b.d.ParamDefaults())
	return b
}

// AddCase appends a case-analysis cycle (§2.7.1).
func (b *Builder) AddCase(label string, assigns ...CaseAssign) *Builder {
	b.d.Cases = append(b.d.Cases, Case{Label: label, Assignments: assigns})
	return b
}

// Assign builds a case assignment for AddCase.
func Assign(base string, v values.Value) CaseAssign {
	return CaseAssign{Base: base, Value: v}
}

// Err returns the sticky construction error, if any.
func (b *Builder) Err() error { return b.err }

// Build validates the design, computes fanout lists, and returns it.
// It drops the Builder's name and symbol tables, so the Builder must not
// be used afterwards.
func (b *Builder) Build() (*Design, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.names, b.syms, b.symIdx = nil, nil, nil
	b.d.RebuildFanout()
	if err := b.d.Check(); err != nil {
		return nil, err
	}
	return b.d, nil
}

// MustBuild is Build for construction known to be valid; it panics on
// error.
func (b *Builder) MustBuild() *Design {
	d, err := b.Build()
	if err != nil {
		panic(err)
	}
	return d
}
