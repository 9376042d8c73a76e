package netlist

import (
	"fmt"
	"strconv"

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
	buf []byte // reused bit-name buffer of VectorBits
}

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
		byName:        make(map[string]NetID),
	}}
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
// first use.  The name may embed an assertion ("W DATA .S0-6").
func (b *Builder) Net(name string) NetID {
	if id, ok := b.d.byName[name]; ok {
		return id
	}
	sig, err := assertion.Parse(name)
	if err != nil {
		b.fail("%v", err)
		sig = assertion.Signal{Base: name, Raw: name}
	}
	return b.newNet(name, sig.Base, sig.Assert)
}

func (b *Builder) newNet(name, base string, a *assertion.Assertion) NetID {
	id := NetID(len(b.d.Nets))
	b.d.Nets = append(b.d.Nets, Net{
		Name:   name,
		Base:   base,
		Assert: a,
		Driver: NoDriver,
	})
	b.d.byName[name] = id
	return id
}

// Vector returns width nets named "BASE<i> ‹assertion›", creating them on
// first use.  The assertion suffix, if any, is shared by every bit.
func (b *Builder) Vector(name string, width int) []NetID {
	if width <= 0 {
		b.fail("vector %q with non-positive width %d", name, width)
		width = 1
	}
	out := make([]NetID, width)
	sig, err := assertion.Parse(name)
	if err != nil {
		b.fail("%v", err)
		return out
	}
	b.VectorBits(out, sig.Base, sig.Assert, 0)
	return out
}

// VectorBits fills out with the nets of bits lo, lo+1, ... of the vector
// signal with the given parsed base name and assertion (nil for none),
// creating them on first use.  Bit i is named "BASE<i>", followed by
// " ‹assertion›" when a is set; its Base is "BASE<i>" and every bit shares
// a itself, which must not be mutated afterwards.  Names are built in a
// reused buffer, so a bit that already exists costs one map lookup.
func (b *Builder) VectorBits(out []NetID, base string, a *assertion.Assertion, lo int) {
	var assert string
	if a != nil {
		assert = a.String()
	}
	buf := append(append(b.buf[:0], base...), '<')
	stem := len(buf)
	for i := range out {
		buf = append(strconv.AppendInt(buf[:stem], int64(lo+i), 10), '>')
		bitBase := len(buf)
		if a != nil {
			buf = append(append(buf, ' '), assert...)
		}
		if id, ok := b.d.byName[string(buf)]; ok {
			out[i] = id
			continue
		}
		name := string(buf)
		out[i] = b.newNet(name, name[:bitBase], a)
	}
	b.buf = buf
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
func (b *Builder) Build() (*Design, error) {
	if b.err != nil {
		return nil, b.err
	}
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
