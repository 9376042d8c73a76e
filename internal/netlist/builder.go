package netlist

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"scaldtv/internal/assertion"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
)

// Builder constructs a Design programmatically.  Errors stick: the first
// failure is remembered and reported by Build, so construction code reads
// linearly without per-call error handling.  The primitive constructors
// copy the connections and output nets they keep, so a caller may reuse
// its slices.
type Builder struct {
	d   *Design
	err error

	// names maps full names to nets while the design is built, for the
	// nets no stem table holds: scalars, and the far-off bits a table
	// would have had to grow too far to cover.  Build drops it.
	names map[string]NetID

	stems   []stemTable    // one bit table per stem, indexed by Sym
	stemIdx map[stem]Sym   // stem → its table
	symIdx  map[string]Sym // vector spelling → its stem's table
	buf     []byte         // reused bit-name buffer
	ends    []int          // reused name offsets of one Bits call

	// conns, nets, ports and outs are the slabs a primitive's connections
	// are copied into (see carve).
	conns []Conn
	nets  []NetID
	ports []Port
	outs  []OutPort

	// wantNets and wantPrims are the counts Reserve was given; a full
	// table grows to them in one step (see regrow).
	wantNets, wantPrims int
}

// Sym identifies the bit table of a vector stem.  Builder.Symbol resolves
// every spelling of one stem ("X .S0-4", "X  .S0-4") to the same Sym, so
// Syms count stems, densely from 0.
type Sym int32

// stem is what the bit names of a vector spelling share: bit i is named
// base<i>suffix.
type stem struct {
	base   string // the spelling with its assertion stripped
	suffix string // " ‹assertion›" after each bit's subscript, or ""
}

// stemTable holds the nets of one stem's bits.  Its table spans bits lo,
// lo+1, ...; it grows to cover a request only while it stays at most about
// twice the bits it holds, so a far-off bit index costs a name-map entry,
// never a table that long.
type stemTable struct {
	stem
	assert  *assertion.Assertion // shared by every bit; nil for none
	lo      int                  // bit index of bits[0]
	bits    []NetID              // noNet where the bit's net is not in the table
	known   int                  // entries of bits that are not noNet
	spilled bool                 // some bit of the stem is in the name map
}

// noNet marks a stem table entry whose net is not yet known.
const noNet NetID = -1

// minTable is the table span a stem may always reach, however few bits
// it holds.
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
	}, names: make(map[string]NetID), stemIdx: make(map[stem]Sym), symIdx: make(map[string]Sym)}
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

// Reserve sizes the net and primitive tables for the given counts, so
// neither regrows more than once while the design fills: each starts with
// room for at most firstStage entries, and when it is full it grows to its
// count in one step (see regrow).  Tables grow past the counts as usual if
// they must.  It is for a new Builder: once a net or primitive exists, it
// does nothing.
func (b *Builder) Reserve(nets, prims int) {
	if len(b.d.Nets) > 0 || len(b.d.Prims) > 0 {
		return
	}
	b.wantNets, b.wantPrims = nets, prims
	b.d.Nets = make([]Net, 0, min(nets, firstStage))
	b.d.Prims = make([]Prim, 0, min(prims, firstStage))
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
// first use.  The name may embed an assertion ("W DATA .S0-6").  A name
// that is exactly a vector bit's name, "BASE<i>" followed by the rendered
// assertion if any, is that bit of its stem ("X<3>" is bit 3 of the X
// that Vector("X", 4) names).  A new net keeps a copy of the name, so the
// caller's string may point into a larger buffer the design must not
// retain.
func (b *Builder) Net(name string) NetID {
	if id, ok := b.names[name]; ok {
		return id
	}
	name = strings.Clone(name)
	sig, err := assertion.Parse(name)
	if err != nil {
		b.fail("%v", err)
		sig = assertion.Signal{Base: name, Raw: name}
	} else if s, i, ok := b.bitName(name, sig); ok {
		b.stems[s].cover(i, i)
		return b.bit(s, i)
	}
	id := b.newNet(name, sig.Base, sig.Assert)
	b.names[name] = id
	return id
}

// bitName reports whether a parsed name is exactly the name of bit i of
// some stem, and returns that stem's table, adding it on first use.  The
// subscript must be spelled as Bits spells it: "X<03>" and "X<3>  .S0-4"
// are names of their own.
func (b *Builder) bitName(name string, sig assertion.Signal) (Sym, int, bool) {
	base := sig.Base
	lt := strings.LastIndexByte(base, '<')
	if lt < 0 || base[len(base)-1] != '>' {
		return 0, 0, false
	}
	digits := base[lt+1 : len(base)-1]
	i, err := strconv.Atoi(digits)
	if err != nil || i < 0 || strconv.Itoa(i) != digits {
		return 0, 0, false
	}
	k := stemKey(base[:lt], sig.Assert)
	if len(name) != len(base)+len(k.suffix) || !strings.HasPrefix(name, base) || !strings.HasSuffix(name, k.suffix) {
		return 0, 0, false
	}
	return b.stemOf(k, sig.Assert), i, true
}

// newNet appends a net to the design; the caller records where to find it.
func (b *Builder) newNet(name, base string, a *assertion.Assertion) NetID {
	if n := len(b.d.Nets); n == cap(b.d.Nets) && n < b.wantNets {
		b.d.Nets = regrow(b.d.Nets, b.wantNets)
	}
	id := NetID(len(b.d.Nets))
	b.d.Nets = append(b.d.Nets, Net{
		Name:   name,
		Base:   base,
		Assert: a,
		Driver: NoDriver,
	})
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

// Symbol resolves a vector spelling to its stem's bit table, parsing its
// base name and assertion on first use.
func (b *Builder) Symbol(name string) (Sym, error) {
	if s, ok := b.symIdx[name]; ok {
		return s, nil
	}
	sig, err := assertion.Parse(name)
	if err != nil {
		return 0, err
	}
	s := b.stemOf(stemKey(sig.Base, sig.Assert), sig.Assert)
	b.symIdx[name] = s
	return s, nil
}

// stemKey returns the stem of bits with the given base and assertion.
func stemKey(base string, a *assertion.Assertion) stem {
	if a == nil {
		return stem{base: base}
	}
	return stem{base, " " + a.String()}
}

// stemOf returns the table of a stem, adding it on first use with the
// assertion its bits will share.
func (b *Builder) stemOf(k stem, a *assertion.Assertion) Sym {
	if s, ok := b.stemIdx[k]; ok {
		return s
	}
	s := Sym(len(b.stems))
	b.stems = append(b.stems, stemTable{stem: k, assert: a})
	b.stemIdx[k] = s
	return s
}

// Bits returns the nets of bits lo..hi of a vector stem, creating them on
// first use.  Bit i is named "BASE<i>", followed by " ‹assertion›" when
// the stem has one; its Base is "BASE<i>" and every bit shares the stem's
// *Assertion, which must not be mutated afterwards.  A bit the stem's
// table holds costs an index, and the names of the bits one call creates
// share one string.  A bit the table cannot cover is looked up in, or
// added to, the name map; only a stem with such bits looks its empty
// table entries up by name.  The returned slice may alias the table and
// must not be modified.
func (b *Builder) Bits(s Sym, lo, hi int) []NetID {
	st := &b.stems[s]
	if !st.cover(lo, hi) {
		out := make([]NetID, hi-lo+1)
		for i := range out {
			out[i] = b.bit(s, lo+i)
		}
		return out
	}
	tab := st.bits[lo-st.lo : hi-st.lo+1 : hi-st.lo+1]
	// Format every missing bit's name, and record where its base and
	// name end; then create the nets in bit order.
	buf, ends := b.buf[:0], b.ends[:0]
	for i, id := range tab {
		if id != noNet {
			continue
		}
		start := len(buf)
		var baseEnd int
		buf, baseEnd = st.appendName(buf, lo+i)
		if st.spilled {
			if id, ok := b.names[string(buf[start:])]; ok {
				tab[i] = id
				st.known++
				buf = buf[:start]
				continue
			}
		}
		ends = append(ends, baseEnd, len(buf))
	}
	b.buf, b.ends = buf, ends
	if len(ends) == 0 {
		return tab
	}
	names, start := string(buf), 0
	for i := range tab {
		if tab[i] == noNet {
			tab[i] = b.newNet(names[start:ends[1]], names[start:ends[0]], st.assert)
			st.known++
			start, ends = ends[1], ends[2:]
		}
	}
	return tab
}

// bit returns the net of bit i of a stem, creating it on first use: in
// the stem's table when the table spans i, otherwise in the name map.
func (b *Builder) bit(s Sym, i int) NetID {
	st := &b.stems[s]
	j := i - st.lo
	inTable := j >= 0 && j < len(st.bits)
	if inTable && st.bits[j] != noNet {
		return st.bits[j]
	}
	buf, baseEnd := st.appendName(b.buf[:0], i)
	b.buf = buf
	id, ok := NetID(0), false
	if st.spilled {
		id, ok = b.names[string(buf)]
	}
	if !ok {
		name := string(buf)
		id = b.newNet(name, name[:baseEnd], st.assert)
		if !inTable {
			b.names[name] = id
			st.spilled = true
		}
	}
	if inTable {
		st.bits[j] = id
		st.known++
	}
	return id
}

// appendName appends the name of bit i to buf, and returns it with the
// offset at which the bit's base name ends.
func (st *stemTable) appendName(buf []byte, i int) ([]byte, int) {
	buf = append(append(buf, st.base...), '<')
	buf = append(strconv.AppendInt(buf, int64(i), 10), '>')
	end := len(buf)
	return append(buf, st.suffix...), end
}

// cover widens the table to span bits lo..hi, unless that would leave
// it more than about twice as long as the bits it would then hold.
// Bounds are inclusive, so a bit index at the top of the int range
// cannot overflow.
func (st *stemTable) cover(lo, hi int) bool {
	if len(st.bits) == 0 {
		st.lo = lo
	}
	last := st.lo + (len(st.bits) - 1)
	nlo, nlast := min(st.lo, lo), max(last, hi)
	if nlo == st.lo && nlast == last {
		return true
	}
	if nlast-nlo >= 2*(st.known+hi-lo+1)+minTable {
		return false
	}
	if nlo < st.lo {
		grown := make([]NetID, last-nlo+1, 2*(nlast-nlo+1))
		fill(grown[:st.lo-nlo])
		copy(grown[st.lo-nlo:], st.bits)
		st.lo, st.bits = nlo, grown
	}
	n := len(st.bits)
	st.bits = append(st.bits, make([]NetID, nlast-nlo+1-n)...)
	fill(st.bits[n:])
	return true
}

func fill(ids []NetID) {
	for i := range ids {
		ids[i] = noNet
	}
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

// slabChunk is the most entries a slab grows by at once, and largeCarve
// the size from which a request gets an allocation of its own, so a
// slab's unused tail stays small.
const (
	slabChunk  = 1 << 10
	largeCarve = slabChunk / 8
)

// carve returns n zeroed entries of a slab as a slice whose capacity ends
// at its length, so an append to one primitive's connections copies them
// rather than writing into the next primitive's.  A full slab is replaced
// by one twice as large, up to slabChunk entries.
func carve[T any](slab *[]T, n int) []T {
	if n >= largeCarve {
		return make([]T, n)
	}
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(n, 16, min(2*cap(s), slabChunk)))
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// keep copies a port's connections into the connection slab, replicating
// a scalar connection across a width-bit port.  The caller's slice is not
// retained.
func (b *Builder) keep(port []Conn, width int, prim, name string) []Conn {
	out := carve(&b.conns, width)
	switch {
	case len(port) == width:
		copy(out, port)
	case len(port) == 1 && width > 1:
		for i := range out {
			out[i] = port[0]
		}
	default:
		b.fail("primitive %q port %s has %d bits, want %d", prim, name, len(port), width)
	}
	return out
}

// one keeps a one-bit port's connection.
func (b *Builder) one(c Conn) []Conn {
	out := carve(&b.conns, 1)
	out[0] = c
	return out
}

// inPorts keeps a primitive's input ports in the port slab.
func (b *Builder) inPorts(ports ...Port) []Port {
	out := carve(&b.ports, len(ports))
	copy(out, ports)
	return out
}

// outPort keeps a primitive's output port, its nets copied into the net
// slab.
func (b *Builder) outPort(name string, nets []NetID) []OutPort {
	bits := carve(&b.nets, len(nets))
	copy(bits, nets)
	out := carve(&b.outs, 1)
	out[0] = OutPort{Name: name, Bits: bits}
	return out
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
	p := Prim{Kind: k, Name: name, Width: w, Delay: delay, Out: b.outPort("O", out)}
	if w == 1 && k != KBuf && k != KNot {
		// One run of the connection slab holds every split input bit.
		n := 0
		for _, in := range ins {
			n += len(in)
		}
		bits := carve(&b.conns, n)[:0]
		for _, in := range ins {
			bits = append(bits, in...)
		}
		p.In = carve(&b.ports, n)
		for i := range p.In {
			p.In[i] = Port{Name: gateInName(i), Bits: bits[i : i+1 : i+1]}
		}
		return b.addPrim(p)
	}
	p.In = carve(&b.ports, len(ins))
	for i, in := range ins {
		pn := gateInName(i)
		p.In[i] = Port{Name: pn, Bits: b.keep(in, w, name, pn)}
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
		Out: b.outPort("O", out), In: carve(&b.ports, ns+nd)}
	sels := carve(&b.conns, ns)
	copy(sels, sel)
	for i := range sels {
		p.In[i] = Port{Name: muxSelNames[i], Bits: sels[i : i+1 : i+1]}
	}
	for i, d := range data {
		p.In[ns+i] = Port{Name: muxDataNames[i], Bits: b.keep(d, w, name, muxDataNames[i])}
	}
	return b.addPrim(p)
}

// Register adds an edge-triggered register (Fig 2-1, first model).
func (b *Builder) Register(name string, delay tick.Range, q []NetID, ck Conn, d []Conn) PrimID {
	w := len(q)
	return b.addPrim(Prim{Kind: KReg, Name: name, Width: w, Delay: delay,
		In: b.inPorts(
			Port{Name: "CK", Bits: b.one(ck)},
			Port{Name: "D", Bits: b.keep(d, w, name, "D")},
		),
		Out: b.outPort("Q", q)})
}

// RegisterRS adds a register with asynchronous SET and RESET (Fig 2-1,
// second model).
func (b *Builder) RegisterRS(name string, delay tick.Range, q []NetID, ck Conn, d []Conn, set, reset Conn) PrimID {
	w := len(q)
	return b.addPrim(Prim{Kind: KRegRS, Name: name, Width: w, Delay: delay,
		In: b.inPorts(
			Port{Name: "CK", Bits: b.one(ck)},
			Port{Name: "D", Bits: b.keep(d, w, name, "D")},
			Port{Name: "S", Bits: b.one(set)},
			Port{Name: "R", Bits: b.one(reset)},
		),
		Out: b.outPort("Q", q)})
}

// Latch adds a transparent latch (Fig 2-2, first model).
func (b *Builder) Latch(name string, delay tick.Range, q []NetID, enable Conn, d []Conn) PrimID {
	w := len(q)
	return b.addPrim(Prim{Kind: KLatch, Name: name, Width: w, Delay: delay,
		In: b.inPorts(
			Port{Name: "E", Bits: b.one(enable)},
			Port{Name: "D", Bits: b.keep(d, w, name, "D")},
		),
		Out: b.outPort("Q", q)})
}

// LatchRS adds a latch with asynchronous SET and RESET (Fig 2-2, second
// model).
func (b *Builder) LatchRS(name string, delay tick.Range, q []NetID, enable Conn, d []Conn, set, reset Conn) PrimID {
	w := len(q)
	return b.addPrim(Prim{Kind: KLatchRS, Name: name, Width: w, Delay: delay,
		In: b.inPorts(
			Port{Name: "E", Bits: b.one(enable)},
			Port{Name: "D", Bits: b.keep(d, w, name, "D")},
			Port{Name: "S", Bits: b.one(set)},
			Port{Name: "R", Bits: b.one(reset)},
		),
		Out: b.outPort("Q", q)})
}

// SetupHold adds a SETUP HOLD CHK primitive (Fig 2-3): the input must be
// stable setup before and hold after the rising edge of ck.
func (b *Builder) SetupHold(name string, setup, hold tick.Time, in []Conn, ck Conn) PrimID {
	return b.addPrim(Prim{Kind: KSetupHold, Name: name, Width: len(in),
		Setup: setup, Hold: hold,
		In: b.inPorts(
			Port{Name: "I", Bits: b.keep(in, len(in), name, "I")},
			Port{Name: "CK", Bits: b.one(ck)},
		)})
}

// SetupRiseHoldFall adds a SETUP RISE HOLD FALL CHK primitive (Fig 2-3):
// set-up before the rising edge, stability while the clock is true, and
// hold after the falling edge.
func (b *Builder) SetupRiseHoldFall(name string, setup, hold tick.Time, in []Conn, ck Conn) PrimID {
	return b.addPrim(Prim{Kind: KSetupRiseHoldFall, Name: name, Width: len(in),
		Setup: setup, Hold: hold,
		In: b.inPorts(
			Port{Name: "I", Bits: b.keep(in, len(in), name, "I")},
			Port{Name: "CK", Bits: b.one(ck)},
		)})
}

// MinPulse adds a MIN PULSE WIDTH checker (Fig 2-4).
func (b *Builder) MinPulse(name string, minHigh, minLow tick.Time, in Conn) PrimID {
	return b.addPrim(Prim{Kind: KMinPulse, Name: name, Width: 1,
		MinHigh: minHigh, MinLow: minLow,
		In: b.inPorts(Port{Name: "I", Bits: b.one(in)})})
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
// It drops the Builder's name map, stem tables and slabs, so the Builder
// must not be used afterwards.
func (b *Builder) Build() (*Design, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.names, b.stems, b.stemIdx, b.symIdx = nil, nil, nil, nil
	b.conns, b.nets, b.ports, b.outs = nil, nil, nil, nil
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
