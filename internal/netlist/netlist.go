// Package netlist defines the flat circuit model the Timing Verifier
// evaluates: scalar nets (one per signal bit, as in the paper's per-bit
// VALUE lists) connected by vectored primitive instances (the paper's
// "arbitrarily wide data path" primitives, §3.3.2, which give the 1.3
// primitives-per-chip economy of Table 3-2).
package netlist

import (
	"fmt"
	"sync/atomic"

	"scaldtv/internal/assertion"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
)

// NetID indexes a net within a Design.
type NetID int32

// PrimID indexes a primitive within a Design.
type PrimID int32

// NoDriver marks a net with no driving primitive.
const NoDriver PrimID = -1

// Kind identifies a built-in primitive type (§2.4, §3.1).
type Kind uint8

// The built-in primitive kinds.
const (
	KBuf     Kind = iota // non-inverting buffer / delay line (also CORR delays)
	KNot                 // inverter
	KAnd                 // n-input AND
	KOr                  // n-input INCLUSIVE-OR
	KNand                // n-input AND, inverted output
	KNor                 // n-input OR, inverted output
	KXor                 // n-input EXCLUSIVE-OR
	KChg                 // n-input CHANGE function (§2.4.2)
	KMux2                // 2-input multiplexer: S, D0, D1
	KMux4                // 4-input multiplexer: S0, S1, D0..D3
	KMux8                // 8-input multiplexer: S0..S2, D0..D7
	KReg                 // edge-triggered register: CK, D
	KRegRS               // register with asynchronous SET/RESET: CK, D, S, R
	KLatch               // transparent latch: E, D
	KLatchRS             // latch with asynchronous SET/RESET: E, D, S, R

	KSetupHold         // SETUP HOLD CHK: I, CK (§2.4.4)
	KSetupRiseHoldFall // SETUP RISE HOLD FALL CHK: I, CK (§2.4.4)
	KMinPulse          // MIN PULSE WIDTH checker: I (§2.4.5)

	numKinds
)

var kindNames = [numKinds]string{
	"BUF", "NOT", "AND", "OR", "NAND", "NOR", "XOR", "CHG",
	"2 MUX", "4 MUX", "8 MUX",
	"REG", "REG RS", "LATCH", "LATCH RS",
	"SETUP HOLD CHK", "SETUP RISE HOLD FALL CHK", "MIN PULSE WIDTH",
}

// String names the kind in the paper's style.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsChecker reports whether the primitive only checks constraints and
// drives no output.
func (k Kind) IsChecker() bool {
	return k == KSetupHold || k == KSetupRiseHoldFall || k == KMinPulse
}

// IsStorage reports whether the primitive is a clocked storage element.
func (k Kind) IsStorage() bool {
	return k == KReg || k == KRegRS || k == KLatch || k == KLatchRS
}

// IsGate reports whether the primitive is simple combinational logic with a
// variable number of identical inputs.
func (k Kind) IsGate() bool {
	switch k {
	case KBuf, KNot, KAnd, KOr, KNand, KNor, KXor, KChg:
		return true
	}
	return false
}

// NumSelects returns the select-bit count of a multiplexer kind, or 0.
func (k Kind) NumSelects() int {
	switch k {
	case KMux2:
		return 1
	case KMux4:
		return 2
	case KMux8:
		return 3
	}
	return 0
}

// NumMuxData returns the data-input count of a multiplexer kind, or 0.
func (k Kind) NumMuxData() int {
	switch k {
	case KMux2:
		return 2
	case KMux4:
		return 4
	case KMux8:
		return 8
	}
	return 0
}

// Net is one signal bit.  Its Name is the full signal name including any
// embedded assertion and bit subscript; Base strips both, identifying the
// logical signal for case analysis and consistency checks.
type Net struct {
	Name   string
	Base   string
	Assert *assertion.Assertion
	Wire   *tick.Range // per-signal interconnection delay, nil → design default
	Driver PrimID
	Fanout []PrimID // the paper's CALL LIST: primitives to reevaluate on change
}

// Conn is one input-bit connection of a primitive.
type Conn struct {
	Net        NetID
	Invert     bool                 // the "-" complement rail (§3.1)
	Directives assertion.Directives // evaluation string attached to this pin (§2.6)
}

// Port is a named vector of input connections.
type Port struct {
	Name string
	Bits []Conn
}

// OutPort is a named vector of driven nets.
type OutPort struct {
	Name string
	Bits []NetID
}

// Prim is one vectored primitive instance.
type Prim struct {
	Kind  Kind
	Name  string // hierarchical instance path, for messages
	Width int    // data-path width in bits

	Delay       tick.Range // propagation delay, all inputs → outputs (§2.4.3)
	SelectDelay tick.Range // extra delay from mux select inputs (Fig 3-6)
	RF          *RFDelay   // direction-dependent delays (§4.2.2); overrides Delay when set

	Setup, Hold     tick.Time // checker intervals (§2.4.4)
	MinHigh, MinLow tick.Time // minimum pulse widths (§2.4.5)

	// Fn, when positive, names the analytic delay function this
	// primitive's Delay was evaluated from: Design.DelayFns[Fn-1]
	// (1-based so the zero value means "constant delay").  Delay always
	// holds a concrete evaluation — the engine never reads Fn — but the
	// path-search layer uses it to build symbolic margin surfaces and
	// Design.PinParams uses it to re-evaluate Delay at another point.
	Fn int32

	In  []Port
	Out []OutPort
}

// RFDelay carries direction-dependent propagation delays for technologies
// with differing rising and falling delays (§4.2.2): output rising edges
// take Rise, falling edges Fall.  Where the signal value is unknown the
// evaluator falls back to the paper's conservative envelope of the two.
type RFDelay struct {
	Rise, Fall tick.Range
}

// Envelope returns the combined min/max range covering both directions.
func (rf RFDelay) Envelope() tick.Range {
	return tick.Range{Min: min(rf.Rise.Min, rf.Fall.Min), Max: max(rf.Rise.Max, rf.Fall.Max)}
}

// Case is one designer-specified case-analysis cycle (§2.7.1): a set of
// signals whose STABLE values are mapped to logic constants for this
// simulated cycle.
type Case struct {
	Label       string
	Assignments []CaseAssign
}

// CaseAssign maps one logical signal to a constant.
type CaseAssign struct {
	Base  string
	Value values.Value // V0 or V1
}

// Design is a complete flat circuit plus its verification environment.
type Design struct {
	Name      string
	Period    tick.Time
	ClockUnit tick.Time // designer clock unit (§2.3)

	DefaultWire   tick.Range // default interconnection delay (§2.5.3)
	PrecisionSkew tick.Range // default skew for .P clocks (§2.5.1)
	ClockSkew     tick.Range // default skew for .C clocks
	WiredOr       bool       // permit multiply-driven nets, combined as OR (ECL wired-OR)

	Nets  []Net
	Prims []Prim
	Cases []Case

	// Params and DelayFns are the analytic delay tables (params.go):
	// named design parameters and the affine delay functions over them
	// that parametric primitives (Prim.Fn > 0) were evaluated from.
	Params   []Param
	DelayFns []DelayFn

	// names indexes Nets by full name.  Only NetByName and NewNet need
	// it, so it is built on the first call to either, not with the
	// design.
	names atomic.Pointer[map[string]NetID]

	// level caches the SCC condensation + levelization of the primitive
	// graph (Levelization).  It is derived from the fanout index;
	// RebuildFanout invalidates it.
	level atomic.Pointer[Levelization]

	// engine caches a compiled evaluation program (internal/tape) derived
	// from the design's structure.  The netlist package treats it as
	// opaque; like level, it is invalidated by RebuildFanout.
	engine atomic.Pointer[any]
}

// EngineCache returns the compiled-engine value stored by StoreEngineCache,
// or nil.  The cache follows the structure-derived caches' contract:
// numeric parameter edits keep it valid, structural edits go through
// RebuildFanout which clears it.
func (d *Design) EngineCache() any {
	if p := d.engine.Load(); p != nil {
		return *p
	}
	return nil
}

// StoreEngineCache publishes a compiled-engine value for this design.
func (d *Design) StoreEngineCache(v any) { d.engine.Store(&v) }

// WithCases returns a design sharing this design's structure — nets,
// primitives, name index — but carrying a different case-analysis list.
// Case mappings are applied at relaxation time, not baked into any
// structure-derived cache, so the levelization and compiled-engine caches
// carry over: a verification of the variant starts warm.  The variant
// must be treated as read-only structurally (no RebuildFanout); the case
// exploration engine uses it to re-verify a design under a candidate case
// set without copying the netlist.
func (d *Design) WithCases(cases []Case) *Design {
	nd := &Design{
		Name:          d.Name,
		Period:        d.Period,
		ClockUnit:     d.ClockUnit,
		DefaultWire:   d.DefaultWire,
		PrecisionSkew: d.PrecisionSkew,
		ClockSkew:     d.ClockSkew,
		WiredOr:       d.WiredOr,
		Nets:          d.Nets,
		Prims:         d.Prims,
		Cases:         cases,
		Params:        d.Params,
		DelayFns:      d.DelayFns,
	}
	nd.names.Store(d.names.Load())
	if lv := d.level.Load(); lv != nil {
		nd.level.Store(lv)
	}
	if e := d.engine.Load(); e != nil {
		nd.engine.Store(e)
	}
	return nd
}

// Env returns the assertion-rendering environment of the design.
func (d *Design) Env() assertion.Env {
	cu := d.ClockUnit
	if cu == 0 {
		cu = tick.NS
	}
	return assertion.Env{
		Period:        d.Period,
		ClockUnit:     cu,
		PrecisionSkew: d.PrecisionSkew,
		ClockSkew:     d.ClockSkew,
	}
}

// NetByName finds a net by its full name.  The first call builds the
// name index; calls may run concurrently.
func (d *Design) NetByName(name string) (NetID, bool) {
	id, ok := d.nameIndex()[name]
	return id, ok
}

// nameIndex returns the full-name index of Nets, building it on first
// use.  Two racing first calls may both build one; the first published
// wins and the other is dropped.
func (d *Design) nameIndex() map[string]NetID {
	if m := d.names.Load(); m != nil {
		return *m
	}
	m := make(map[string]NetID, len(d.Nets))
	for i := range d.Nets {
		m[d.Nets[i].Name] = NetID(i)
	}
	if !d.names.CompareAndSwap(nil, &m) {
		return *d.names.Load()
	}
	return m
}

// BaseMatches reports whether a net's base name belongs to the logical
// signal sigBase — either exactly, or as one of its vector bits
// ("ADR<3>" belongs to "ADR").
func BaseMatches(netBase, sigBase string) bool {
	if netBase == sigBase {
		return true
	}
	if len(netBase) > len(sigBase)+1 && netBase[len(sigBase)] == '<' && netBase[:len(sigBase)] == sigBase {
		return netBase[len(netBase)-1] == '>'
	}
	return false
}

// NewNet appends a net to an existing design — the hook for design
// transforms such as automatic CORR insertion — keeping the name index
// consistent.  The name must be unused.  Like any structural edit, it
// must not run concurrently with other use of the design.
func (d *Design) NewNet(name, base string) (NetID, error) {
	names := d.nameIndex()
	if _, dup := names[name]; dup {
		return 0, fmt.Errorf("netlist: net %q already exists", name)
	}
	id := NetID(len(d.Nets))
	d.Nets = append(d.Nets, Net{Name: name, Base: base, Driver: NoDriver})
	names[name] = id
	return id, nil
}

// NetsByBase returns every net belonging to the logical signal with the
// given base name, in creation order.
func (d *Design) NetsByBase(base string) []NetID {
	var out []NetID
	for i := range d.Nets {
		if BaseMatches(d.Nets[i].Base, base) {
			out = append(out, NetID(i))
		}
	}
	return out
}

// WireDelay returns the interconnection delay seen by an input connection
// to the given net, honouring the per-signal override and the directive
// that may zero it (§2.6).
func (d *Design) WireDelay(n NetID, dir assertion.Directive) tick.Range {
	if dir.ZeroesWire() {
		return tick.Range{}
	}
	if w := d.Nets[n].Wire; w != nil {
		return *w
	}
	return d.DefaultWire
}

// Drivers returns every primitive driving the net (more than one only
// with wired-OR).
func (d *Design) Drivers(n NetID) []PrimID {
	var out []PrimID
	for pi := range d.Prims {
		for _, port := range d.Prims[pi].Out {
			for _, o := range port.Bits {
				if o == n {
					out = append(out, PrimID(pi))
				}
			}
		}
	}
	return out
}

// WiredDrivers builds the wired-OR driver tables: the drivers of each
// multiply-driven net in driver order, and one slot per (net, driver)
// pair, numbered densely in ascending net order.  The slot numbering is
// part of the verifier's snapshot format.  Both maps are nil unless the
// design permits wired-OR.
func (d *Design) WiredDrivers() (map[NetID][]PrimID, map[[2]int32]int) {
	if !d.WiredOr {
		return nil, nil
	}
	counts := map[NetID]int{}
	for pi := range d.Prims {
		for _, port := range d.Prims[pi].Out {
			for _, o := range port.Bits {
				counts[o]++
			}
		}
	}
	wired := map[NetID][]PrimID{}
	slot := map[[2]int32]int{}
	for i := range d.Nets {
		n := NetID(i)
		if counts[n] <= 1 {
			continue
		}
		drivers := d.Drivers(n)
		wired[n] = drivers
		for _, dp := range drivers {
			slot[[2]int32{int32(n), int32(dp)}] = len(slot)
		}
	}
	return wired, slot
}

// RebuildFanout recomputes every net's fanout list (the CALL LIST ARRAY of
// Table 3-3) from the primitive connections.
func (d *Design) RebuildFanout() {
	d.level.Store(nil)
	d.engine.Store(nil)
	// last[n] is the latest primitive counted on net n's fanout list:
	// primitives are visited in order, so it deduplicates a primitive
	// reading one net through several pins.  A counting pass sizes every
	// list, and one backing array then holds them all.
	last := make([]PrimID, len(d.Nets))
	count := make([]int32, len(d.Nets))
	for i := range last {
		last[i] = NoDriver
	}
	total := 0
	for pi := range d.Prims {
		for _, port := range d.Prims[pi].In {
			for _, c := range port.Bits {
				if last[c.Net] != PrimID(pi) {
					last[c.Net] = PrimID(pi)
					count[c.Net]++
					total++
				}
			}
		}
	}
	backing := make([]PrimID, 0, total)
	for i := range d.Nets {
		d.Nets[i].Driver = NoDriver
		d.Nets[i].Fanout = nil
		if n := int(count[i]); n > 0 {
			d.Nets[i].Fanout = backing[len(backing) : len(backing) : len(backing)+n]
			backing = backing[:len(backing)+n]
		}
		last[i] = NoDriver
	}
	for pi := range d.Prims {
		p := &d.Prims[pi]
		for _, port := range p.In {
			for _, c := range port.Bits {
				if last[c.Net] != PrimID(pi) {
					last[c.Net] = PrimID(pi)
					d.Nets[c.Net].Fanout = append(d.Nets[c.Net].Fanout, PrimID(pi))
				}
			}
		}
		for _, port := range p.Out {
			for _, n := range port.Bits {
				d.Nets[n].Driver = PrimID(pi)
			}
		}
	}
}

// Check validates structural consistency: period set, ports wired per the
// primitive conventions, no multiply-driven nets, valid delay ranges, and
// consistent assertions across bits of a logical signal.
func (d *Design) Check() error {
	if d.Period <= 0 {
		return fmt.Errorf("netlist: design %q has no clock period", d.Name)
	}
	if !d.DefaultWire.Valid() || !d.PrecisionSkew.Valid() || !d.ClockSkew.Valid() {
		return fmt.Errorf("netlist: design %q has invalid default delay/skew ranges", d.Name)
	}
	if err := d.checkDelayFns(); err != nil {
		return fmt.Errorf("netlist: design %q: %v", d.Name, err)
	}
	driver := make([]PrimID, len(d.Nets))
	for i := range driver {
		driver[i] = NoDriver
	}
	for pi := range d.Prims {
		p := &d.Prims[pi]
		if err := p.checkShape(); err != nil {
			return fmt.Errorf("netlist: primitive %q: %v", p.Name, err)
		}
		for _, port := range p.In {
			for _, c := range port.Bits {
				if c.Net < 0 || int(c.Net) >= len(d.Nets) {
					return fmt.Errorf("netlist: primitive %q port %s references net %d out of range", p.Name, port.Name, c.Net)
				}
			}
		}
		for _, port := range p.Out {
			for _, n := range port.Bits {
				if n < 0 || int(n) >= len(d.Nets) {
					return fmt.Errorf("netlist: primitive %q output %s references net %d out of range", p.Name, port.Name, n)
				}
				if prev := driver[n]; prev != NoDriver && !d.WiredOr {
					return fmt.Errorf("netlist: net %q driven by both %q and %q (enable wired-OR to permit this)", d.Nets[n].Name, d.Prims[prev].Name, p.Name)
				}
				driver[n] = PrimID(pi)
			}
		}
	}
	// Assertion consistency per logical signal (§2.5.1: the assertion is
	// part of the name, so one base name must not carry two different
	// assertion spellings).  Two nets without an assertion always agree,
	// so only a base some net asserts can conflict: those bases are
	// collected first, and then only their nets are checked, in net
	// order.  A base's first net is only recorded; the spellings are
	// rendered when a later net of that base carries a different
	// *Assertion.
	// An unasserted net is looked up only when its base passes a filter
	// of the asserted bases' lengths and end bytes, which no asserted
	// base fails: most nets skip the hashing.
	asserted := map[string]bool{}
	var filter baseFilter
	for i := range d.Nets {
		if d.Nets[i].Assert != nil {
			asserted[d.Nets[i].Base] = true
			filter.add(d.Nets[i].Base)
		}
	}
	byBase := make(map[string]*assertion.Assertion, len(asserted))
	for i := 0; i < len(d.Nets) && len(asserted) > 0; i++ {
		n := &d.Nets[i]
		if n.Assert == nil && !filter.has(n.Base) || !asserted[n.Base] {
			continue
		}
		prev, ok := byBase[n.Base]
		if !ok {
			byBase[n.Base] = n.Assert
			continue
		}
		if prev != n.Assert {
			if p, a := prev.String(), n.Assert.String(); p != a {
				return fmt.Errorf("netlist: signal %q carries conflicting assertions %q and %q", n.Base, p, a)
			}
		}
	}
	for _, c := range d.Cases {
		for _, as := range c.Assignments {
			if !as.Value.Const() {
				return fmt.Errorf("netlist: case assignment %s = %v is not a logic constant", as.Base, as.Value)
			}
		}
	}
	return nil
}

// baseFilter is a set of base-name signatures (length and end bytes):
// a base whose signature is absent is not in the set it summarizes.
type baseFilter [64]uint64

func baseSig(base string) uint32 {
	if base == "" {
		return 0
	}
	return (uint32(len(base))*131 + uint32(base[0])*31 + uint32(base[len(base)-1])) % 4096
}

func (f *baseFilter) add(base string) {
	s := baseSig(base)
	f[s/64] |= 1 << (s % 64)
}

func (f *baseFilter) has(base string) bool {
	s := baseSig(base)
	return f[s/64]&(1<<(s%64)) != 0
}

// CheckParams re-validates only the numeric parameters that in-place edits
// may change between runs — the clock period, the default delay/skew
// ranges, and every primitive's delay ranges — with the same messages, and
// in the same order, as the corresponding Check failures.  Callers holding
// a structure-derived cache (Levelization, EngineCache) use it as the
// cheap per-run revalidation: structural edits require a new Design, so
// only these values can have gone bad since the full Check that built the
// cache.
func (d *Design) CheckParams() error {
	if d.Period <= 0 {
		return fmt.Errorf("netlist: design %q has no clock period", d.Name)
	}
	if !d.DefaultWire.Valid() || !d.PrecisionSkew.Valid() || !d.ClockSkew.Valid() {
		return fmt.Errorf("netlist: design %q has invalid default delay/skew ranges", d.Name)
	}
	if err := d.checkDelayFns(); err != nil {
		return fmt.Errorf("netlist: design %q: %v", d.Name, err)
	}
	for pi := range d.Prims {
		p := &d.Prims[pi]
		if err := p.checkDelayParams(); err != nil {
			return fmt.Errorf("netlist: primitive %q: %v", p.Name, err)
		}
	}
	return nil
}

func (p *Prim) checkDelayParams() error {
	if !p.Delay.Valid() || !p.SelectDelay.Valid() {
		return fmt.Errorf("invalid delay range")
	}
	if p.RF != nil && (!p.RF.Rise.Valid() || !p.RF.Fall.Valid()) {
		return fmt.Errorf("invalid rise/fall delay range")
	}
	return nil
}

func (p *Prim) checkShape() error {
	if p.Width <= 0 {
		return fmt.Errorf("width %d", p.Width)
	}
	if err := p.checkDelayParams(); err != nil {
		return err
	}
	if p.RF != nil && !p.Kind.IsGate() {
		return fmt.Errorf("%v cannot carry rise/fall delays", p.Kind)
	}
	wantIn, wantOut := -1, -1
	switch {
	case p.Kind.IsGate():
		if len(p.In) < 1 {
			return fmt.Errorf("gate with no inputs")
		}
		if (p.Kind == KBuf || p.Kind == KNot) && len(p.In) != 1 {
			return fmt.Errorf("%v takes exactly one input", p.Kind)
		}
		wantOut = 1
	case p.Kind.NumSelects() > 0:
		wantIn = p.Kind.NumSelects() + p.Kind.NumMuxData()
		wantOut = 1
	case p.Kind == KReg, p.Kind == KLatch:
		wantIn, wantOut = 2, 1
	case p.Kind == KRegRS, p.Kind == KLatchRS:
		wantIn, wantOut = 4, 1
	case p.Kind == KSetupHold, p.Kind == KSetupRiseHoldFall:
		wantIn, wantOut = 2, 0
	case p.Kind == KMinPulse:
		wantIn, wantOut = 1, 0
	default:
		return fmt.Errorf("unknown kind %v", p.Kind)
	}
	if wantIn >= 0 && len(p.In) != wantIn {
		return fmt.Errorf("%v needs %d input ports, has %d", p.Kind, wantIn, len(p.In))
	}
	if wantOut >= 0 && len(p.Out) != wantOut {
		return fmt.Errorf("%v needs %d output ports, has %d", p.Kind, wantOut, len(p.Out))
	}
	// Port widths: scalar control ports carry exactly one bit; data ports
	// carry Width bits.
	for i, port := range p.In {
		want := p.Width
		if p.scalarInPort(i) {
			want = 1
		}
		if len(port.Bits) != want {
			return fmt.Errorf("%v input port %s has %d bits, want %d", p.Kind, port.Name, len(port.Bits), want)
		}
	}
	for _, port := range p.Out {
		if len(port.Bits) != p.Width {
			return fmt.Errorf("%v output port %s has %d bits, want %d", p.Kind, port.Name, len(port.Bits), p.Width)
		}
	}
	return nil
}

// scalarInPort reports whether input port index i is a one-bit control
// port (clock, enable, select, set, reset) rather than a Width-bit data
// port.
func (p *Prim) scalarInPort(i int) bool {
	switch p.Kind {
	case KReg, KLatch:
		return i == 0 // CK / E
	case KRegRS, KLatchRS:
		return i == 0 || i == 2 || i == 3 // CK/E, SET, RESET
	case KMux2, KMux4, KMux8:
		return i < p.Kind.NumSelects()
	case KSetupHold, KSetupRiseHoldFall:
		return i == 1 // CK
	}
	return false
}
