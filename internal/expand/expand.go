// Package expand implements the SCALD Macro Expander (§3.3.2): it turns a
// parsed HDL file into the flat primitive netlist the Timing Verifier
// evaluates.  Pass 1 resolves macro definitions and signal synonyms (port
// bindings), and counts the nets and primitives Pass 2 will create, so
// the netlist's tables grow at most once; Pass 2 emits the fully
// elaborated design, one vectored primitive instance at a time.
package expand

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"scaldtv/internal/assertion"
	"scaldtv/internal/hdl"
	"scaldtv/internal/netlist"
	"scaldtv/internal/serr"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
)

// SummaryListing renders the Pass-1 expansion summary the paper's Macro
// Expander produced: every macro definition with its use count and the
// primitives its expansions contributed, plus the root-level census.
func (r *Report) SummaryListing() string {
	var names []string
	for name := range r.UsesByMacro {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("MACRO EXPANSION SUMMARY (pass 1)\n\n")
	fmt.Fprintf(&sb, "  %-30s %8s %12s\n", "MACRO", "USES", "PRIMITIVES")
	for _, name := range names {
		fmt.Fprintf(&sb, "  %-30s %8d %12d\n", name, r.UsesByMacro[name], r.PrimsByMacro[name])
	}
	if root := r.PrimsByMacro[""]; root > 0 {
		fmt.Fprintf(&sb, "  %-30s %8s %12d\n", "(root)", "", root)
	}
	fmt.Fprintf(&sb, "\n  %d macro expansions, %d primitives, %d synonyms resolved\n",
		r.MacroUses, r.Primitives, r.Synonyms)
	return sb.String()
}

// maxDepth caps macro nesting to catch recursive definitions.
const maxDepth = 64

// maxVectorWidth caps the bits one range may span, so a mistyped or
// hostile bound fails elaboration instead of exhausting memory.
const maxVectorWidth = 1 << 16

// Report carries the expansion statistics the paper reports in Table 3-2:
// the primitive census by type, the vectored and scalarised instance
// counts, and the synonym (port-binding) count from Pass 1.
type Report struct {
	MacroUses  int
	Synonyms   int                  // port bindings resolved
	Primitives int                  // vectored primitive instances emitted
	ScalarBits int                  // instances × width: the unvectorised count
	Census     map[netlist.Kind]int // instances per primitive type
	CensusBits map[netlist.Kind]int // summed widths per primitive type

	UsesByMacro  map[string]int // expansions per macro definition
	PrimsByMacro map[string]int // primitives contributed per macro ("" = root)
}

// AvgWidth returns the average primitive width (Table 3-2 reports 6.5).
func (r *Report) AvgWidth() float64 {
	if r.Primitives == 0 {
		return 0
	}
	return float64(r.ScalarBits) / float64(r.Primitives)
}

// TypesUsed returns the number of distinct primitive types (Table 3-2
// reports 22), in a deterministic order.
func (r *Report) TypesUsed() []netlist.Kind {
	var out []netlist.Kind
	for k := range r.Census {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

type expander struct {
	b      *netlist.Builder
	macros map[string]*hdl.Macro
	report *Report
	labels map[string]int // per-kind counters for default labels

	paramIdx map[string]int32 // declared parameter name → Design.Params index
	fnIDs    map[string]int32 // canonical delay-function key → AddDelayFn handle

	// conns, nets, ins and outs are stacks of transient connections:
	// resolve pushes a reference's connections onto conns, and outNets an
	// output's nets onto nets; a primitive pushes its input and output
	// lists onto ins and outs, and a use its port bindings onto ins.  An
	// instance pops what it pushed when it returns.  The Builder copies
	// what a primitive keeps, so no transient list outlives its instance.
	conns []netlist.Conn
	nets  []netlist.NetID
	ins   [][]netlist.Conn
	outs  [][]netlist.NetID
}

// height is the height of the expander's stacks.
type height struct{ conns, nets, ins, outs int }

func (e *expander) height() height {
	return height{len(e.conns), len(e.nets), len(e.ins), len(e.outs)}
}

// pop drops what was pushed onto the stacks since they stood at h.
func (e *expander) pop(h height) {
	e.conns, e.nets, e.ins, e.outs = e.conns[:h.conns], e.nets[:h.nets], e.ins[:h.ins], e.outs[:h.outs]
}

// frame is one level of macro expansion context.
type frame struct {
	path     string
	m        *hdl.Macro // the macro definition being expanded, nil at the root
	params   map[string]int
	bindings [][]netlist.Conn // m.Ports index → actual connections
}

// macro names the frame's macro, "" at the root.
func (fr *frame) macro() string {
	if fr.m == nil {
		return ""
	}
	return fr.m.Name
}

// A signal name inside a macro body is one of its ports, one of its
// locals, or a global name.
type refKind uint8

const (
	refGlobal refKind = iota
	refPort
	refLocal
)

// scope classifies a signal name inside macro m (nil at the root), for
// Pass 2 and the census alike: a port binds the caller's nets, a local
// names nets of its own per expansion, and any other name is global.
// i indexes m.Ports or m.Locals; a port shadows a local, and a later
// local declaration shadows an earlier one.
func scope(m *hdl.Macro, name string) (kind refKind, i int) {
	if m == nil {
		return refGlobal, 0
	}
	for i, pd := range m.Ports {
		if pd.Name == name {
			return refPort, i
		}
	}
	for i := len(m.Locals) - 1; i >= 0; i-- {
		if m.Locals[i].Name == name {
			return refLocal, i
		}
	}
	return refGlobal, 0
}

// Expand flattens the parsed file into a verified netlist design.
// Errors are structured *serr.Error values of kind serr.Elaborate.
func Expand(f *hdl.File) (*netlist.Design, *Report, error) {
	d, rep, err := expandFile(f)
	if err != nil {
		return nil, nil, serr.Wrap(serr.Elaborate, err)
	}
	return d, rep, nil
}

func expandFile(f *hdl.File) (*netlist.Design, *Report, error) {
	// Strings the design keeps are cloned from the parse, whose strings
	// all point into the source text.
	name := strings.Clone(f.Design)
	if name == "" {
		name = "unnamed"
	}
	b := netlist.NewBuilder(name)
	if f.Period <= 0 {
		return nil, nil, fmt.Errorf("expand: the design must specify a clock period (§2.2)")
	}
	if nets, prims, ok := count(f, b); ok {
		b.Reserve(nets, prims)
	}
	b.SetPeriod(f.Period)
	if f.ClockUnit > 0 {
		b.SetClockUnit(f.ClockUnit)
	}
	if f.HasWire {
		b.SetDefaultWire(f.Wire)
	}
	if f.HasPSkew {
		b.SetPrecisionSkew(f.PSkew)
	}
	if f.HasCSkew {
		b.SetClockSkew(f.CSkew)
	}
	if f.WiredOr {
		b.SetWiredOr(true)
	}

	e := &expander{
		b:      b,
		macros: map[string]*hdl.Macro{},
		report: &Report{
			Census: map[netlist.Kind]int{}, CensusBits: map[netlist.Kind]int{},
			UsesByMacro: map[string]int{}, PrimsByMacro: map[string]int{},
		},
		labels:   map[string]int{},
		paramIdx: map[string]int32{},
		fnIDs:    map[string]int32{},
	}
	// Design parameter declarations; a parameter without an explicit
	// range is fixed at its default.
	for _, pd := range f.Params {
		lo, hi := pd.Lo, pd.Hi
		if !pd.HasRange {
			lo, hi = pd.Default, pd.Default
		}
		e.paramIdx[pd.Name] = b.Param(strings.Clone(pd.Name), pd.Default, lo, hi)
	}
	// Pass 1: collect macro definitions.
	for _, m := range f.Macros {
		if _, dup := e.macros[m.Name]; dup {
			return nil, nil, fmt.Errorf("expand: macro %q defined twice (line %d)", m.Name, m.Line)
		}
		e.macros[m.Name] = m
	}
	root := &frame{path: "", params: map[string]int{}}

	// Root signal pre-declarations.
	for _, sd := range f.Signals {
		lo, hi := 0, 0
		if sd.HasRange {
			var err error
			lo, hi, err = evalRange(sd.Lo, sd.Hi, root.params)
			if err != nil {
				return nil, nil, fmt.Errorf("expand: signal %q: %v", sd.Name, err)
			}
		}
		if err := e.global(sd.Name, sd.HasRange, lo, hi); err != nil {
			return nil, nil, err
		}
		e.conns = e.conns[:0]
	}

	// Pass 2: expand the body.
	for _, inst := range f.Body {
		if err := e.instance(inst, root, 0); err != nil {
			return nil, nil, err
		}
	}

	// Interconnection overrides (§2.5.3).
	for _, wd := range f.Wires {
		sig, err := assertion.Parse(wd.Name)
		if err != nil {
			return nil, nil, fmt.Errorf("expand: wire %q: %v", wd.Name, err)
		}
		nets := e.b.NetsByBase(sig.Base)
		if len(nets) == 0 {
			return nil, nil, fmt.Errorf("expand: wire declaration names unknown signal %q", wd.Name)
		}
		e.b.SetWire(wd.Delay, nets...)
	}

	// Case specifications (§2.7.1).
	for _, cd := range f.Cases {
		var assigns []netlist.CaseAssign
		for _, a := range cd.Assigns {
			sig, err := assertion.Parse(a.Signal)
			if err != nil {
				return nil, nil, fmt.Errorf("expand: case %q: %v", cd.Label, err)
			}
			v := values.V0
			if a.Value == 1 {
				v = values.V1
			}
			assigns = append(assigns, netlist.Assign(strings.Clone(sig.Base), v))
		}
		e.b.AddCase(strings.Clone(cd.Label), assigns...)
	}

	d, err := e.b.Build()
	if err != nil {
		return nil, nil, err
	}
	return d, e.report, nil
}

func evalRange(lo, hi hdl.Expr, params map[string]int) (int, int, error) {
	l, err := lo.Eval(params)
	if err != nil {
		return 0, 0, err
	}
	h, err := hi.Eval(params)
	if err != nil {
		return 0, 0, err
	}
	if l > h {
		return 0, 0, fmt.Errorf("inverted bit range <%d:%d>", l, h)
	}
	if l < 0 {
		return 0, 0, fmt.Errorf("negative bit index %d", l)
	}
	if h-l >= maxVectorWidth {
		return 0, 0, fmt.Errorf("bit range <%d:%d> is wider than %d bits", l, h, maxVectorWidth)
	}
	return l, h, nil
}

// global pushes the connections of a global signal reference, creating
// its nets on first use with the Builder's vector naming.
func (e *expander) global(name string, hasRange bool, lo, hi int) error {
	if !hasRange {
		e.conns = append(e.conns, netlist.Conn{Net: e.b.Net(name)})
		return nil
	}
	s, err := e.b.Symbol(name)
	if err != nil {
		return fmt.Errorf("expand: %v", err)
	}
	for _, id := range e.b.Bits(s, lo, hi) {
		e.conns = append(e.conns, netlist.Conn{Net: id})
	}
	return nil
}

// resolve pushes the connections of a signal expression within a frame
// onto the connection stack, and returns them.
func (e *expander) resolve(se *hdl.SigExpr, fr *frame) ([]netlist.Conn, error) {
	start := len(e.conns)
	switch kind, i := scope(fr.m, se.Name); kind {
	case refPort:
		// Macro port: the actual connection, optionally sub-sliced.
		bound := fr.bindings[i]
		if se.HasRange {
			lo, hi, err := evalRange(se.Lo, se.Hi, fr.params)
			if err != nil {
				return nil, fmt.Errorf("expand: line %d: %v", se.Line, err)
			}
			if hi >= len(bound) {
				return nil, fmt.Errorf("expand: line %d: port %q bit %d exceeds bound width %d", se.Line, se.Name, hi, len(bound))
			}
			bound = bound[lo : hi+1]
		}
		e.conns = append(e.conns, bound...)
	case refLocal:
		// Macro local: a uniquified global per expansion (the /M markers).
		// Its first reference creates every declared bit.
		decl := fr.m.Locals[i]
		uname := fr.path + se.Name
		dlo, dhi := 0, 0
		if decl.HasRange {
			var err error
			dlo, dhi, err = evalRange(decl.Lo, decl.Hi, fr.params)
			if err != nil {
				return nil, fmt.Errorf("expand: line %d: local %q: %v", se.Line, se.Name, err)
			}
		}
		if err := e.global(uname, decl.HasRange, dlo, dhi); err != nil {
			return nil, err
		}
		if se.HasRange {
			lo, hi, err := evalRange(se.Lo, se.Hi, fr.params)
			if err != nil {
				return nil, fmt.Errorf("expand: line %d: %v", se.Line, err)
			}
			if lo < dlo || hi > dhi {
				return nil, fmt.Errorf("expand: line %d: local %q<%d:%d> outside declared <%d:%d>", se.Line, se.Name, lo, hi, dlo, dhi)
			}
			e.conns = append(e.conns[:start], e.conns[start+lo-dlo:start+hi-dlo+1]...)
		}
	default:
		lo, hi := 0, 0
		var err error
		if se.HasRange {
			lo, hi, err = evalRange(se.Lo, se.Hi, fr.params)
			if err != nil {
				return nil, fmt.Errorf("expand: line %d: %v", se.Line, err)
			}
		}
		if err := e.global(se.Name, se.HasRange, lo, hi); err != nil {
			return nil, err
		}
	}

	conns := e.conns[start:len(e.conns):len(e.conns)]
	if se.Invert {
		for i := range conns {
			conns[i].Invert = !conns[i].Invert
		}
	}
	if se.Dirs != "" {
		conns = e.b.Directive(strings.Clone(se.Dirs), conns)
	}
	return conns, nil
}

// outNets resolves an output signal expression onto the net stack:
// outputs must be plain net references (no complement rail, no
// directives).
func (e *expander) outNets(se *hdl.SigExpr, fr *frame) ([]netlist.NetID, error) {
	if se.Invert || se.Dirs != "" {
		return nil, fmt.Errorf("expand: line %d: output %q cannot carry - or & decorations", se.Line, se.Name)
	}
	conns, err := e.resolve(se, fr)
	if err != nil {
		return nil, err
	}
	start := len(e.nets)
	for _, c := range conns {
		if c.Invert || !c.Directives.Empty() {
			return nil, fmt.Errorf("expand: line %d: output %q is bound through a decorated connection", se.Line, se.Name)
		}
		e.nets = append(e.nets, c.Net)
	}
	return e.nets[start:len(e.nets):len(e.nets)], nil
}

// affine lowers one side of a parsed delay expression to the netlist's
// picosecond affine form, resolving parameter names to indices, merging
// repeated parameters and dropping zero coefficients so identical
// expressions share a canonical spelling.
func (e *expander) affine(x hdl.DExpr, line int) (netlist.Affine, error) {
	a := netlist.Affine{Base: tick.Time(math.Round(x.ConstNS * 1000))}
	pos := map[int32]int{}
	for _, t := range x.Terms {
		pi, ok := e.paramIdx[t.Param]
		if !ok {
			return a, fmt.Errorf("expand: line %d: delay expression references undeclared parameter %q", line, t.Param)
		}
		if j, seen := pos[pi]; seen {
			a.Coeffs[j].PS += t.NS * 1000
		} else {
			pos[pi] = len(a.Coeffs)
			a.Coeffs = append(a.Coeffs, netlist.Coeff{Param: pi, PS: t.NS * 1000})
		}
	}
	kept := a.Coeffs[:0]
	for _, c := range a.Coeffs {
		if c.PS != 0 {
			kept = append(kept, c)
		}
	}
	a.Coeffs = kept
	return a, nil
}

// delayFn lowers an instance's delay expression pair to a shared
// analytic delay function, deduplicating identical functions so term
// sets over them stay small.
func (e *expander) delayFn(inst *hdl.Instance) (int32, error) {
	mn, err := e.affine(inst.DelayExprMin, inst.Line)
	if err != nil {
		return 0, err
	}
	mx, err := e.affine(inst.DelayExprMax, inst.Line)
	if err != nil {
		return 0, err
	}
	key := fmt.Sprintf("%d%v|%d%v", mn.Base, mn.Coeffs, mx.Base, mx.Coeffs)
	if id, ok := e.fnIDs[key]; ok {
		return id, nil
	}
	id := e.b.AddDelayFn(netlist.DelayFn{Min: mn, Max: mx})
	e.fnIDs[key] = id
	return id, nil
}

var kindByName = map[string]netlist.Kind{
	"buf": netlist.KBuf, "not": netlist.KNot,
	"and": netlist.KAnd, "or": netlist.KOr,
	"nand": netlist.KNand, "nor": netlist.KNor,
	"xor": netlist.KXor, "chg": netlist.KChg,
	"mux2": netlist.KMux2, "mux4": netlist.KMux4, "mux8": netlist.KMux8,
	"reg": netlist.KReg, "regrs": netlist.KRegRS,
	"latch": netlist.KLatch, "latchrs": netlist.KLatchRS,
	"setuphold":         netlist.KSetupHold,
	"setupriseholdfall": netlist.KSetupRiseHoldFall,
	"minpulse":          netlist.KMinPulse,
}

// label names an instance within its frame, followed by suffix, as a
// string of its own: at the root, an explicit label is cloned rather than
// kept as a slice of the source.
func (e *expander) label(inst *hdl.Instance, fr *frame, suffix string) string {
	if inst.Label != "" {
		if fr.path == "" && suffix == "" {
			return strings.Clone(inst.Label)
		}
		return fr.path + inst.Label + suffix
	}
	key := inst.Kind
	if inst.Kind == "use" {
		key = inst.Macro
	}
	e.labels[key]++
	return fr.path + key + "." + strconv.Itoa(e.labels[key]) + suffix
}

func (e *expander) tally(fr *frame, k netlist.Kind, width int) {
	e.report.Primitives++
	e.report.ScalarBits += width
	e.report.Census[k]++
	e.report.CensusBits[k] += width
	e.report.PrimsByMacro[fr.macro()]++
}

// instance expands one primitive or macro use, and then pops whatever it
// pushed onto the expander's stacks.
func (e *expander) instance(inst *hdl.Instance, fr *frame, depth int) error {
	if depth > maxDepth {
		return fmt.Errorf("expand: line %d: macro nesting deeper than %d (recursive macro?)", inst.Line, maxDepth)
	}
	defer e.pop(e.height())
	if inst.Kind == "use" {
		return e.expandUse(inst, fr, depth)
	}
	return e.primitive(inst, fr)
}

// selectWhat names each mux select input in messages.
var selectWhat = [...]string{"select 0", "select 1", "select 2"}

func (e *expander) primitive(inst *hdl.Instance, fr *frame) error {
	k, ok := kindByName[inst.Kind]
	if !ok {
		return fmt.Errorf("expand: line %d: unknown primitive %q", inst.Line, inst.Kind)
	}
	label := e.label(inst, fr, "")

	base := len(e.ins)
	for _, se := range inst.Ins {
		c, err := e.resolve(se, fr)
		if err != nil {
			return err
		}
		e.ins = append(e.ins, c)
	}
	ins := e.ins[base:]
	base = len(e.outs)
	for _, se := range inst.Outs {
		o, err := e.outNets(se, fr)
		if err != nil {
			return err
		}
		e.outs = append(e.outs, o)
	}
	outs := e.outs[base:]

	// A delay expression lowers to a shared analytic function; the
	// primitive is built with a placeholder delay and bound to the
	// function, which sets Delay to the default-point evaluation.
	var fnID int32
	if inst.HasDelayExpr {
		var err error
		if fnID, err = e.delayFn(inst); err != nil {
			return err
		}
	}
	bind := func(id netlist.PrimID) {
		if fnID > 0 && id >= 0 {
			e.b.BindDelayFn(id, fnID)
		}
	}

	need := func(nIn, nOut int) error {
		if len(ins) != nIn || len(outs) != nOut {
			return fmt.Errorf("expand: line %d: %s needs %d inputs and %d outputs, has %d and %d",
				inst.Line, inst.Kind, nIn, nOut, len(ins), len(outs))
		}
		return nil
	}
	scalar := func(c []netlist.Conn, what string) (netlist.Conn, error) {
		if len(c) != 1 {
			return netlist.Conn{}, fmt.Errorf("expand: line %d: %s %s must be one bit wide, is %d", inst.Line, inst.Kind, what, len(c))
		}
		return c[0], nil
	}

	switch {
	case k.IsGate():
		if len(outs) != 1 || len(ins) < 1 {
			return fmt.Errorf("expand: line %d: %s needs at least one input and exactly one output", inst.Line, inst.Kind)
		}
		e.tally(fr, k, len(outs[0]))
		if inst.HasRF {
			e.b.GateRF(k, label, inst.Rise, inst.Fall, outs[0], ins...)
		} else {
			bind(e.b.Gate(k, label, inst.Delay, outs[0], ins...))
		}
	case k.NumSelects() > 0:
		ns := k.NumSelects()
		if err := need(ns+k.NumMuxData(), 1); err != nil {
			return err
		}
		base := len(e.conns)
		for i := 0; i < ns; i++ {
			s, err := scalar(ins[i], selectWhat[i])
			if err != nil {
				return err
			}
			e.conns = append(e.conns, s)
		}
		sel := e.conns[base:]
		e.tally(fr, k, len(outs[0]))
		bind(e.b.Mux(k, label, inst.Delay, inst.SelDelay, outs[0], sel, ins[ns:]...))
	case k == netlist.KReg, k == netlist.KLatch:
		if err := need(2, 1); err != nil {
			return err
		}
		ck, err := scalar(ins[0], "clock/enable")
		if err != nil {
			return err
		}
		e.tally(fr, k, len(outs[0]))
		if k == netlist.KReg {
			bind(e.b.Register(label, inst.Delay, outs[0], ck, ins[1]))
		} else {
			bind(e.b.Latch(label, inst.Delay, outs[0], ck, ins[1]))
		}
	case k == netlist.KRegRS, k == netlist.KLatchRS:
		if err := need(4, 1); err != nil {
			return err
		}
		ck, err := scalar(ins[0], "clock/enable")
		if err != nil {
			return err
		}
		set, err := scalar(ins[2], "set")
		if err != nil {
			return err
		}
		rst, err := scalar(ins[3], "reset")
		if err != nil {
			return err
		}
		e.tally(fr, k, len(outs[0]))
		if k == netlist.KRegRS {
			bind(e.b.RegisterRS(label, inst.Delay, outs[0], ck, ins[1], set, rst))
		} else {
			bind(e.b.LatchRS(label, inst.Delay, outs[0], ck, ins[1], set, rst))
		}
	case k == netlist.KSetupHold, k == netlist.KSetupRiseHoldFall:
		if err := need(2, 0); err != nil {
			return err
		}
		ck, err := scalar(ins[1], "clock")
		if err != nil {
			return err
		}
		e.tally(fr, k, len(ins[0]))
		if k == netlist.KSetupHold {
			e.b.SetupHold(label, inst.Setup, inst.Hold, ins[0], ck)
		} else {
			e.b.SetupRiseHoldFall(label, inst.Setup, inst.Hold, ins[0], ck)
		}
	case k == netlist.KMinPulse:
		if err := need(1, 0); err != nil {
			return err
		}
		in, err := scalar(ins[0], "input")
		if err != nil {
			return err
		}
		e.tally(fr, k, 1)
		e.b.MinPulse(label, inst.High, inst.Low, in)
	default:
		return fmt.Errorf("expand: line %d: unhandled primitive kind %v", inst.Line, k)
	}
	return nil
}

func (e *expander) expandUse(inst *hdl.Instance, fr *frame, depth int) error {
	m, ok := e.macros[inst.Macro]
	if !ok {
		return fmt.Errorf("expand: line %d: unknown macro %q", inst.Line, inst.Macro)
	}
	e.report.MacroUses++
	e.report.UsesByMacro[m.Name]++

	// Value parameters; an undeclared binding is reported in source
	// order.
	params := make(map[string]int, len(m.Params))
	for _, pn := range m.Params {
		exp, ok := inst.Param(pn)
		if !ok {
			return fmt.Errorf("expand: line %d: macro %q needs parameter %s", inst.Line, m.Name, pn)
		}
		v, err := exp.Eval(fr.params)
		if err != nil {
			return fmt.Errorf("expand: line %d: parameter %s: %v", inst.Line, pn, err)
		}
		params[pn] = v
	}
	for _, pv := range inst.ParamVals {
		if !slices.Contains(m.Params, pv.Name) {
			return fmt.Errorf("expand: line %d: macro %q has no parameter %s", inst.Line, m.Name, pv.Name)
		}
	}

	// Port bindings (the Pass-1 synonym resolution), on the stacks until
	// the use returns.
	sub := &frame{
		path:   e.label(inst, fr, "/"),
		m:      m,
		params: params,
	}
	base := len(e.ins)
	for _, pd := range m.Ports {
		se := inst.Conn(pd.Name)
		if se == nil {
			return fmt.Errorf("expand: line %d: macro %q port %s not connected", inst.Line, m.Name, pd.Name)
		}
		conns, err := e.resolve(se, fr)
		if err != nil {
			return err
		}
		want := 1
		if pd.HasRange {
			lo, hi, err := evalRange(pd.Lo, pd.Hi, params)
			if err != nil {
				return fmt.Errorf("expand: line %d: port %s: %v", inst.Line, pd.Name, err)
			}
			want = hi - lo + 1
		}
		if len(conns) == 1 && want > 1 {
			// Scalar broadcast across a vector port, as with primitive
			// data ports.
			c, start := conns[0], len(e.conns)
			for range want {
				e.conns = append(e.conns, c)
			}
			conns = e.conns[start:]
		}
		if len(conns) != want {
			return fmt.Errorf("expand: line %d: macro %q port %s is %d bits, connection %q is %d",
				inst.Line, m.Name, pd.Name, want, se.Name, len(conns))
		}
		e.ins = append(e.ins, conns)
		e.report.Synonyms += len(conns)
	}
	sub.bindings = e.ins[base:len(e.ins):len(e.ins)]
	for _, pc := range inst.Conns {
		if kind, _ := scope(m, pc.Port); kind != refPort {
			return fmt.Errorf("expand: line %d: macro %q has no port %s", inst.Line, m.Name, pc.Port)
		}
	}
	for _, child := range m.Body {
		if err := e.instance(child, sub, depth+1); err != nil {
			return err
		}
	}
	return nil
}
