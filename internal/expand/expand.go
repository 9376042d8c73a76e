// Package expand implements the SCALD Macro Expander (§3.3.2): it turns a
// parsed HDL file into the flat primitive netlist the Timing Verifier
// evaluates.  Pass 1 resolves macro definitions and compiles each macro
// at each vector of parameter values it is used with, once, into a
// template, counting the nets and primitives Pass 2 will create so the
// netlist's tables grow at most once; Pass 2 emits the fully elaborated
// design by stamping those templates, one vectored primitive instance at
// a time.
package expand

import (
	"fmt"
	"math"
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
	b       *netlist.Builder
	macros  map[string]*hdl.Macro
	report  *Report
	counter map[string]int32 // default-label key → its count in counts
	counts  []int

	paramIdx map[string]int32 // declared parameter name → Design.Params index
	fnIDs    map[string]int32 // canonical delay-function key → AddDelayFn handle

	// Pass 1 state: the templates by macro and parameter values (see
	// binding), in the order they were added; the census's global names
	// and vector spans, with each stem's last span (see addSpan); and
	// reused buffers.
	templates map[*hdl.Macro]map[string]*template
	order     []*template
	counted   bool
	names     map[string]bool
	spans     []span
	lastSpan  []int32
	conned    []conned
	widths    []int
	vals      []int
	key       []byte

	// conns, nets, ins and outs are stacks of transient connections: a
	// reference pushes its connections onto conns, and an output its nets
	// onto nets; a primitive pushes its input and output lists onto ins
	// and outs, and a use its port bindings onto ins.  An instance pops
	// what it pushed when it returns.  The Builder copies what a primitive
	// keeps, so no transient list outlives its instance.  locals holds
	// each open expansion's local nets, once named (see local).
	conns  []netlist.Conn
	nets   []netlist.NetID
	ins    [][]netlist.Conn
	outs   [][]netlist.NetID
	locals []localSlot
	lnets  []netlist.NetID
	buf    []byte // reused label buffer
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

// frame is one expansion being stamped: the template, the path that
// names its locals and labels, its port bindings, and where its locals'
// slots start.
type frame struct {
	t        *template
	path     string
	bindings [][]netlist.Conn // m.Ports index → actual connections
	locals   int
}

// localSlot holds where one local's nets are in lnets, once named.
type localSlot struct{ start, end int32 }

// A signal name inside a macro body is one of its ports, one of its
// locals, or a global name.
type refKind uint8

const (
	refGlobal refKind = iota
	refPort
	refLocal
)

// scope classifies a signal name inside macro m (nil at the root): a
// port binds the caller's nets, a local names nets of its own per
// expansion, and any other name is global.  i indexes m.Ports or
// m.Locals; a port shadows a local, and a later local declaration
// shadows an earlier one.
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

	e := &expander{
		b:      b,
		macros: map[string]*hdl.Macro{},
		report: &Report{
			Census: map[netlist.Kind]int{}, CensusBits: map[netlist.Kind]int{},
			UsesByMacro: map[string]int{}, PrimsByMacro: map[string]int{},
		},
		counter:   map[string]int32{},
		paramIdx:  map[string]int32{},
		fnIDs:     map[string]int32{},
		templates: map[*hdl.Macro]map[string]*template{},
		names:     map[string]bool{},
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
	// Pass 1: collect macro definitions, and compile the templates.
	for _, m := range f.Macros {
		if _, dup := e.macros[m.Name]; dup {
			return nil, nil, fmt.Errorf("expand: macro %q defined twice (line %d)", m.Name, m.Line)
		}
		e.macros[m.Name] = m
	}
	root, nets, prims, ok := e.compile(f)
	if ok {
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

	// Pass 2: the root signal declarations, then the body.
	if root.err != nil {
		return nil, nil, root.err
	}
	rootFrame := &frame{t: root}
	for i := range root.decls {
		if _, err := e.push(&root.decls[i], root.sigs[i], rootFrame); err != nil {
			return nil, nil, err
		}
		e.conns = e.conns[:0]
	}
	root.stamps = 1
	if err := e.stampBody(rootFrame, 0); err != nil {
		return nil, nil, err
	}
	e.tallyReport(root)

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

// label names an instance within its frame, followed by suffix: its
// label, or its default label's key with the key's next count.  At the
// root, a primitive's label is cloned rather than kept as a slice of the
// source.
func (e *expander) label(ti *tinst, fr *frame, suffix string) string {
	inst := ti.inst
	if ti.label < 0 {
		if fr.path == "" && suffix == "" {
			return strings.Clone(inst.Label)
		}
		return fr.path + inst.Label + suffix
	}
	key := inst.Kind
	if key == "use" {
		key = inst.Macro
	}
	e.counts[ti.label]++
	buf := append(append(append(e.buf[:0], fr.path...), key...), '.')
	buf = append(strconv.AppendInt(buf, int64(e.counts[ti.label]), 10), suffix...)
	e.buf = buf
	return string(buf)
}

// stampBody stamps one expansion's body, whose instances are at the
// given nesting depth.
func (e *expander) stampBody(fr *frame, depth int) error {
	t := fr.t
	if t.m != nil && len(t.m.Body) > 0 {
		if depth > maxDepth {
			return fmt.Errorf("expand: line %d: macro nesting deeper than %d (recursive macro?)", t.m.Body[0].Line, maxDepth)
		}
		// Pass 1 leaves a body nested too deep to count to Pass 2.
		e.compileBody(t, t.m.Body, depth)
	}
	for i := range t.body {
		if err := e.stamp(&t.body[i], fr, depth); err != nil {
			return err
		}
	}
	return nil
}

// stamp expands one compiled primitive or macro use within a frame, and
// then pops whatever it pushed onto the expander's stacks.
func (e *expander) stamp(ti *tinst, fr *frame, depth int) error {
	defer e.pop(e.height())
	if ti.err != nil && ti.err.at < 0 {
		return ti.err.err
	}
	suffix := ""
	if ti.use != nil {
		suffix = "/"
	}
	label := e.label(ti, fr, suffix)
	refs := fr.t.refs[ti.from:ti.to]
	if ti.err != nil {
		n := ti.err.at
		if ti.err.post {
			n++
		}
		refs = refs[:n]
	}
	base, outBase := len(e.ins), len(e.outs)
	for k := range refs {
		if err := e.bind(ti, &refs[k], k, fr); err != nil {
			return err
		}
	}
	if ti.err != nil {
		return ti.err.err
	}
	ins, outs := e.ins[base:], e.outs[outBase:]
	if ti.use == nil {
		e.build(ti, label, ins, outs)
		return nil
	}
	sub := ti.use
	sub.stamps++
	lbase, lnets := len(e.locals), len(e.lnets)
	for range sub.locals {
		e.locals = append(e.locals, localSlot{-1, -1})
	}
	err := e.stampBody(&frame{t: sub, path: label, bindings: ins[:len(ins):len(ins)], locals: lbase}, depth+1)
	e.locals, e.lnets = e.locals[:lbase], e.lnets[:lnets]
	return err
}

// bind resolves an instance's reference r, its k-th: a primitive input
// or a use's port binding onto ins, a primitive output onto outs.
func (e *expander) bind(ti *tinst, r *tref, k int, fr *frame) error {
	se := ti.sig(r, k)
	conns, err := e.push(r, se, fr)
	if err != nil {
		return err
	}
	if ti.use != nil || k < int(ti.nIns) {
		if r.bcast > 0 {
			c, start := conns[0], len(e.conns)
			for range r.bcast {
				e.conns = append(e.conns, c)
			}
			conns = e.conns[start:]
		}
		e.ins = append(e.ins, conns)
		return nil
	}
	// Outputs must be plain net references: no complement rail or
	// directives, on the reference or on the port binding it names.
	start := len(e.nets)
	for _, c := range conns {
		if c.Invert || !c.Directives.Empty() {
			return fmt.Errorf("expand: line %d: output %q is bound through a decorated connection", se.Line, se.Name)
		}
		e.nets = append(e.nets, c.Net)
	}
	e.outs = append(e.outs, e.nets[start:len(e.nets):len(e.nets)])
	return nil
}

// push resolves a compiled reference to se within a frame onto the
// connection stack, and returns its connections.
func (e *expander) push(r *tref, se *hdl.SigExpr, fr *frame) ([]netlist.Conn, error) {
	start := len(e.conns)
	switch r.kind {
	case refPort:
		bound := fr.bindings[r.i]
		if r.ranged {
			bound = bound[r.lo : r.hi+1 : r.hi+1]
		}
		if !r.invert && r.dirs == 0 && !r.dirsBad {
			// The binding stays on the stacks until the use returns, and
			// nothing writes to it: share it.
			return bound, nil
		}
		e.conns = append(e.conns, bound...)
	case refLocal:
		nets, err := e.local(fr, int(r.i))
		if err != nil {
			return nil, err
		}
		if r.ranged {
			nets = nets[r.lo : r.hi+1]
		}
		for _, id := range nets {
			e.conns = append(e.conns, netlist.Conn{Net: id})
		}
	default:
		if !r.ranged {
			e.conns = append(e.conns, netlist.Conn{Net: e.b.Net(se.Name)})
			break
		}
		for _, id := range e.b.Bits(netlist.Sym(r.i), r.lo, r.hi) {
			e.conns = append(e.conns, netlist.Conn{Net: id})
		}
	}
	conns := e.conns[start:len(e.conns):len(e.conns)]
	if r.invert {
		for i := range conns {
			conns[i].Invert = !conns[i].Invert
		}
	}
	if r.dirsBad {
		// The Builder records the parse error.
		e.b.Directive(se.Dirs, conns)
	} else if r.dirs > 0 {
		d := fr.t.dirs[r.dirs-1]
		for i := range conns {
			conns[i].Directives = d
		}
	}
	return conns, nil
}

// local returns the nets of a macro local in this expansion: a global
// named by the macro path (the /M markers) whose first reference creates
// every declared bit.
func (e *expander) local(fr *frame, i int) ([]netlist.NetID, error) {
	slot := &e.locals[fr.locals+i]
	if slot.start < 0 {
		name := fr.path + fr.t.m.Locals[i].Name
		start := len(e.lnets)
		if l := &fr.t.locals[i]; fr.t.m.Locals[i].HasRange {
			s, err := e.b.Symbol(name)
			if err != nil {
				return nil, fmt.Errorf("expand: %v", err)
			}
			e.lnets = append(e.lnets, e.b.Bits(s, l.lo, l.hi)...)
		} else {
			e.lnets = append(e.lnets, e.b.Net(name))
		}
		slot = &e.locals[fr.locals+i]
		slot.start, slot.end = int32(start), int32(len(e.lnets))
	}
	return e.lnets[slot.start:slot.end], nil
}

// build calls the Builder's constructor of a compiled primitive with its
// resolved connections.  A primitive with a delay function is built with
// a placeholder delay and bound to the function, which sets Delay to the
// default-point evaluation.
func (e *expander) build(ti *tinst, label string, ins [][]netlist.Conn, outs [][]netlist.NetID) {
	inst := ti.inst
	bind := func(id netlist.PrimID) {
		if ti.fn > 0 && id >= 0 {
			e.b.BindDelayFn(id, ti.fn)
		}
	}
	switch k := ti.kind; {
	case k.IsGate():
		if inst.HasRF {
			e.b.GateRF(k, label, inst.Rise, inst.Fall, outs[0], ins...)
		} else {
			bind(e.b.Gate(k, label, inst.Delay, outs[0], ins...))
		}
	case k.NumSelects() > 0:
		ns, base := k.NumSelects(), len(e.conns)
		for _, s := range ins[:ns] {
			e.conns = append(e.conns, s[0])
		}
		bind(e.b.Mux(k, label, inst.Delay, inst.SelDelay, outs[0], e.conns[base:], ins[ns:]...))
	case k == netlist.KReg:
		bind(e.b.Register(label, inst.Delay, outs[0], ins[0][0], ins[1]))
	case k == netlist.KLatch:
		bind(e.b.Latch(label, inst.Delay, outs[0], ins[0][0], ins[1]))
	case k == netlist.KRegRS:
		bind(e.b.RegisterRS(label, inst.Delay, outs[0], ins[0][0], ins[1], ins[2][0], ins[3][0]))
	case k == netlist.KLatchRS:
		bind(e.b.LatchRS(label, inst.Delay, outs[0], ins[0][0], ins[1], ins[2][0], ins[3][0]))
	case k == netlist.KSetupHold:
		e.b.SetupHold(label, inst.Setup, inst.Hold, ins[0], ins[1][0])
	case k == netlist.KSetupRiseHoldFall:
		e.b.SetupRiseHoldFall(label, inst.Setup, inst.Hold, ins[0], ins[1][0])
	case k == netlist.KMinPulse:
		e.b.MinPulse(label, inst.High, inst.Low, ins[0][0])
	}
}

// tallyReport adds every stamped template's census to the Report: one
// expansion's primitives and port bindings, times its expansions.
func (e *expander) tallyReport(root *template) {
	r := e.report
	for _, t := range append([]*template{root}, e.order...) {
		if t.stamps == 0 {
			continue
		}
		name := ""
		if t.m != nil {
			name = t.m.Name
			r.MacroUses += t.stamps
			r.UsesByMacro[name] += t.stamps
			r.Synonyms += t.stamps * t.synonyms
		}
		for _, c := range t.census {
			r.Primitives += t.stamps * c.n
			r.ScalarBits += t.stamps * c.bits
			r.Census[c.kind] += t.stamps * c.n
			r.CensusBits[c.kind] += t.stamps * c.bits
			r.PrimsByMacro[name] += t.stamps * c.n
		}
	}
}
