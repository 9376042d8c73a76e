package expand

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"scaldtv/internal/assertion"
	"scaldtv/internal/hdl"
	"scaldtv/internal/netlist"
)

// Pass 1 compiles the root body, and each macro at each vector of
// parameter values it reaches (a binding), once into a template: its
// primitives with their kinds, labels and delay functions; its signal
// references classified as port, local or global, with their bit ranges
// evaluated, global stems resolved and directives parsed; and its census,
// the primitives and nets one expansion creates.  Pass 2 stamps the root
// template once, and each use stamps its binding's template: it binds the
// ports, names the locals by macro path and calls the Builder's
// constructors, so a binding used a thousand times is resolved once.
//
// Every check Pass 2 made per use either reads only the binding, and is
// made here once, or reads the use's own connections or path, and is
// made when the use is stamped.  A template keeps the first error its
// body reaches where Pass 2 would reach it (see tinst), so a design
// fails with the same error, at the same point, as if every use were
// resolved afresh.
//
// The census sizes the netlist: a global vector counts the distinct bits
// its references cover under the stem table Builder.Symbol resolves it
// to, so every spelling of one vector shares one count, and never its
// highest index; a macro local counts its declared width per expansion
// only when the body references it; a scalar counts once per distinct
// name.  For a design Pass 2 elaborates, the count exceeds what Pass 2
// creates only where names counted apart meet in one net name, such as a
// quoted scalar that spells a vector bit.  A design that fails may have
// counted far more than Pass 2 creates, and the Builder's staged growth
// (netlist.Builder.Reserve) keeps that cheap.  Where the census cannot
// count — any compile error, recursion, a count past MaxInt32 — nothing
// is reserved.

// template is one macro binding, or the root body, compiled.
type template struct {
	m      *hdl.Macro     // nil at the root
	params map[string]int // the binding's parameter values
	ports  []tport        // per m.Ports: its width at these values
	locals []tlocal       // per m.Locals: its declared bits
	body   []tinst
	refs   []tref                 // every instance's references, body order
	dirs   []assertion.Directives // parsed directive strings, by tref.dirs
	decls  []tref                 // the root's signal declarations,
	sigs   []*hdl.SigExpr         // naming these signals
	err    error                  // the root's first declaration error

	compiling, compiled bool

	// cost is what one expansion creates, nested expansions included;
	// counted is false where it could not be counted.
	cost    cost
	counted bool

	// census is what one expansion's own primitives add to the Report,
	// and synonyms the port bits one use binds; stamps counts the
	// expansions Pass 2 made.
	census   []tally
	synonyms int
	stamps   int
}

// tport is a macro port's width at one binding, or why it has none.
type tport struct {
	width int
	err   error
}

// tlocal is a macro local's declared bits at one binding, evaluated when
// the body first references it.
type tlocal struct {
	lo, hi          int
	err             error
	evaluated, used bool
}

// cost counts what one expansion creates beyond global nets: its
// primitives and its macro-local nets, nested expansions included.
type cost struct{ prims, nets int }

// tally is one primitive kind's instances and summed widths.
type tally struct {
	kind    netlist.Kind
	n, bits int
}

// tinst is one compiled instance: a primitive, or a use whose template
// is use.  Its references are the template's refs[from:to]: a
// primitive's inputs then its outputs (nIns inputs), or a use's port
// bindings in port order.  A labelled instance has label -1; any other
// takes its default label from the counter e.counts[label].
//
// err, when set, is the first error the instance reaches wherever it is
// stamped: a check that reads only the binding, made once.
type tinst struct {
	inst     *hdl.Instance
	use      *template
	err      *terr
	from, to int32
	label    int32
	nIns     int32
	fn       int32 // the delay function, 0 for none
	kind     netlist.Kind
}

// terr places an instance's error: with at < 0 it comes before the
// label; otherwise the first at references resolve first, and the next
// one too when post is set, since resolving them can fail on a use's own
// connections or path first.
type terr struct {
	err  error
	at   int
	post bool
}

// tref is one compiled signal reference: a primitive's input or output
// expression, or the connection inst.Conns[src] a use binds to a port
// (see tinst.sig).  For a port, i is its index and lo..hi the bits of
// the binding it selects; for a local, i is its index and lo..hi offsets
// into its declared bits; for a global vector, i is its stem and lo..hi
// its bits.  Unranged refs take the whole port or local, or the global
// scalar the expression names.  dirs indexes the template's parsed
// directives from 1 (0: none, or dirsBad where they do not parse).  A
// use's binding whose connection is one bit wide broadcasts it to bcast
// bits.  A tref holds no pointer, so the garbage collector never scans
// a template's references.
type tref struct {
	lo, hi  int
	i       int32
	src     int32
	bcast   int32
	dirs    int32
	kind    refKind
	ranged  bool
	invert  bool
	dirsBad bool
}

// sig returns the expression of an instance's reference r, its k-th.
func (ti *tinst) sig(r *tref, k int) *hdl.SigExpr {
	switch {
	case ti.use != nil:
		return ti.inst.Conns[r.src].Sig
	case k < int(ti.nIns):
		return ti.inst.Ins[k]
	}
	return ti.inst.Outs[k-int(ti.nIns)]
}

// span is one global vector reference: bits lo..hi of a stem.
type span struct {
	stem   netlist.Sym
	lo, hi int
}

// conned is a use's connection, compiled while its binding compiles.
type conned struct {
	r     tref
	width int
	err   error
	post  bool
}

// fail records the instance's first error: see tinst.
func (ti *tinst) fail(at int, post bool, err error) {
	ti.err = &terr{err, at, post}
}

// compile is Pass 1: it compiles the root signal declarations and body,
// and every binding they reach, and returns the root template with the
// counts of nets and primitives Pass 2 will create; ok is false where
// the census could not count.
func (e *expander) compile(f *hdl.File) (root *template, nets, prims int, ok bool) {
	e.counted = true
	root = &template{params: map[string]int{}}
	for _, sd := range f.Signals {
		lo, hi := 0, 0
		if sd.HasRange {
			var err error
			if lo, hi, err = evalRange(sd.Lo, sd.Hi, root.params); err != nil {
				root.err = fmt.Errorf("expand: signal %q: %v", sd.Name, err)
				return root, 0, 0, false
			}
		}
		se := &hdl.SigExpr{Name: sd.Name, HasRange: sd.HasRange}
		var r tref
		if _, err := e.compileGlobal(se, lo, hi, &r); err != nil {
			root.err = err
			return root, 0, 0, false
		}
		root.decls, root.sigs = append(root.decls, r), append(root.sigs, se)
	}
	e.compileBody(root, f.Body, 0)
	if !e.counted || !root.counted {
		return root, 0, 0, false
	}
	nets = root.cost.nets + len(e.names) + e.vectorBits()
	if nets > math.MaxInt32 || root.cost.prims > math.MaxInt32 {
		return root, 0, 0, false
	}
	return root, nets, root.cost.prims, true
}

// binding returns the template of macro m at the given parameter values,
// adding it, with its port widths, on first use.
func (e *expander) binding(m *hdl.Macro, vals []int) *template {
	key := e.key[:0]
	for _, v := range vals {
		key = binary.LittleEndian.AppendUint64(key, uint64(v))
	}
	e.key = key
	byVals := e.templates[m]
	if t, ok := byVals[string(key)]; ok {
		return t
	}
	if byVals == nil {
		byVals = map[string]*template{}
		e.templates[m] = byVals
	}
	t := &template{m: m, params: make(map[string]int, len(m.Params)),
		ports: make([]tport, len(m.Ports)), locals: make([]tlocal, len(m.Locals))}
	for i, pn := range m.Params {
		t.params[pn] = vals[i]
	}
	for i, pd := range m.Ports {
		p := &t.ports[i]
		p.width = 1
		if pd.HasRange {
			lo, hi, err := evalRange(pd.Lo, pd.Hi, t.params)
			p.width, p.err = hi-lo+1, err
		}
		t.synonyms += p.width
	}
	byVals[string(key)] = t
	e.order = append(e.order, t)
	return t
}

// compileBody compiles a template's body at the given nesting depth, and
// counts it.  A body nested deeper than maxDepth is left to Pass 2, which
// reports it; a body reached again while it compiles is a recursion.
// Both leave the census uncounted.
func (e *expander) compileBody(t *template, body []*hdl.Instance, depth int) {
	if t.compiled || t.compiling {
		if t.compiling {
			e.counted = false
		}
		return
	}
	if len(body) > 0 && depth > maxDepth {
		e.counted = false
		return
	}
	t.compiling = true
	t.counted = true
	t.body = make([]tinst, 0, len(body))
	n := 0
	for _, inst := range body {
		// A use binds a connection to each port.
		n += len(inst.Ins) + len(inst.Outs) + len(inst.Conns)
	}
	t.refs = make([]tref, 0, n)
	for _, inst := range body {
		t.body = append(t.body, tinst{inst: inst, label: -1, from: int32(len(t.refs))})
		ti := &t.body[len(t.body)-1]
		if inst.Kind == "use" {
			e.compileUse(t, ti, depth)
		} else {
			e.compilePrim(t, ti)
		}
		ti.to = int32(len(t.refs))
		if ti.err != nil {
			// Every expansion stops here.
			e.counted = false
			break
		}
		if ti.use == nil {
			t.cost.prims++
			continue
		}
		if !ti.use.counted {
			t.counted = false
			continue
		}
		t.cost.prims += ti.use.cost.prims
		t.cost.nets += ti.use.cost.nets
		if t.cost.prims > math.MaxInt32 || t.cost.nets > math.MaxInt32 {
			t.counted = false
		}
	}
	for i := range t.locals {
		if l := &t.locals[i]; l.used {
			t.cost.nets += l.hi - l.lo + 1
		}
	}
	if !t.counted {
		e.counted = false
	}
	t.compiling, t.compiled = false, true
}

// compileRef classifies and resolves one signal reference within a
// template, returning its width.  An error reached only after the
// reference's own nets are named (post: a local's sub-range) leaves the
// reference naming the whole local, so Pass 2 can still resolve it.
func (e *expander) compileRef(t *template, se *hdl.SigExpr, r *tref) (width int, err error, post bool) {
	r.invert = se.Invert
	if se.Dirs != "" {
		if d, err := assertion.ParseDirectives(strings.Clone(se.Dirs)); err != nil {
			r.dirsBad = true
		} else {
			t.dirs = append(t.dirs, d)
			r.dirs = int32(len(t.dirs))
		}
	}
	kind, i := scope(t.m, se.Name)
	r.kind, r.i = kind, int32(i)
	switch kind {
	case refPort:
		width = t.ports[i].width
		if se.HasRange {
			lo, hi, err := evalRange(se.Lo, se.Hi, t.params)
			if err != nil {
				return 0, fmt.Errorf("expand: line %d: %v", se.Line, err), false
			}
			if hi >= width {
				return 0, fmt.Errorf("expand: line %d: port %q bit %d exceeds bound width %d", se.Line, se.Name, hi, width), false
			}
			r.ranged, r.lo, r.hi = true, lo, hi
			width = hi - lo + 1
		}
	case refLocal:
		l := &t.locals[i]
		if !l.evaluated {
			l.evaluated = true
			if decl := t.m.Locals[i]; decl.HasRange {
				l.lo, l.hi, l.err = evalRange(decl.Lo, decl.Hi, t.params)
			}
		}
		if l.err != nil {
			return 0, fmt.Errorf("expand: line %d: local %q: %v", se.Line, se.Name, l.err), false
		}
		l.used = true
		width = l.hi - l.lo + 1
		if se.HasRange {
			lo, hi, err := evalRange(se.Lo, se.Hi, t.params)
			if err != nil {
				return 0, fmt.Errorf("expand: line %d: %v", se.Line, err), true
			}
			if lo < l.lo || hi > l.hi {
				return 0, fmt.Errorf("expand: line %d: local %q<%d:%d> outside declared <%d:%d>", se.Line, se.Name, lo, hi, l.lo, l.hi), true
			}
			r.ranged, r.lo, r.hi = true, lo-l.lo, hi-l.lo
			width = hi - lo + 1
		}
	default:
		lo, hi := 0, 0
		if se.HasRange {
			var err error
			if lo, hi, err = evalRange(se.Lo, se.Hi, t.params); err != nil {
				return 0, fmt.Errorf("expand: line %d: %v", se.Line, err), false
			}
		}
		w, err := e.compileGlobal(se, lo, hi, r)
		return w, err, false
	}
	return width, nil, false
}

// compileGlobal resolves a global signal reference into r: a vector to
// its stem, counting its bits lo..hi; a scalar by name.
func (e *expander) compileGlobal(se *hdl.SigExpr, lo, hi int, r *tref) (int, error) {
	r.kind = refGlobal
	if !se.HasRange {
		e.names[se.Name] = true
		return 1, nil
	}
	s, err := e.b.Symbol(se.Name)
	if err != nil {
		return 0, fmt.Errorf("expand: %v", err)
	}
	r.ranged, r.i, r.lo, r.hi = true, int32(s), lo, hi
	e.addSpan(s, lo, hi)
	return hi - lo + 1, nil
}

// selectWhat names each mux select input in messages.
var selectWhat = [...]string{"select 0", "select 1", "select 2"}

// compilePrim compiles one primitive instance, making the checks Pass 2
// made per instance in the order it made them.
func (e *expander) compilePrim(t *template, ti *tinst) {
	inst := ti.inst
	k, ok := kindByName[inst.Kind]
	if !ok {
		ti.fail(-1, false, fmt.Errorf("expand: line %d: unknown primitive %q", inst.Line, inst.Kind))
		return
	}
	ti.kind, ti.nIns = k, int32(len(inst.Ins))
	e.labelText(ti, inst.Kind)
	start := len(t.refs)
	widths := e.widths[:0]
	for _, se := range inst.Ins {
		w, err := e.addRef(t, ti, start, se)
		if err != nil {
			return
		}
		widths = append(widths, w)
	}
	for _, se := range inst.Outs {
		if se.Invert || se.Dirs != "" {
			ti.fail(len(t.refs)-start, false, fmt.Errorf("expand: line %d: output %q cannot carry - or & decorations", se.Line, se.Name))
			return
		}
		w, err := e.addRef(t, ti, start, se)
		if err != nil {
			return
		}
		widths = append(widths, w)
	}
	e.widths = widths
	ins, outs := widths[:ti.nIns], widths[ti.nIns:]
	nrefs := len(t.refs) - start

	// A delay expression lowers to a shared analytic function; the
	// primitive is built with a placeholder delay and bound to the
	// function, which sets Delay to the default-point evaluation.
	if inst.HasDelayExpr {
		fn, err := e.delayFn(inst)
		if err != nil {
			ti.fail(nrefs, false, err)
			return
		}
		ti.fn = fn
	}

	need := func(nIn, nOut int) error {
		if len(ins) != nIn || len(outs) != nOut {
			return fmt.Errorf("expand: line %d: %s needs %d inputs and %d outputs, has %d and %d",
				inst.Line, inst.Kind, nIn, nOut, len(ins), len(outs))
		}
		return nil
	}
	scalar := func(j int, what string) error {
		if ins[j] != 1 {
			return fmt.Errorf("expand: line %d: %s %s must be one bit wide, is %d", inst.Line, inst.Kind, what, ins[j])
		}
		return nil
	}
	var width int
	var err error
	switch {
	case k.IsGate():
		if len(outs) != 1 || len(ins) < 1 {
			err = fmt.Errorf("expand: line %d: %s needs at least one input and exactly one output", inst.Line, inst.Kind)
		} else {
			width = outs[0]
		}
	case k.NumSelects() > 0:
		ns := k.NumSelects()
		if err = need(ns+k.NumMuxData(), 1); err == nil {
			for i := 0; i < ns && err == nil; i++ {
				err = scalar(i, selectWhat[i])
			}
			width = outs[0]
		}
	case k == netlist.KReg, k == netlist.KLatch:
		if err = need(2, 1); err == nil {
			err = scalar(0, "clock/enable")
			width = outs[0]
		}
	case k == netlist.KRegRS, k == netlist.KLatchRS:
		if err = need(4, 1); err == nil {
			if err = scalar(0, "clock/enable"); err == nil {
				if err = scalar(2, "set"); err == nil {
					err = scalar(3, "reset")
				}
			}
			width = outs[0]
		}
	case k == netlist.KSetupHold, k == netlist.KSetupRiseHoldFall:
		if err = need(2, 0); err == nil {
			err = scalar(1, "clock")
			width = ins[0]
		}
	case k == netlist.KMinPulse:
		if err = need(1, 0); err == nil {
			err = scalar(0, "input")
			width = 1
		}
	default:
		err = fmt.Errorf("expand: line %d: unhandled primitive kind %v", inst.Line, k)
	}
	if err != nil {
		ti.fail(nrefs, false, err)
		return
	}
	t.count(k, width)
}

// addRef compiles a primitive's next reference onto the template's
// references, which for this instance start at start.  An error is the
// instance's, at the reference's place.
func (e *expander) addRef(t *template, ti *tinst, start int, se *hdl.SigExpr) (int, error) {
	t.refs = append(t.refs, tref{})
	w, err, post := e.compileRef(t, se, &t.refs[len(t.refs)-1])
	if err != nil {
		ti.fail(len(t.refs)-1-start, post, err)
		if !post {
			t.refs = t.refs[:len(t.refs)-1]
		}
	}
	return w, err
}

// failRef records the error of a use's binding at its place among the
// use's references, which start at start.
func (e *expander) failRef(t *template, ti *tinst, start int, r *tref, post bool, err error) {
	ti.fail(len(t.refs)-start, post, err)
	if post {
		t.refs = append(t.refs, *r)
	}
}

// compileUse compiles one macro use: its binding, compiled in turn, and
// its port bindings checked against the binding's port widths, in the
// order Pass 2 checked them.
func (e *expander) compileUse(t *template, ti *tinst, depth int) {
	inst := ti.inst
	// Every connection is compiled, in source order, whether or not it
	// names a port: the census counts each, and Builder.Symbol creates
	// stems in this order.
	base := len(e.conned)
	defer func() { e.conned = e.conned[:base] }()
	for ci, pc := range inst.Conns {
		e.conned = append(e.conned, conned{})
		c := &e.conned[len(e.conned)-1]
		c.r.src = int32(ci)
		if c.width, c.err, c.post = e.compileRef(t, pc.Sig, &c.r); c.err != nil {
			e.counted = false
		}
	}
	m, ok := e.macros[inst.Macro]
	if !ok {
		ti.fail(-1, false, fmt.Errorf("expand: line %d: unknown macro %q", inst.Line, inst.Macro))
		return
	}
	// Value parameters; an undeclared binding is reported in source
	// order.
	vals := e.vals[:0]
	for _, pn := range m.Params {
		exp, ok := inst.Param(pn)
		if !ok {
			ti.fail(-1, false, fmt.Errorf("expand: line %d: macro %q needs parameter %s", inst.Line, m.Name, pn))
			return
		}
		v, err := exp.Eval(t.params)
		if err != nil {
			ti.fail(-1, false, fmt.Errorf("expand: line %d: parameter %s: %v", inst.Line, pn, err))
			return
		}
		vals = append(vals, v)
	}
	e.vals = vals
	for _, pv := range inst.ParamVals {
		if !slices.Contains(m.Params, pv.Name) {
			ti.fail(-1, false, fmt.Errorf("expand: line %d: macro %q has no parameter %s", inst.Line, m.Name, pv.Name))
			return
		}
	}
	b := e.binding(m, vals)
	ti.use = b
	e.compileBody(b, m.Body, depth+1)
	e.labelText(ti, inst.Macro)

	// Port bindings (the Pass-1 synonym resolution): each port binds the
	// first connection that names it.
	start := len(t.refs)
	for pi, pd := range m.Ports {
		ci := slices.IndexFunc(inst.Conns, func(pc hdl.PortConn) bool { return pc.Port == pd.Name })
		if ci < 0 {
			ti.fail(len(t.refs)-start, false, fmt.Errorf("expand: line %d: macro %q port %s not connected", inst.Line, m.Name, pd.Name))
			return
		}
		c := &e.conned[base+ci]
		if c.err != nil {
			e.failRef(t, ti, start, &c.r, c.post, c.err)
			return
		}
		port := &b.ports[pi]
		if port.err != nil {
			e.failRef(t, ti, start, &c.r, true, fmt.Errorf("expand: line %d: port %s: %v", inst.Line, pd.Name, port.err))
			return
		}
		if c.width == 1 && port.width > 1 {
			// Scalar broadcast across a vector port, as with primitive
			// data ports.
			c.r.bcast, c.width = int32(port.width), port.width
		}
		if c.width != port.width {
			e.failRef(t, ti, start, &c.r, true, fmt.Errorf("expand: line %d: macro %q port %s is %d bits, connection %q is %d",
				inst.Line, m.Name, pd.Name, port.width, inst.Conns[ci].Sig.Name, c.width))
			return
		}
		t.refs = append(t.refs, c.r)
	}
	for _, pc := range inst.Conns {
		if kind, _ := scope(m, pc.Port); kind != refPort {
			ti.fail(len(t.refs)-start, false, fmt.Errorf("expand: line %d: macro %q has no port %s", inst.Line, m.Name, pc.Port))
			return
		}
	}
}

// labelText gives an unlabelled instance its default label's counter:
// key is the primitive kind, or the macro a use expands.
func (e *expander) labelText(ti *tinst, key string) {
	if ti.inst.Label != "" {
		return
	}
	c, ok := e.counter[key]
	if !ok {
		c = int32(len(e.counts))
		e.counter[key] = c
		e.counts = append(e.counts, 0)
	}
	ti.label = c
}

// count adds one primitive to what one expansion contributes to the
// Report.
func (t *template) count(k netlist.Kind, width int) {
	for i := range t.census {
		if t.census[i].kind == k {
			t.census[i].n++
			t.census[i].bits += width
			return
		}
	}
	t.census = append(t.census, tally{k, 1, width})
}

// addSpan records a global vector reference, merging it into the last
// one recorded for its stem when the two overlap or touch: the union
// vectorBits counts is the same, and most references extend the last.
func (e *expander) addSpan(s netlist.Sym, lo, hi int) {
	for int(s) >= len(e.lastSpan) {
		e.lastSpan = append(e.lastSpan, -1)
	}
	if j := e.lastSpan[s]; j >= 0 {
		if sp := &e.spans[j]; lo-1 <= sp.hi && sp.lo-1 <= hi {
			sp.lo, sp.hi = min(sp.lo, lo), max(sp.hi, hi)
			return
		}
	}
	e.lastSpan[s] = int32(len(e.spans))
	e.spans = append(e.spans, span{s, lo, hi})
}

// vectorBits counts the distinct bits the global vector references
// cover, stem by stem.
func (e *expander) vectorBits() int {
	slices.SortFunc(e.spans, func(a, b span) int {
		if a.stem != b.stem {
			return cmp.Compare(a.stem, b.stem)
		}
		return cmp.Compare(a.lo, b.lo)
	})
	n := 0
	for i := 0; i < len(e.spans); {
		cur := e.spans[i]
		for i++; i < len(e.spans) && e.spans[i].stem == cur.stem && e.spans[i].lo-1 <= cur.hi; i++ {
			cur.hi = max(cur.hi, e.spans[i].hi)
		}
		n += cur.hi - cur.lo + 1
	}
	return n
}
