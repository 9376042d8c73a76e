package expand

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"scaldtv/internal/hdl"
	"scaldtv/internal/netlist"
)

// count is Pass 1's census: one walk of the parsed file, before Pass 2,
// that counts the nets and primitives Pass 2 will create, so the Builder
// grows each table at most once.  A macro's count is memoized per parameter
// values.  Names are classified by scope, as Pass 2 resolves them: a
// global vector counts the distinct bits its references cover under the
// stem table Builder.Symbol resolves it to, so every spelling of one
// vector shares one count, and never its highest index; a macro local
// counts its declared width per expansion only when the body references
// it; a scalar counts once per distinct name.  For a design Pass 2 elaborates, the count exceeds what
// Pass 2 creates only where names counted apart meet in one net name,
// such as a quoted scalar that spells a vector bit.  The census mirrors
// none of Pass 2's checks: a design that fails part way may have
// counted far more than Pass 2 creates, and the Builder's staged growth
// (netlist.Builder.Reserve) keeps that cheap.  It reports !ok only where
// it cannot count: an unknown macro, a parameter without a value, an
// invalid range or spelling, recursion, or a count past MaxInt32; then
// nothing is reserved, and Pass 2 reports the error.
func count(f *hdl.File, b *netlist.Builder) (nets, prims int, ok bool) {
	c := &census{
		b:      b,
		macros: make(map[string]*hdl.Macro, len(f.Macros)),
		memo:   map[memoKey]cost{},
		names:  map[string]bool{},
	}
	for _, m := range f.Macros {
		c.macros[m.Name] = m
	}
	root := &cframe{params: map[string]int{}}
	for _, sd := range f.Signals {
		se := hdl.SigExpr{Name: sd.Name, HasRange: sd.HasRange, Lo: sd.Lo, Hi: sd.Hi}
		if err := c.ref(&se, root); err != nil {
			return 0, 0, false
		}
	}
	total, err := c.body(f.Body, root, 0)
	if err != nil {
		return 0, 0, false
	}
	nets = total.nets + len(c.names) + c.vectorBits()
	if nets > math.MaxInt32 || total.prims > math.MaxInt32 {
		return 0, 0, false
	}
	return nets, total.prims, true
}

// census is the state of one count.
type census struct {
	b      *netlist.Builder
	macros map[string]*hdl.Macro
	memo   map[memoKey]cost
	names  map[string]bool // global names referenced without a range
	spans  []span          // global vector references
	vals   []int           // reused parameter-value buffer
	key    []byte          // reused memo-key buffer
}

// memoKey is one macro at one vector of parameter values, each value
// encoded in 8 bytes.
type memoKey struct {
	m    *hdl.Macro
	vals string
}

// cost counts what one expansion creates beyond global nets: its
// primitives and its macro-local nets, nested expansions included.  A
// negative prims marks a macro whose count is in progress.
type cost struct{ prims, nets int }

// span is one global vector reference: bits lo..hi of a stem.
type span struct {
	stem   netlist.Sym
	lo, hi int
}

// cframe is one level of census context: the macro being counted (nil
// at the root), its parameter values, and which of its locals the body
// references.
type cframe struct {
	m      *hdl.Macro
	params map[string]int
	used   []bool
}

// body counts one frame's instances, and then the frame's locals its
// instances referenced.
func (c *census) body(insts []*hdl.Instance, fr *cframe, depth int) (cost, error) {
	var total cost
	for _, inst := range insts {
		if depth > maxDepth {
			return cost{}, errCensus
		}
		if inst.Kind != "use" {
			for _, se := range inst.Ins {
				if err := c.ref(se, fr); err != nil {
					return cost{}, err
				}
			}
			for _, se := range inst.Outs {
				if err := c.ref(se, fr); err != nil {
					return cost{}, err
				}
			}
			total.prims++
			continue
		}
		for _, pc := range inst.Conns {
			if err := c.ref(pc.Sig, fr); err != nil {
				return cost{}, err
			}
		}
		sub, err := c.use(inst, fr, depth)
		if err != nil {
			return cost{}, err
		}
		total.prims += sub.prims
		total.nets += sub.nets
		if total.prims > math.MaxInt32 || total.nets > math.MaxInt32 {
			return cost{}, errCensus
		}
	}
	if fr.m != nil {
		for i, used := range fr.used {
			if !used {
				continue
			}
			if decl := fr.m.Locals[i]; decl.HasRange {
				lo, hi, err := evalRange(decl.Lo, decl.Hi, fr.params)
				if err != nil {
					return cost{}, err
				}
				total.nets += hi - lo + 1
			} else {
				total.nets++
			}
		}
	}
	return total, nil
}

// use counts one expansion of a macro, from the memo when the macro was
// already counted at these parameter values.
func (c *census) use(inst *hdl.Instance, fr *cframe, depth int) (cost, error) {
	m, ok := c.macros[inst.Macro]
	if !ok {
		return cost{}, errCensus
	}
	vals, key := c.vals[:0], c.key[:0]
	for _, pn := range m.Params {
		exp, ok := inst.Param(pn)
		if !ok {
			return cost{}, errCensus
		}
		v, err := exp.Eval(fr.params)
		if err != nil {
			return cost{}, err
		}
		vals = append(vals, v)
		key = binary.LittleEndian.AppendUint64(key, uint64(v))
	}
	c.vals, c.key = vals, key
	k := memoKey{m, string(key)}
	if got, ok := c.memo[k]; ok {
		if got.prims < 0 {
			return cost{}, errCensus // recursion at the same values
		}
		return got, nil
	}
	c.memo[k] = cost{prims: -1}
	sub := &cframe{m: m, params: make(map[string]int, len(m.Params)), used: make([]bool, len(m.Locals))}
	for i, pn := range m.Params {
		sub.params[pn] = vals[i]
	}
	got, err := c.body(m.Body, sub, depth+1)
	if err != nil {
		return cost{}, err
	}
	c.memo[k] = got
	return got, nil
}

// ref records one signal reference: a port binds existing nets, a local
// marks its declaration used, and a global name counts its nets.
func (c *census) ref(se *hdl.SigExpr, fr *cframe) error {
	lo, hi := 0, 0
	if se.HasRange {
		var err error
		if lo, hi, err = evalRange(se.Lo, se.Hi, fr.params); err != nil {
			return err
		}
	}
	switch kind, i := scope(fr.m, se.Name); {
	case kind == refPort:
		return nil
	case kind == refLocal:
		fr.used[i] = true
		return nil
	case !se.HasRange:
		c.names[se.Name] = true
		return nil
	}
	s, err := c.b.Symbol(se.Name)
	if err != nil {
		return err
	}
	c.spans = append(c.spans, span{s, lo, hi})
	return nil
}

// vectorBits counts the distinct bits the global vector references
// cover, stem by stem.
func (c *census) vectorBits() int {
	slices.SortFunc(c.spans, func(a, b span) int {
		if a.stem != b.stem {
			return cmp.Compare(a.stem, b.stem)
		}
		return cmp.Compare(a.lo, b.lo)
	})
	n := 0
	for i := 0; i < len(c.spans); {
		cur := c.spans[i]
		for i++; i < len(c.spans) && c.spans[i].stem == cur.stem && c.spans[i].lo-1 <= cur.hi; i++ {
			cur.hi = max(cur.hi, c.spans[i].hi)
		}
		n += cur.hi - cur.lo + 1
	}
	return n
}

// errCensus stands for any census failure: the census only decides
// whether to reserve, and Pass 2 reports the error itself.
var errCensus = errors.New("expand: census failed")
