package pathsearch

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
)

// Symbolic path DP over analytic delay functions: instead of a single
// min/max number per net, each net carries a set of path-class Terms —
// a constant plus "traverse delay function f, N times" counts — so the
// arrival time at a constraint site is a closed-form function of the
// design parameters: the max (late side) or min (early side) over the
// term set of Const + Σ N · round(affine(θ)).
//
// Exactness contract: a term's value at θ uses exactly the same per-prim
// rounding as Design.PinParams, so evaluating the term set at θ is
// bit-identical to re-running the interval DP on the pinned design —
// provided the set kept every non-dominated term (Exact).  Dominance is
// proven conservatively over the whole parameter box with a ±0.5·N
// rounding guard, so pruning never sacrifices exactness; only the term
// cap can, and that is reported via the Exact flags.

// FnCount says: this path class traverses delay function Fn (1-based
// into Design.DelayFns) N times.
type FnCount struct {
	Fn int32
	N  int32
}

// Term is one path class: a constant delay plus counted traversals of
// analytic delay functions.  Counts is sorted by Fn and never holds
// zero counts, so equal classes compare equal.
type Term struct {
	Const  tick.Time
	Counts []FnCount
}

// Value evaluates the term at a parameter point; the late side uses
// each function's Max bound, the early side its Min bound.  Rounding
// matches Design.PinParams: each of the N traversals contributes the
// same individually-rounded affine evaluation.
func (t Term) Value(fns []netlist.DelayFn, late bool, vals []float64) tick.Time {
	v := t.Const
	for _, c := range t.Counts {
		a := fns[c.Fn-1].Min
		if late {
			a = fns[c.Fn-1].Max
		}
		v += tick.Time(c.N) * a.Eval(vals)
	}
	return v
}

// weight is the total traversal count — the rounding-guard width.
func (t Term) weight() int32 {
	var n int32
	for _, c := range t.Counts {
		n += c.N
	}
	return n
}

// key is the canonical path-class signature as a string, which orders
// equal-valued classes when a term set is truncated.
func (t Term) key() string {
	var sb strings.Builder
	for _, c := range t.Counts {
		fmt.Fprintf(&sb, "%d:%d,", c.Fn, c.N)
	}
	return sb.String()
}

// EvalTerms returns the extremal term value at a parameter point: max
// over the set for the late side, min for the early side.  ok is false
// for an empty set (site unreached).
func EvalTerms(terms []Term, fns []netlist.DelayFn, late bool, vals []float64) (tick.Time, bool) {
	if len(terms) == 0 {
		return 0, false
	}
	best := terms[0].Value(fns, late, vals)
	for _, t := range terms[1:] {
		v := t.Value(fns, late, vals)
		if late && v > best || !late && v < best {
			best = v
		}
	}
	return best, true
}

// SiteTerms is the symbolic arrival function at one constraint-site end
// pin: the late (latest-arrival) and early (earliest-arrival) term sets
// over every start and every reconvergent path, with flags recording
// whether each set survived the term cap intact.
type SiteTerms struct {
	To                    string
	Late, Early           []Term
	LateExact, EarlyExact bool
}

// DefaultMaxTerms caps the per-site term set; sets that would exceed it
// are truncated and flagged inexact.
const DefaultMaxTerms = 32

// termSet is one side's term set at a net, with whether it survived the
// term cap intact.
type termSet struct {
	terms []Term
	exact bool
}

// termSets is the analytic instance's value at a net: the late and early
// term sets of the paths reaching it.
type termSets struct {
	late, early termSet
}

// pruner is the analytic instance of the path algebra: an edge adds its
// constant part to every term and counts its delay function, and
// reconvergent paths union their term sets, dropping the terms it proves
// dominated over the design's parameter box.
type pruner struct {
	d        *netlist.Design
	maxTerms int
	defVals  []float64
	// The dominance proof's scratch: the summed coefficient of each
	// parameter, zero between proofs, and the nonzero sums of one proof.
	coeffs  []float64
	nonzero []netlist.Coeff
}

func newPruner(d *netlist.Design, maxTerms int) *pruner {
	return &pruner{d: d, maxTerms: maxTerms, defVals: d.ParamDefaults(), coeffs: make([]float64, len(d.Params))}
}

func (pr *pruner) start() termSets {
	return termSets{late: termSet{terms: []Term{{}}, exact: true}, early: termSet{terms: []Term{{}}, exact: true}}
}

func (pr *pruner) extend(v termSets, e edge) termSets {
	return termSets{
		late:  termSet{terms: extendTerms(v.late.terms, e, true), exact: v.late.exact},
		early: termSet{terms: extendTerms(v.early.terms, e, false), exact: v.early.exact},
	}
}

func (pr *pruner) join(dst, v termSets) termSets {
	return termSets{late: pr.mergeTerms(dst.late, v.late, true), early: pr.mergeTerms(dst.early, v.early, false)}
}

// maxPruneParams bounds the vertex enumeration of a dominance proof.
const maxPruneParams = 12

// dominates reports whether a's value provably bounds b's everywhere in
// the parameter box — ≥ everywhere on the late side, ≤ on the early
// side — including the worst case of per-term rounding.
func (pr *pruner) dominates(a, b Term, late bool) bool {
	// Real-valued affine difference diff(θ) = La(θ) − Lb(θ), its
	// coefficients summed per parameter in pr.coeffs.
	base := float64(a.Const - b.Const)
	fn := func(c FnCount) netlist.Affine {
		if late {
			return pr.d.DelayFns[c.Fn-1].Max
		}
		return pr.d.DelayFns[c.Fn-1].Min
	}
	add := func(t Term, sign float64) {
		for _, c := range t.Counts {
			af := fn(c)
			base += sign * float64(c.N) * float64(af.Base)
			for _, co := range af.Coeffs {
				pr.coeffs[co.Param] += sign * float64(c.N) * co.PS
			}
		}
	}
	// collect moves the nonzero sums into nz and zeroes pr.coeffs: a
	// parameter's sum is taken at its first visit, later ones read 0.
	nz := pr.nonzero[:0]
	collect := func(t Term) {
		for _, c := range t.Counts {
			for _, co := range fn(c).Coeffs {
				if v := pr.coeffs[co.Param]; v != 0 {
					nz = append(nz, netlist.Coeff{Param: co.Param, PS: v})
				}
				pr.coeffs[co.Param] = 0
			}
		}
	}
	add(a, 1)
	add(b, -1)
	collect(a)
	collect(b)
	pr.nonzero = nz
	// Rounding guard: each function traversal may round up to half a
	// picosecond either way.
	guard := 0.5 * float64(a.weight()+b.weight())
	if len(nz) > maxPruneParams {
		return false
	}
	slices.SortFunc(nz, func(x, y netlist.Coeff) int { return cmp.Compare(x.Param, y.Param) })
	// The affine difference is extremal at box vertices.
	for bits := 0; bits < 1<<len(nz); bits++ {
		v := base
		for k, c := range nz {
			x := pr.d.Params[c.Param].Lo
			if bits&(1<<k) != 0 {
				x = pr.d.Params[c.Param].Hi
			}
			v += c.PS * x
		}
		if late && v < guard || !late && v > -guard {
			return false
		}
	}
	return true
}

// mergeTerms unions two term sets for one side: duplicate path classes
// keep the extremal constant, provably dominated classes are dropped,
// and a set still over the cap is truncated (deterministically, best
// default-point values first) and flagged inexact.
func (pr *pruner) mergeTerms(dst, src termSet, late bool) termSet {
	out := termSet{exact: dst.exact && src.exact}
	var terms []Term
	addAll := func(ts []Term) {
		for _, t := range ts {
			i := slices.IndexFunc(terms, func(u Term) bool { return slices.Equal(u.Counts, t.Counts) })
			if i < 0 {
				terms = append(terms, t)
			} else if late && t.Const > terms[i].Const || !late && t.Const < terms[i].Const {
				terms[i].Const = t.Const
			}
		}
	}
	addAll(dst.terms)
	addAll(src.terms)
	if len(terms) > 1 {
		kept := make([]Term, 0, len(terms))
		for i := range terms {
			dominated := false
			for j := range terms {
				if i == j {
					continue
				}
				if pr.dominates(terms[j], terms[i], late) &&
					// Symmetric pairs (mutual dominance up to the guard
					// cannot happen, but identical reals can): keep the
					// earlier index.
					!(j > i && pr.dominates(terms[i], terms[j], late)) {
					dominated = true
					break
				}
			}
			if !dominated {
				kept = append(kept, terms[i])
			}
		}
		terms = kept
	}
	if len(terms) > pr.maxTerms {
		fns := pr.d.DelayFns
		sort.SliceStable(terms, func(i, j int) bool {
			vi, vj := terms[i].Value(fns, late, pr.defVals), terms[j].Value(fns, late, pr.defVals)
			if vi != vj {
				if late {
					return vi > vj
				}
				return vi < vj
			}
			return terms[i].key() < terms[j].key()
		})
		terms = terms[:pr.maxTerms]
		out.exact = false
	}
	out.terms = terms
	return out
}

// extendTerms advances a term set across one edge.
func extendTerms(ts []Term, e edge, late bool) []Term {
	c := e.cnst.Min
	if late {
		c = e.cnst.Max
	}
	out := make([]Term, len(ts))
	for i, t := range ts {
		out[i] = Term{Const: t.Const + c, Counts: t.Counts}
		if e.fn > 0 {
			out[i].Counts = bumpCount(t.Counts, e.fn)
		}
	}
	return out
}

// bumpCount returns counts with fn incremented, preserving sort order
// and never aliasing the input slice.
func bumpCount(counts []FnCount, fn int32) []FnCount {
	out := make([]FnCount, 0, len(counts)+1)
	placed := false
	for _, c := range counts {
		switch {
		case c.Fn == fn:
			out = append(out, FnCount{Fn: fn, N: c.N + 1})
			placed = true
		case c.Fn > fn && !placed:
			out = append(out, FnCount{Fn: fn, N: 1}, c)
			placed = true
		default:
			out = append(out, c)
		}
	}
	if !placed {
		out = append(out, FnCount{Fn: fn, N: 1})
	}
	return out
}

// joinConst joins one constant term c into ts, owned by the caller, as
// join would.  A set that is one constant term keeps the extremal
// constant in place; any other goes through mergeTerms.
func (pr *pruner) joinConst(ts *termSet, c tick.Time, late bool) {
	if len(ts.terms) == 1 && len(ts.terms[0].Counts) == 0 {
		if t := &ts.terms[0]; late && c > t.Const || !late && c < t.Const {
			t.Const = c
		}
		return
	}
	*ts = pr.mergeTerms(*ts, termSet{terms: []Term{{Const: c}}, exact: true}, late)
}

// parametric marks the nets some path from which crosses an analytic
// delay function, in one reverse-topological pass.  A net on a loop is
// never extended, so no path goes on from it.
func (g *graph) parametric() []bool {
	p := make([]bool, len(g.adj))
	for i := len(g.order) - 1; i >= 0; i-- {
		u := g.order[i]
		for _, h := range g.adj[u] {
			if h.fn > 0 || slices.ContainsFunc(g.outs[h.lo:h.hi], func(o int32) bool { return p[o] }) {
				p[u] = true
				break
			}
		}
	}
	return p
}

// AnalyzeAnalytic runs the analytic instance of the path algebra over
// the same combinational graph as Analyze, producing the late and early
// term sets for every constraint-site end pin (keyed by "prim:port"
// label), unioned over every start.  maxTerms ≤ 0 selects
// DefaultMaxTerms.  Combinational loops are reported as in Analyze;
// looped nets get no terms.
//
// A start whose cone crosses no analytic delay function is priced by
// the worst-case instance instead.  That is exact: from such a start,
// every step adds its cnst, which equals its delay when fn == 0, to one
// constant term per side, and a join of two such sets keeps the
// extremal constant of their one shared path class.  So at every net
// the late set is the single term {Max} of the worst-case range and the
// early set the single term {Min}, and folding them is joinConst.
func AnalyzeAnalytic(d *netlist.Design, maxTerms int) (map[string]*SiteTerms, []string) {
	if maxTerms <= 0 {
		maxTerms = DefaultMaxTerms
	}
	g := buildGraph(d)
	alg := newPruner(d, maxTerms)
	param := g.parametric()
	// Each traversal is built when a start first needs it.
	var (
		terms *traversal[termSets]
		wc    *traversal[tick.Range]
	)
	// union[slot] is the pin label's union so far, nil terms before its
	// first start; it owns its term slices, which joinConst may write.
	union := make([]termSets, len(g.labels))
	for _, s := range g.starts {
		if param[s] {
			if terms == nil {
				terms = newTraversal[termSets](g, alg)
			}
			terms.sweep(s)
			terms.pins(func(pin *endPin) {
				v, u := terms.at(pin), &union[pin.slot]
				if u.late.terms != nil {
					v = alg.join(*u, v)
				}
				*u = v
			})
			continue
		}
		if wc == nil {
			wc = newTraversal[tick.Range](g, ticks{})
		}
		wc.sweep(s)
		wc.pins(func(pin *endPin) {
			r, u := wc.at(pin), &union[pin.slot]
			if u.late.terms == nil {
				ts := []Term{{Const: r.Max}, {Const: r.Min}}
				*u = termSets{late: termSet{terms: ts[:1:1], exact: true}, early: termSet{terms: ts[1:], exact: true}}
				return
			}
			alg.joinConst(&u.late, r.Max, true)
			alg.joinConst(&u.early, r.Min, false)
		})
	}
	out := make(map[string]*SiteTerms, len(union))
	for slot, v := range union {
		if v.late.terms != nil {
			label := g.labels[slot]
			out[label] = &SiteTerms{To: label, Late: v.late.terms, Early: v.early.terms, LateExact: v.late.exact, EarlyExact: v.early.exact}
		}
	}
	return out, g.loops
}

// ByPrim regroups a per-pin result of AnalyzeDist or AnalyzeAnalytic by
// checker or storage instance — the part of each "prim:port" label
// before its last colon — keeping each instance's pins in label order.
func ByPrim[S any](sites map[string]S) map[string][]S {
	labels := make([]string, 0, len(sites))
	for label := range sites {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	byPrim := make(map[string][]S)
	for _, label := range labels {
		prim := label
		if i := strings.LastIndexByte(label, ':'); i >= 0 {
			prim = label[:i]
		}
		byPrim[prim] = append(byPrim[prim], sites[label])
	}
	return byPrim
}
