package pathsearch

import (
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
	// Real-valued affine difference diff(θ) = La(θ) − Lb(θ).
	base := float64(a.Const - b.Const)
	coeffs := map[int32]float64{}
	add := func(t Term, sign float64, useMax bool) {
		for _, c := range t.Counts {
			af := pr.d.DelayFns[c.Fn-1].Min
			if useMax {
				af = pr.d.DelayFns[c.Fn-1].Max
			}
			base += sign * float64(c.N) * float64(af.Base)
			for _, co := range af.Coeffs {
				coeffs[co.Param] += sign * float64(c.N) * co.PS
			}
		}
	}
	add(a, 1, late)
	add(b, -1, late)
	// Rounding guard: each function traversal may round up to half a
	// picosecond either way.
	guard := 0.5 * float64(a.weight()+b.weight())
	params := make([]int32, 0, len(coeffs))
	for p, c := range coeffs {
		if c != 0 {
			params = append(params, p)
		}
	}
	if len(params) > maxPruneParams {
		return false
	}
	sort.Slice(params, func(i, j int) bool { return params[i] < params[j] })
	// The affine difference is extremal at box vertices.
	for bits := 0; bits < 1<<len(params); bits++ {
		v := base
		for k, p := range params {
			x := pr.d.Params[p].Lo
			if bits&(1<<k) != 0 {
				x = pr.d.Params[p].Hi
			}
			v += coeffs[p] * x
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

// AnalyzeAnalytic runs the analytic instance of the path algebra over
// the same combinational graph as Analyze, producing the late and early
// term sets for every constraint-site end pin (keyed by "prim:port"
// label), unioned over every start.  maxTerms ≤ 0 selects
// DefaultMaxTerms.  Combinational loops are reported as in Analyze;
// looped nets get no terms.
func AnalyzeAnalytic(d *netlist.Design, maxTerms int) (map[string]*SiteTerms, []string) {
	if maxTerms <= 0 {
		maxTerms = DefaultMaxTerms
	}
	g := buildGraph(d)
	alg := &pruner{d: d, maxTerms: maxTerms, defVals: d.ParamDefaults()}
	union := make(map[string]termSets)
	newTraversal[termSets](g, alg).fold(func(_ int32, pin *endPin, v termSets) bool {
		if cur, ok := union[pin.label]; ok {
			v = alg.join(cur, v)
		}
		union[pin.label] = v
		return true
	})
	out := make(map[string]*SiteTerms, len(union))
	for label, v := range union {
		out[label] = &SiteTerms{To: label, Late: v.late.terms, Early: v.early.terms, LateExact: v.late.exact, EarlyExact: v.early.exact}
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

// Parametric reports whether any primitive of the design carries an
// analytic delay function.
func Parametric(d *netlist.Design) bool {
	for i := range d.Prims {
		if d.Prims[i].Fn > 0 {
			return true
		}
	}
	return false
}
