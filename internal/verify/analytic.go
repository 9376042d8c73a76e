package verify

import (
	"fmt"
	"sort"

	"scaldtv/internal/netlist"
	"scaldtv/internal/pathsearch"
	"scaldtv/internal/tick"
)

// Analytic delay mode (Options.Delays is AnalyticDelays): the relaxation
// itself runs on the design pinned at one parameter point θ0 — so
// violations, margins and waveforms are exactly what a constant-delay
// verification at that point produces — and a symbolic post-pass
// (internal/pathsearch.AnalyzeAnalytic) retains, for every collected
// constraint margin, the closed-form arrival function of its data pin.
// The resulting MarginSurface answers "what is the slack at parameter
// point θ" for any θ inside the declared box without re-running the
// engine:
//
//	late-arrival sites:  slack(θ) = slack(θ0) + L(θ0) − L(θ)
//	hold sites:          slack(θ) = slack(θ0) + E(θ) − E(θ0)
//
// where L/E are the max/min over the site's path-class terms, each term
// evaluated with exactly the per-primitive rounding Design.PinParams
// uses.  When the site's term set is Exact (survived the term cap) and
// the constraint's binding path stays the path-DP critical one across
// the box — the same regime assumption statistical mode makes — the
// surface is bit-identical to re-running the engine on the design pinned
// at θ, which is what the metamorphic suite locks.

// ParamBinding is one design parameter with its declared box and the
// value it was pinned to for the engine run (θ0).
type ParamBinding struct {
	Name   string
	Value  float64 // the anchor point θ0
	Lo, Hi float64 // the declared parameter box
}

// SurfaceSite is the symbolic margin function at one constraint site:
// the engine's slack at the anchor point plus the path-class terms that
// shift it as parameters move.
type SurfaceSite struct {
	Kind  ViolationKind
	Case  string
	Prim  string
	Data  string
	Clock string

	Slack0 tick.Time // engine slack at the anchor point θ0
	Hold   bool      // early-arrival site: slack grows as arrivals slow
	Anchor tick.Time // L(θ0) (late sites) or E(θ0) (hold sites)

	// Terms is the site's path-class set — Late terms for late-arrival
	// sites, Early terms for hold sites.  Exact records that the set
	// survived the term cap, i.e. the surface is the true path-DP
	// extremum everywhere in the box.
	Terms []pathsearch.Term
	Exact bool
}

// MarginSurface is the self-contained symbolic margin report of an
// analytic-mode verification: every constraint site's slack as a
// closed-form function over the declared parameter box.  It references
// nothing from the session that produced it, so it can be queried after
// the Verifier is gone.
type MarginSurface struct {
	// Params lists the design parameters in declared order, with the
	// anchor point the engine ran at.
	Params []ParamBinding
	// Sites lists the constraint sites in the result's margin order.
	Sites []SurfaceSite

	fns    []netlist.DelayFn
	byName map[string]int
}

// CornerSlack is one site's slack at a queried parameter point.
type CornerSlack struct {
	Site  int // index into MarginSurface.Sites
	Slack tick.Time
}

// point resolves a name → value override map against the surface's
// parameter bindings: parameters not named stay at the anchor point θ0.
// Unknown names and values outside the declared box are errors, reported
// for the lexically first bad name.
func (ms *MarginSurface) point(overrides map[string]float64) ([]float64, error) {
	vals := make([]float64, len(ms.Params))
	for i, p := range ms.Params {
		vals[i] = p.Value
	}
	names := make([]string, 0, len(overrides))
	for name := range overrides {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		i, ok := ms.byName[name]
		if !ok {
			return nil, fmt.Errorf("verify: margin surface has no parameter %q", name)
		}
		v := overrides[name]
		p := ms.Params[i]
		if v != v || v < p.Lo || v > p.Hi {
			return nil, fmt.Errorf("verify: parameter %s = %v outside its declared range [%v, %v]", name, v, p.Lo, p.Hi)
		}
		vals[i] = v
	}
	return vals, nil
}

// slackAt evaluates one site's margin function at a parameter vector.
func (ms *MarginSurface) slackAt(s *SurfaceSite, vals []float64) tick.Time {
	if s.Hold {
		e, ok := pathsearch.EvalTerms(s.Terms, ms.fns, false, vals)
		if !ok {
			return s.Slack0
		}
		return s.Slack0 + e - s.Anchor
	}
	l, ok := pathsearch.EvalTerms(s.Terms, ms.fns, true, vals)
	if !ok {
		return s.Slack0
	}
	return s.Slack0 + s.Anchor - l
}

// At evaluates every site's slack at a parameter point, given as
// overrides of the anchor point (nil = the anchor itself).  The returned
// slice aligns with Sites.
func (ms *MarginSurface) At(overrides map[string]float64) ([]tick.Time, error) {
	vals, err := ms.point(overrides)
	if err != nil {
		return nil, err
	}
	out := make([]tick.Time, len(ms.Sites))
	for i := range ms.Sites {
		out[i] = ms.slackAt(&ms.Sites[i], vals)
	}
	return out, nil
}

// Violations returns the sites violated (slack < 0) at a parameter
// point, in site order.
func (ms *MarginSurface) Violations(overrides map[string]float64) ([]CornerSlack, error) {
	slacks, err := ms.At(overrides)
	if err != nil {
		return nil, err
	}
	var out []CornerSlack
	for i, s := range slacks {
		if s < 0 {
			out = append(out, CornerSlack{Site: i, Slack: s})
		}
	}
	return out, nil
}

// maxCornerParams bounds the vertex enumeration of a binding-corner
// search, matching the netlist box-validation cap.
const maxCornerParams = 12

// BindingCorner returns the parameter point in the declared box that
// minimises site i's slack, together with that worst slack.  The margin
// function is the anchor slack shifted by a max (late) or min (hold) of
// affine terms, so its minimum over the box is attained at a box vertex;
// only the parameters the site's terms actually reference are swept (the
// rest stay at the anchor), and when more than maxCornerParams are
// referenced the search falls back to the per-parameter greedy corner —
// exact for single-term sites, a lower bound on slack otherwise.
func (ms *MarginSurface) BindingCorner(i int) (map[string]float64, tick.Time) {
	s := &ms.Sites[i]
	used := map[int32]bool{}
	for _, t := range s.Terms {
		for _, c := range t.Counts {
			af := ms.fns[c.Fn-1].Min
			if !s.Hold {
				af = ms.fns[c.Fn-1].Max
			}
			for _, co := range af.Coeffs {
				used[co.Param] = true
			}
		}
	}
	idx := make([]int32, 0, len(used))
	for p := range used {
		idx = append(idx, p)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })

	vals := make([]float64, len(ms.Params))
	for k, p := range ms.Params {
		vals[k] = p.Value
	}
	worst := ms.slackAt(s, vals)
	best := append([]float64(nil), vals...)

	if len(idx) > maxCornerParams {
		// Greedy fallback: walk each referenced parameter to whichever
		// end of its range hurts more, one at a time.
		for _, p := range idx {
			lo, hi := ms.Params[p].Lo, ms.Params[p].Hi
			vals[p] = lo
			sl := ms.slackAt(s, vals)
			vals[p] = hi
			if sh := ms.slackAt(s, vals); sh < sl {
				sl = sh
			} else {
				vals[p] = lo
			}
			if sl < worst {
				worst = sl
			}
		}
		copy(best, vals)
	} else {
		for bits := 0; bits < 1<<len(idx); bits++ {
			for k, p := range idx {
				if bits&(1<<k) != 0 {
					vals[p] = ms.Params[p].Hi
				} else {
					vals[p] = ms.Params[p].Lo
				}
			}
			if sl := ms.slackAt(s, vals); sl < worst {
				worst = sl
				copy(best, vals)
			}
		}
	}
	corner := make(map[string]float64, len(idx))
	for _, p := range idx {
		corner[ms.Params[p].Name] = best[p]
	}
	return corner, worst
}

// fillMarginSurface computes Result.MarginSurface from the collected
// margins and the design's symbolic arrival functions, anchored at the
// parameter vector the engine ran on.  Margins whose checker has no
// combinational path ending at it (clock-only sites, assertion
// cross-checks) have no arrival terms and are skipped, exactly as
// statistical mode skips them.
func (V *Verifier) fillMarginSurface(res *Result, vals []float64) {
	d := V.d
	sites, _ := pathsearch.AnalyzeAnalytic(d, 0)
	ms := &MarginSurface{
		fns:    d.DelayFns,
		byName: make(map[string]int, len(d.Params)),
	}
	for i, p := range d.Params {
		v := p.Default
		if vals != nil {
			v = vals[i]
		}
		ms.Params = append(ms.Params, ParamBinding{Name: p.Name, Value: v, Lo: p.Lo, Hi: p.Hi})
		ms.byName[p.Name] = i
	}
	byPrim := pathsearch.ByPrim(sites)
	for _, m := range res.Margins {
		pins := byPrim[m.Prim]
		if len(pins) == 0 {
			continue
		}
		site := SurfaceSite{
			Kind:   m.Kind,
			Case:   m.Case,
			Prim:   m.Prim,
			Data:   m.Data,
			Clock:  m.Clock,
			Slack0: m.Slack(),
			Hold:   m.Kind == HoldViolation,
		}
		if site.Hold {
			// Early-arrival hazard: the binding pin is the one whose
			// earliest symbolic arrival at θ0 is smallest.  Ties resolve
			// to the first pin in the label-sorted order.
			best, bestV, ok := pickPin(pins, ms.fns, false, vals)
			if !ok {
				continue
			}
			site.Anchor = bestV
			site.Terms = best.Early
			site.Exact = best.EarlyExact
		} else {
			best, bestV, ok := pickPin(pins, ms.fns, true, vals)
			if !ok {
				continue
			}
			site.Anchor = bestV
			site.Terms = best.Late
			site.Exact = best.LateExact
		}
		ms.Sites = append(ms.Sites, site)
	}
	res.MarginSurface = ms
}

// pickPin selects the binding end pin of a constraint instance: the one
// with the extremal symbolic arrival at the anchor point (latest for
// late-arrival sites, earliest for hold sites).
func pickPin(pins []*pathsearch.SiteTerms, fns []netlist.DelayFn, late bool, vals []float64) (*pathsearch.SiteTerms, tick.Time, bool) {
	var best *pathsearch.SiteTerms
	var bestV tick.Time
	for _, p := range pins {
		terms := p.Early
		if late {
			terms = p.Late
		}
		v, ok := pathsearch.EvalTerms(terms, fns, late, vals)
		if !ok {
			continue
		}
		if best == nil || (late && v > bestV) || (!late && v < bestV) {
			best, bestV = p, v
		}
	}
	return best, bestV, best != nil
}
