package netlist

import (
	"fmt"
	"math"
	"sort"

	"scaldtv/internal/tick"
)

// Parametric analytic delay functions: a design may declare named
// parameters (load, temperature, voltage, ...) and express primitive
// delays as affine functions over them.  The engine itself never
// evaluates these functions during relaxation — every Prim.Delay is the
// function evaluated at a concrete parameter point, so the seven-value
// relaxation stays exactly the paper's interval propagation — but the
// tables travel with the design so the path-search layer can build
// closed-form margin surfaces (internal/pathsearch.AnalyzeAnalytic) and
// the verifier can pin the design at any parameter point (PinParams)
// for differential cross-checks.

// Param is one named design parameter with its default value and the
// closed box [Lo, Hi] the corner surface ranges over.
type Param struct {
	Name    string
	Default float64
	Lo, Hi  float64
}

// Coeff is one affine term: PS picoseconds of delay per unit of the
// parameter at index Param in Design.Params.
type Coeff struct {
	Param int32
	PS    float64
}

// Affine is a closed-form delay bound: Base plus a weighted sum of
// parameter values, in picoseconds.
type Affine struct {
	Base   tick.Time
	Coeffs []Coeff
}

// Eval evaluates the affine form at the given parameter vector (indexed
// like Design.Params).  The float sum is rounded half away from zero to
// integer picoseconds in one deterministic step, so evaluating a term
// set symbolically (pathsearch.EvalTerms) and re-running the engine on a
// pinned design (PinParams) land on bit-identical times.
func (a Affine) Eval(vals []float64) tick.Time {
	if len(a.Coeffs) == 0 {
		return a.Base
	}
	var s float64
	for _, c := range a.Coeffs {
		s += c.PS * vals[c.Param]
	}
	return a.Base + tick.Time(math.Round(s))
}

// Constant reports whether the form has no parameter dependence.
func (a Affine) Constant() bool { return len(a.Coeffs) == 0 }

// DelayFn is one analytic delay function: min and max bounds, each an
// affine form over the design parameters.
type DelayFn struct {
	Min, Max Affine
}

// Eval evaluates both bounds at a parameter point.
func (f DelayFn) Eval(vals []float64) tick.Range {
	return tick.Range{Min: f.Min.Eval(vals), Max: f.Max.Eval(vals)}
}

// ParamDefaults returns the design's default parameter vector, indexed
// like Design.Params.
func (d *Design) ParamDefaults() []float64 {
	if len(d.Params) == 0 {
		return nil
	}
	vals := make([]float64, len(d.Params))
	for i, p := range d.Params {
		vals[i] = p.Default
	}
	return vals
}

// ParamValues resolves a name → value override map against the declared
// parameters, returning the full parameter vector (defaults where the
// map is silent).  Unknown names and values outside the declared [Lo,
// Hi] box are errors — the corner surface is only meaningful inside the
// box the functions were validated over.
func (d *Design) ParamValues(overrides map[string]float64) ([]float64, error) {
	vals := d.ParamDefaults()
	if len(overrides) == 0 {
		return vals, nil
	}
	index := make(map[string]int, len(d.Params))
	for i, p := range d.Params {
		index[p.Name] = i
	}
	// Deterministic error selection: report the lexically first bad name.
	names := make([]string, 0, len(overrides))
	for name := range overrides {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		i, ok := index[name]
		if !ok {
			return nil, fmt.Errorf("netlist: design %q declares no parameter %q", d.Name, name)
		}
		v := overrides[name]
		p := d.Params[i]
		if math.IsNaN(v) || v < p.Lo || v > p.Hi {
			return nil, fmt.Errorf("netlist: parameter %s = %v outside its declared range [%v, %v]", name, v, p.Lo, p.Hi)
		}
		vals[i] = v
	}
	return vals, nil
}

// PinParams returns a design with every analytic delay function
// evaluated at the given parameter vector: a plain constant-delay design
// the engine (and the differential logicsim layer) can run without any
// knowledge of parameters.  The clone shares nets, cases and the name
// index (once built) with the original — only the primitive table is copied, since
// only Prim.Delay values change — and carries over the levelization
// cache (structure-derived) but NOT the compiled-engine cache, whose
// seed image and memo tables were built under the original delays.
//
// Pinning at the default vector is the identity on delays: elaboration
// already stores each function's default-point evaluation in Prim.Delay.
func (d *Design) PinParams(vals []float64) *Design {
	nd := &Design{
		Name:          d.Name,
		Period:        d.Period,
		ClockUnit:     d.ClockUnit,
		DefaultWire:   d.DefaultWire,
		PrecisionSkew: d.PrecisionSkew,
		ClockSkew:     d.ClockSkew,
		WiredOr:       d.WiredOr,
		Params:        d.Params,
		DelayFns:      d.DelayFns,
		Nets:          d.Nets,
		Prims:         append([]Prim(nil), d.Prims...),
		Cases:         d.Cases,
	}
	nd.names.Store(d.names.Load())
	for i := range nd.Prims {
		if fn := nd.Prims[i].Fn; fn > 0 {
			nd.Prims[i].Delay = d.DelayFns[fn-1].Eval(vals)
		}
	}
	if lv := d.level.Load(); lv != nil {
		nd.level.Store(lv)
	}
	return nd
}

// checkDelayFns validates the analytic tables: every coefficient names a
// declared parameter, every parameter box is a valid closed interval
// containing its default, and every function bound to a primitive yields
// a valid min ≤ max range at every vertex of the parameter box (affine
// bounds are extremal at vertices, so vertex validity implies validity
// over the whole box).  Functions over more than maxCheckParams distinct
// parameters are validated at the default point only.
func (d *Design) checkDelayFns() error {
	for _, p := range d.Params {
		if p.Name == "" {
			return fmt.Errorf("parameter with empty name")
		}
		if math.IsNaN(p.Lo) || math.IsNaN(p.Hi) || p.Lo > p.Hi {
			return fmt.Errorf("parameter %s has invalid range [%v, %v]", p.Name, p.Lo, p.Hi)
		}
		if p.Default < p.Lo || p.Default > p.Hi {
			return fmt.Errorf("parameter %s default %v outside its range [%v, %v]", p.Name, p.Default, p.Lo, p.Hi)
		}
	}
	for fi := range d.DelayFns {
		fn := &d.DelayFns[fi]
		for _, a := range [2]Affine{fn.Min, fn.Max} {
			for _, c := range a.Coeffs {
				if c.Param < 0 || int(c.Param) >= len(d.Params) {
					return fmt.Errorf("delay function %d references parameter %d out of range", fi, c.Param)
				}
				if math.IsNaN(c.PS) || math.IsInf(c.PS, 0) {
					return fmt.Errorf("delay function %d has non-finite coefficient", fi)
				}
			}
		}
		if err := d.checkFnBox(fn); err != nil {
			return fmt.Errorf("delay function %d: %v", fi, err)
		}
	}
	for pi := range d.Prims {
		if fn := d.Prims[pi].Fn; fn < 0 || int(fn) > len(d.DelayFns) {
			return fmt.Errorf("primitive %q references delay function %d out of range", d.Prims[pi].Name, fn)
		}
	}
	return nil
}

// maxCheckParams bounds the 2^k vertex enumeration of box validation.
const maxCheckParams = 12

// checkFnBox proves min ≤ max and min ≥ 0 over the whole parameter box
// by checking every vertex (affine forms are extremal at vertices).
func (d *Design) checkFnBox(fn *DelayFn) error {
	params := map[int32]bool{}
	for _, c := range fn.Min.Coeffs {
		params[c.Param] = true
	}
	for _, c := range fn.Max.Coeffs {
		params[c.Param] = true
	}
	idx := make([]int32, 0, len(params))
	for p := range params {
		idx = append(idx, p)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	vals := d.ParamDefaults()
	if len(idx) > maxCheckParams {
		r := fn.Eval(vals)
		if !r.Valid() {
			return fmt.Errorf("invalid range %v at the default point", r)
		}
		return nil
	}
	for bits := 0; bits < 1<<len(idx); bits++ {
		for k, p := range idx {
			if bits&(1<<k) != 0 {
				vals[p] = d.Params[p].Hi
			} else {
				vals[p] = d.Params[p].Lo
			}
		}
		r := fn.Eval(vals)
		if !r.Valid() {
			return fmt.Errorf("invalid range %v at a box corner", r)
		}
	}
	return nil
}
