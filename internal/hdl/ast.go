package hdl

import (
	"scaldtv/internal/tick"
)

// File is a parsed HDL source file.
type File struct {
	Design    string
	Period    tick.Time
	ClockUnit tick.Time
	HasWire   bool
	Wire      tick.Range
	HasPSkew  bool
	PSkew     tick.Range
	HasCSkew  bool
	CSkew     tick.Range
	WiredOr   bool
	Macros    []*Macro
	Body      []*Instance // root-level instances
	Signals   []SignalDecl
	Wires     []WireDecl
	Cases     []CaseDecl
	Params    []ParamDecl
}

// ParamDecl declares a named design parameter at file level: a real
// value delay expressions may reference ("param load = 1.0 range 0.5
// 4.0").  Without an explicit range the parameter is fixed at its
// default.
type ParamDecl struct {
	Name     string
	Default  float64
	HasRange bool
	Lo, Hi   float64
	Line     int
}

// DExpr is an affine delay expression over named design parameters, in
// the language's customary nanoseconds: ConstNS + Σ Terms[i].NS ·
// value(Terms[i].Param).  A constant expression has no Terms.  Values
// stay in source units (ns) so formatting round-trips exactly; the
// expander converts to picoseconds once.
type DExpr struct {
	ConstNS float64
	Terms   []DTerm
}

// DTerm is one parameter term: NS nanoseconds per unit of Param.
type DTerm struct {
	Param string
	NS    float64
}

// Constant reports whether the expression has no parameter dependence.
func (e DExpr) Constant() bool { return len(e.Terms) == 0 }

// Macro is a named, parameterized definition expanded at each use
// (§2.4, Fig 3-5).
type Macro struct {
	Name   string
	Params []string   // value parameters (SIZE, ...)
	Ports  []PortDecl // connectable signals (the /P markers)
	Locals []PortDecl // macro-local signals (the /M markers)
	Body   []*Instance
	Line   int
}

// PortDecl declares a macro port or local with an optional vector range.
type PortDecl struct {
	Name     string
	HasRange bool
	Lo, Hi   Expr
}

// SignalDecl pre-declares a (vector) signal at the root level.
type SignalDecl struct {
	Name     string
	HasRange bool
	Lo, Hi   Expr
}

// WireDecl overrides the interconnection delay of a signal (§2.5.3).
type WireDecl struct {
	Name  string
	Delay tick.Range
}

// CaseDecl is one case-analysis cycle: a list of signal = constant
// assignments (§2.7.1).
type CaseDecl struct {
	Label   string
	Assigns []CaseAssign
}

// CaseAssign maps a signal to 0 or 1 for a case.
type CaseAssign struct {
	Signal string
	Value  int
}

// Instance is a primitive or macro instantiation.
type Instance struct {
	Kind  string // primitive keyword ("and", "reg", ...) or "use"
	Macro string // macro name when Kind == "use"
	Label string // optional instance label

	// Properties.
	HasDelay bool
	Delay    tick.Range
	// A delay written as an expression over parameters keeps its
	// symbolic form; HasDelay/Delay stay unset for it.
	HasDelayExpr               bool
	DelayExprMin, DelayExprMax DExpr
	HasSelDelay                bool
	SelDelay                   tick.Range
	HasRF                      bool
	Rise, Fall                 tick.Range // direction-dependent delays (§4.2.2)
	Setup, Hold                tick.Time
	High, Low                  tick.Time
	ParamVals                  []ParamVal // value-parameter bindings for "use", in source order

	Ins   []*SigExpr // positional inputs (primitives)
	Outs  []*SigExpr // positional outputs (primitives)
	Conns []PortConn // named port bindings for "use", in source order

	Line int
}

// ParamVal binds a macro value parameter at a use.
type ParamVal struct {
	Name string
	Val  Expr
}

// PortConn binds a macro port to a signal at a use.
type PortConn struct {
	Port string
	Sig  *SigExpr
}

// Param returns the expression bound to the named value parameter.
func (inst *Instance) Param(name string) (Expr, bool) {
	for _, pv := range inst.ParamVals {
		if pv.Name == name {
			return pv.Val, true
		}
	}
	return nil, false
}

// Conn returns the signal bound to the named port, or nil.
func (inst *Instance) Conn(port string) *SigExpr {
	for _, pc := range inst.Conns {
		if pc.Port == port {
			return pc.Sig
		}
	}
	return nil
}

// SigExpr references a signal, optionally complemented, bit-sliced, and
// carrying an evaluation-directive string.
type SigExpr struct {
	Invert   bool
	Name     string // full signal name, possibly with embedded assertion
	HasRange bool
	Lo, Hi   Expr // bit range <lo:hi>; a single index parses as <i:i>
	Dirs     string
	Line     int
}

// Expr is a constant integer expression over macro value parameters
// (needed for vector bounds like SIZE-1).
type Expr interface {
	Eval(env map[string]int) (int, error)
}

// NumExpr is an integer literal.
type NumExpr int

// VarExpr references a value parameter.
type VarExpr string

// BinExpr applies +, -, * or / to two sub-expressions.
type BinExpr struct {
	Op   byte
	L, R Expr
}
