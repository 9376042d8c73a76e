// Package scaldtv is a Go implementation of the SCALD Timing Verifier
// (Thomas M. McWilliams, "Verification of Timing Constraints on Large
// Digital Systems", DAC 1980 / Stanford Ph.D. thesis, May 1980).
//
// The verifier performs complete, value-independent timing verification of
// synchronous sequential circuits: it simulates one clock period over a
// seven-value algebra (0, 1, STABLE, CHANGE, RISE, FALL, UNKNOWN), carries
// min/max delay uncertainty as out-of-band skew to preserve pulse widths,
// and checks every set-up, hold, minimum-pulse-width, gated-clock and
// designer-assertion constraint — with designer-specified case analysis
// for value-dependent paths.
//
// Designs are described either programmatically through NewBuilder or in a
// textual SCALD-like hardware description language compiled with Compile:
//
//	res, err := scaldtv.VerifySource(`
//	design EXAMPLE
//	period 50ns
//	clockunit 6.25ns
//	reg R1 delay=(1.5,4.5) ("CK .P0-4", "DATA .S6-12"<0:7>) -> (Q<0:7>)
//	setuphold CHK setup=2.5 hold=1.5 ("DATA .S6-12"<0:7>, "CK .P0-4")
//	`, scaldtv.Options{})
//	if err != nil { ... }
//	fmt.Print(scaldtv.ErrorListing(res))
//
// Signal names carry their timing assertions, exactly as in the paper:
// ".P2-3" and ".C4-6 L" declare (precision) clocks in designer clock
// units, ".S0-6" declares when a signal is stable, "-NAME" uses the
// complement rail, and "&H" attaches evaluation directives to gated-clock
// pins (§2.5, §2.6).
//
// Errors crossing the Compile/Verify boundaries are structured *Error
// values classified by ErrorKind: ParseError (malformed HDL source),
// ElaborateError (macro expansion or netlist validation failed),
// AssertionError (a timing assertion or forced waveform has no
// consistent seed waveform), LimitError (a configured bound was
// exceeded) and CanceledError (a Context variant was canceled
// mid-verification).  Test kinds with errors.Is against the
// ErrParse … ErrCanceled sentinels, or recover position and message
// with errors.As.  The scaldtvd verification service maps these kinds
// onto HTTP statuses.
package scaldtv

import (
	"context"

	"scaldtv/internal/autocorr"
	"scaldtv/internal/expand"
	"scaldtv/internal/explore"
	"scaldtv/internal/hdl"
	"scaldtv/internal/lib"
	"scaldtv/internal/lint"
	"scaldtv/internal/netlist"
	"scaldtv/internal/report"
	"scaldtv/internal/serr"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
	"scaldtv/internal/verify"
)

// Re-exported core types.  The aliases make every method and field of the
// underlying implementation available to API users.
type (
	// Design is a flattened circuit ready for verification.
	Design = netlist.Design
	// Builder constructs designs programmatically.
	Builder = netlist.Builder
	// Conn is one input-pin connection.
	Conn = netlist.Conn
	// NetID identifies a signal bit within a design.
	NetID = netlist.NetID
	// Kind identifies a primitive type.
	Kind = netlist.Kind

	// Options tunes a verification run.
	Options = verify.Options
	// Result is a complete verification outcome.
	Result = verify.Result
	// Violation is one detected timing error.
	Violation = verify.Violation
	// ViolationKind classifies a violation.
	ViolationKind = verify.ViolationKind

	// Time is an instant or duration in integer picoseconds.
	Time = tick.Time
	// DelayRange is a min/max delay pair.
	DelayRange = tick.Range

	// Waveform is a signal's value over one clock period.
	Waveform = values.Waveform
	// Value is one of the seven signal values.
	Value = values.Value

	// ExpandReport carries macro-expansion statistics (Table 3-2).
	ExpandReport = expand.Report

	// Exploration is the case-exploration report attached to a Result
	// when Options.Explore is set.
	Exploration = verify.Exploration
	// ExploredSite is one U/C-poisoned constraint site found by case
	// exploration.
	ExploredSite = verify.ExploredSite
	// ExploreCandidate is the provenance record for one candidate split.
	ExploreCandidate = verify.ExploreCandidate
	// DelayModel selects how delays are interpreted: MinMaxDelays
	// (worst-case intervals), StatisticalDelays (violation
	// probabilities) or AnalyticDelays (parameterized delay functions
	// with a symbolic margin surface).
	DelayModel = verify.DelayModel
	// MinMaxDelays is the worst-case interval delay model (the default).
	MinMaxDelays = verify.MinMaxDelays
	// StatisticalDelays is the quadrature probability delay model.
	StatisticalDelays = verify.StatisticalDelays
	// AnalyticDelays pins parameterized delay functions at one point and
	// retains the symbolic margin surface.
	AnalyticDelays = verify.AnalyticDelays
	// SiteProb is one constraint site's violation probability under the
	// statistical delay model.
	SiteProb = verify.SiteProb
	// MarginSurface is the symbolic per-site margin report of an
	// analytic-mode run: slack at any parameter point in the declared
	// box, answered without re-running the engine.
	MarginSurface = verify.MarginSurface
	// ParamBinding is one design parameter with its box and pinned value.
	ParamBinding = verify.ParamBinding
	// SurfaceSite is one constraint site's symbolic margin function.
	SurfaceSite = verify.SurfaceSite
	// CornerSlack is one site's slack at a queried parameter point.
	CornerSlack = verify.CornerSlack

	// Verifier retains converged state between runs for incremental
	// re-verification (Verify once, then Reverify or Update per edit).
	// The VerifyContext/ReverifyContext/UpdateContext variants add
	// cooperative cancellation with the abort-don't-corrupt contract
	// described on Error.
	Verifier = verify.Verifier
	// Changes names the primitives and nets whose parameters were edited.
	Changes = netlist.Changes

	// Error is the structured error every Compile/Verify boundary
	// returns: a Kind classifying the failing pipeline stage, the source
	// Pos when known, and the formatted message.  Use errors.As to
	// recover it from a wrapped chain, or errors.Is against the
	// ErrParse … ErrCanceled sentinels to test the kind alone.  Canceled
	// errors additionally wrap the context's cause, so
	// errors.Is(err, context.Canceled) keeps working.
	Error = serr.Error
	// ErrorKind classifies an Error by pipeline stage.
	ErrorKind = serr.Kind
	// ErrorPos is a 1-based source position inside an Error.
	ErrorPos = serr.Pos
)

// The error kinds a structured Error carries.
const (
	// ParseError: the HDL source failed lexing or parsing.
	ParseError = serr.Parse
	// ElaborateError: macro expansion or netlist validation rejected a
	// structurally invalid design.
	ElaborateError = serr.Elaborate
	// AssertionError: a timing assertion or forced waveform could not
	// produce a consistent seed.
	AssertionError = serr.Assertion
	// LimitError: a configured bound was exceeded (invalid sweep bounds,
	// request-size or capacity limits).
	LimitError = serr.Limit
	// CanceledError: the run was abandoned because its context was
	// canceled or its deadline expired.
	CanceledError = serr.Canceled
)

// Sentinels for errors.Is kind tests: errors.Is(err, ErrParse) reports
// whether err is (or wraps) a parse-kind Error, and so on.
var (
	ErrParse     = serr.Sentinel(serr.Parse)
	ErrElaborate = serr.Sentinel(serr.Elaborate)
	ErrAssertion = serr.Sentinel(serr.Assertion)
	ErrLimit     = serr.Sentinel(serr.Limit)
	ErrCanceled  = serr.Sentinel(serr.Canceled)
)

// Primitive kinds, re-exported for Builder users.
const (
	KBuf               = netlist.KBuf
	KNot               = netlist.KNot
	KAnd               = netlist.KAnd
	KOr                = netlist.KOr
	KNand              = netlist.KNand
	KNor               = netlist.KNor
	KXor               = netlist.KXor
	KChg               = netlist.KChg
	KMux2              = netlist.KMux2
	KMux4              = netlist.KMux4
	KMux8              = netlist.KMux8
	KReg               = netlist.KReg
	KRegRS             = netlist.KRegRS
	KLatch             = netlist.KLatch
	KLatchRS           = netlist.KLatchRS
	KSetupHold         = netlist.KSetupHold
	KSetupRiseHoldFall = netlist.KSetupRiseHoldFall
	KMinPulse          = netlist.KMinPulse
)

// Violation kinds.
const (
	SetupViolation        = verify.SetupViolation
	HoldViolation         = verify.HoldViolation
	EnableViolation       = verify.EnableViolation
	MinPulseHighViolation = verify.MinPulseHighViolation
	MinPulseLowViolation  = verify.MinPulseLowViolation
	DirectiveViolation    = verify.DirectiveViolation
	AssertionViolation    = verify.AssertionViolation
	UnknownClockViolation = verify.UnknownClockViolation
	ConvergenceViolation  = verify.ConvergenceViolation
)

// The delay models (Options.Delays), as ready-made values: the former
// constant spellings keep working with the typed DelayModel interface.
var (
	DelayWorstCase   = verify.DelayWorstCase
	DelayStatistical = verify.DelayStatistical
)

// ParseDelayModel resolves the -delays flag spelling ("worstcase",
// "statistical" or "analytic") — the compatibility adapter from the
// stringly-typed API.  New code should construct the typed models
// directly: MinMaxDelays{}, StatisticalDelays{Grid: g},
// AnalyticDelays{Params: m}.
func ParseDelayModel(s string) (DelayModel, error) { return verify.ParseDelayModel(s) }

// IsWorstCase reports whether the model (possibly nil) is the plain
// worst-case interval model.
func IsWorstCase(m DelayModel) bool { return verify.IsWorstCase(m) }

// NewMinMaxDelays returns the worst-case interval delay model.
func NewMinMaxDelays() MinMaxDelays { return verify.NewMinMaxDelays() }

// NewStatisticalDelays returns the statistical delay model with the
// given quadrature grid (0 selects the period/256 default); negative
// grids are rejected.
func NewStatisticalDelays(grid Time) (StatisticalDelays, error) {
	return verify.NewStatisticalDelays(grid)
}

// NewAnalyticDelays returns the analytic delay model pinned at the
// given parameter overrides; non-finite values are rejected and the map
// is copied.
func NewAnalyticDelays(params map[string]float64) (AnalyticDelays, error) {
	return verify.NewAnalyticDelays(params)
}

// The seven signal values.
const (
	V0 = values.V0
	V1 = values.V1
	VS = values.VS
	VC = values.VC
	VR = values.VR
	VF = values.VF
	VU = values.VU
)

// Library is the Chapter-3 component library (register file, multiplexer,
// register, OR gate, ALU, CORR delay) in HDL source form; prepend it to a
// design, or use CompileWithLibrary.
const Library = lib.Prelude

// NS converts nanoseconds to a Time.
func NS(ns float64) Time { return tick.FromNS(ns) }

// Delay builds a min/max delay range from nanosecond quantities.
func Delay(minNS, maxNS float64) DelayRange { return tick.R(minNS, maxNS) }

// NewBuilder starts a programmatic design.
func NewBuilder(name string) *Builder { return netlist.NewBuilder(name) }

// Conns wraps nets as plain connections (see also netlist.Invert and
// Builder.Directive for complement rails and evaluation directives).
func Conns(nets ...NetID) []Conn { return netlist.Conns(nets...) }

// Invert returns complement-rail versions of the connections.
func Invert(cs []Conn) []Conn { return netlist.Invert(cs) }

// Compile parses HDL source and expands its macros into a flat design.
func Compile(src string) (*Design, error) {
	d, _, err := CompileWithReport(src)
	return d, err
}

// CompileWithReport is Compile, also returning the macro-expansion
// statistics.
func CompileWithReport(src string) (*Design, *ExpandReport, error) {
	f, err := hdl.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return expand.Expand(f)
}

// CompileWithLibrary compiles source with the Chapter-3 component library
// in scope.  The header (design/period/clockunit/... declarations) must
// come first in src; the library is injected after the first period
// declaration is impossible to locate textually, so it is simply prepended
// to the body — place header declarations in src before any instance.
func CompileWithLibrary(header, body string) (*Design, error) {
	return Compile(header + "\n" + Library + "\n" + body)
}

// VerifyContext runs the Timing Verifier on a design — the primary entry
// point; Verify is the context-free shorthand.  With Options.Explore set
// it instead runs automatic case exploration (internal/explore): declared
// cases are stripped, the control-signal splits that discharge the
// U/C-poisoned constraint sites are searched for, and the result is the
// verification under the discovered minimal case set, with
// Result.Exploration describing the search.
//
// When ctx is canceled (or its deadline expires) the relaxation aborts at
// the next sweep or wavefront level boundary and the call returns an
// Error of kind CanceledError wrapping ctx.Err().  Cancellation is checked
// only at those schedule-neutral points, so a run that completes is
// bit-identical to an uncancelled one for every Workers setting.
func VerifyContext(ctx context.Context, d *Design, opts Options) (*Result, error) {
	if opts.Explore {
		return explore.RunContext(ctx, d, opts)
	}
	return verify.RunContext(ctx, d, opts)
}

// Verify is VerifyContext with context.Background().
func Verify(d *Design, opts Options) (*Result, error) {
	return VerifyContext(context.Background(), d, opts)
}

// NewVerifier creates a stateful verifier whose Reverify and Update
// methods re-verify only the dirty cone after parameter edits, resuming
// the retained fixed point (see DESIGN.md, "Incremental reverification").
func NewVerifier(d *Design, opts Options) *Verifier {
	return verify.NewVerifier(d, opts)
}

// Diff compares two designs and, when they differ only in parameters
// (delays, checker intervals, wire overrides, assertion windows,
// same-shape kind swaps), returns the change set for Verifier.Reverify.
// ok is false when the change is structural and needs a full run.
func Diff(old, new *Design) (Changes, bool) { return netlist.Diff(old, new) }

// VerifySourceContext compiles and verifies HDL source in one step — the
// primary entry point, with the cancellation contract of VerifyContext;
// VerifySource is the context-free shorthand.
func VerifySourceContext(ctx context.Context, src string, opts Options) (*Result, error) {
	d, err := Compile(src)
	if err != nil {
		return nil, err
	}
	return VerifyContext(ctx, d, opts)
}

// VerifySource is VerifySourceContext with context.Background().
func VerifySource(src string, opts Options) (*Result, error) {
	return VerifySourceContext(context.Background(), src, opts)
}

// CorrInsertion records one automatic CORR-delay placement (§4.2.3).
type CorrInsertion = autocorr.Insertion

// AutoCorr applies the automatic correlation compensation of §4.2.3: it
// finds storage elements fed back from their own outputs under skewed
// clocks and splices fictitious CORR delays into exactly the feedback
// branches, suppressing the Fig 4-1 false hold errors the paper otherwise
// asks the designer to patch by hand.  The design is modified in place.
func AutoCorr(d *Design) ([]CorrInsertion, error) { return autocorr.Apply(d) }

// MinimumPeriod finds the shortest clock period at which the design
// verifies cleanly, by bisection between lo and hi at the given
// resolution.  Clocks and stable assertions scale with the period through
// the designer clock units (§2.3, §1.1: the Verifier "supports formation
// of an accurate estimate of the cycle time of a digital system before
// its design is completed"); component and interconnection delays stay
// absolute.  It returns 0 with no error when even hi fails.
func MinimumPeriod(src string, lo, hi, resolution Time) (Time, error) {
	if lo <= 0 || hi < lo || resolution <= 0 {
		return 0, serr.Newf(serr.Limit, "scaldtv: invalid sweep bounds %v..%v step %v", lo, hi, resolution)
	}
	f, err := hdl.Parse(src)
	if err != nil {
		return 0, err
	}
	if f.Period <= 0 {
		return 0, serr.Newf(serr.Elaborate, "scaldtv: the design must declare a period to sweep against")
	}
	basePeriod := f.Period
	baseCU := f.ClockUnit
	if baseCU == 0 {
		baseCU = tick.NS
	}
	cleanAt := func(p Time) (bool, error) {
		f.Period = p
		// Clock units are a fixed fraction of the period (§2.3).
		f.ClockUnit = Time(int64(baseCU) * int64(p) / int64(basePeriod))
		if f.ClockUnit <= 0 {
			return false, nil
		}
		d, _, err := expand.Expand(f)
		if err != nil {
			return false, err
		}
		res, err := verify.Run(d, verify.Options{})
		if err != nil {
			return false, err
		}
		return !res.Errors(), nil
	}
	ok, err := cleanAt(hi)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	good := hi
	lobound := lo
	for good-lobound > resolution {
		mid := lobound + (good-lobound)/2
		ok, err := cleanAt(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			good = mid
		} else {
			lobound = mid
		}
	}
	return good, nil
}

// TimingSummary renders the Fig 3-10 style listing of every signal's value
// over the cycle for one verified case (requires Options.KeepWaves).
func TimingSummary(res *Result, caseIdx int) string {
	return report.TimingSummary(res, caseIdx)
}

// ErrorListing renders the Fig 3-11 style constraint-error listing.
func ErrorListing(res *Result) string { return report.ErrorListing(res) }

// CrossReference renders the listing of signals that are used but neither
// generated nor asserted (§2.5).
func CrossReference(res *Result) string { return report.CrossReference(res) }

// Summary renders a one-paragraph run overview with execution statistics.
func Summary(res *Result) string { return report.Summary(res) }

// WaveArt renders the verified waveforms as an ASCII timing diagram
// (requires Options.KeepWaves).
func WaveArt(res *Result, caseIdx, width int) string {
	return report.WaveArt(res, caseIdx, width)
}

// JSONReport renders the verification result as machine-readable JSON for
// CI integration.
func JSONReport(res *Result) ([]byte, error) { return report.JSON(res) }

// SlackListing renders constraint margins sorted most-critical first,
// with the §1.1 cycle-time estimate (requires Options.Margins).
func SlackListing(res *Result, topN int) string { return report.SlackListing(res, topN) }

// ExploreListing renders the case-exploration report: poisoned sites,
// candidate provenance, and the emitted minimal case set (requires
// Options.Explore).
func ExploreListing(res *Result) string { return report.ExploreListing(res) }

// StatListing renders the statistical-mode violation probabilities per
// constraint site (requires Options.Delays = StatisticalDelays{...}).
func StatListing(res *Result) string { return report.StatListing(res) }

// SurfaceListing renders the analytic-mode margin surface: each
// constraint site's slack at the pinned parameter point and its worst
// slack over the declared parameter box, with the binding corner
// (requires Options.Delays = AnalyticDelays{...}).
func SurfaceListing(res *Result) string { return report.SurfaceListing(res) }

// DOT renders a design as a Graphviz digraph for visualisation.
func DOT(d *Design) string { return report.DOT(d) }

// CaseDiff lists the signals whose waveforms differ between two verified
// cases — the cone the case mapping affected (§2.7).  Requires
// Options.KeepWaves.
func CaseDiff(res *Result, a, b int) string { return report.CaseDiff(res, a, b) }

// LintFinding is one structural design-rule hit.
type LintFinding = lint.Finding

// Lint runs the structural design-rule checks (combinational loops,
// unchecked storage, gated clocks without width checks, unasserted
// clocks, dangling outputs) that complement timing verification.
func Lint(d *Design) []LintFinding { return lint.Check(d) }
