package verify

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"scaldtv/internal/tick"
)

// DelayModel selects how component delay ranges are interpreted during
// verification.  The three models are MinMaxDelays (the paper's §2.2
// worst-case interval propagation), StatisticalDelays (a deterministic
// quadrature post-pass turning every constraint-site margin into a
// violation probability, Result.SiteProbs) and AnalyticDelays (delays as
// affine functions of named design parameters, with a symbolic margin
// surface per constraint site, Result.MarginSurface).  A nil model means
// MinMaxDelays.  The scaldtv driver exposes the model as -delays, with
// -param bindings selecting the analytic evaluation point.
//
// The interface is closed: the three models in this package are the only
// implementations, so the engine can switch exhaustively.  Each model
// validates at construction — an Options value holding one is always
// well-formed.
type DelayModel interface {
	// Name returns the model's canonical -delays spelling.
	Name() string
	isDelayModel()
}

// MinMaxDelays is the worst-case interval model: every component delay is
// pinned at its data-sheet min/max corner and propagated as a range
// (§2.2).  The zero value is ready to use; it is also what a nil
// Options.Delays means.
type MinMaxDelays struct{}

// NewMinMaxDelays returns the worst-case interval model.
func NewMinMaxDelays() MinMaxDelays { return MinMaxDelays{} }

// Name returns "worstcase".
func (MinMaxDelays) Name() string { return "worstcase" }

func (MinMaxDelays) isDelayModel() {}

// StatisticalDelays adds the deterministic quadrature post-pass over the
// combinational graph (internal/pathsearch.AnalyzeDist) that reports each
// constraint site's violation *probability* alongside the usual
// worst-case outcome.  No RNG is involved: the quadrature runs on a fixed
// grid, so statistical reports are as byte-deterministic as worst-case
// ones.
type StatisticalDelays struct {
	// Grid is the quadrature step in integer time ticks.  Zero selects
	// the default of period/256 (at least one tick).  Construct through
	// NewStatisticalDelays to reject negative steps up front.
	Grid tick.Time
}

// NewStatisticalDelays returns the statistical model with the given
// quadrature step (0 = default of period/256).
func NewStatisticalDelays(grid tick.Time) (StatisticalDelays, error) {
	if grid < 0 {
		return StatisticalDelays{}, fmt.Errorf("verify: statistical delay grid must be >= 0, got %d", grid)
	}
	return StatisticalDelays{Grid: grid}, nil
}

// Name returns "statistical".
func (StatisticalDelays) Name() string { return "statistical" }

func (StatisticalDelays) isDelayModel() {}

// AnalyticDelays evaluates the design's analytic delay functions — the
// HDL's param declarations and delay expressions — at one parameter
// point, and additionally retains the symbolic per-site margin functions
// so Result.MarginSurface can answer violation queries at *any* point in
// the parameter box without re-running the engine.
type AnalyticDelays struct {
	// Params overrides parameter defaults by name; parameters not named
	// verify at their declared default.  Construct through
	// NewAnalyticDelays to reject non-finite values up front (box-range
	// validation against a concrete design happens in the run, where the
	// declarations are known).
	Params map[string]float64
}

// NewAnalyticDelays returns the analytic model evaluated at the given
// parameter overrides (nil or empty = every parameter at its default).
func NewAnalyticDelays(params map[string]float64) (AnalyticDelays, error) {
	for _, name := range sortedParamNames(params) {
		v := params[name]
		if v != v || v > 1e300 || v < -1e300 {
			return AnalyticDelays{}, fmt.Errorf("verify: analytic parameter %q has non-finite value", name)
		}
	}
	m := AnalyticDelays{}
	if len(params) > 0 {
		m.Params = make(map[string]float64, len(params))
		for k, v := range params {
			m.Params[k] = v
		}
	}
	return m, nil
}

// Name returns "analytic".
func (AnalyticDelays) Name() string { return "analytic" }

func (AnalyticDelays) isDelayModel() {}

// The delay models, as ready-made values for the common cases.  These are
// drop-in spellings for the former string constants: Options{Delays:
// DelayStatistical} still selects statistical mode with the default grid.
var (
	DelayWorstCase   DelayModel = MinMaxDelays{}
	DelayStatistical DelayModel = StatisticalDelays{}
)

// ParseDelayModel resolves the -delays flag spelling.  It is the
// compatibility adapter from the former stringly-typed API: every
// spelling it accepted before maps to the same behaviour, and reports
// stay byte-identical with the typed constructors.
func ParseDelayModel(s string) (DelayModel, error) {
	switch s {
	case "", "worstcase", "worst-case":
		return MinMaxDelays{}, nil
	case "statistical":
		return StatisticalDelays{}, nil
	case "analytic":
		return AnalyticDelays{}, nil
	}
	return nil, fmt.Errorf("verify: unknown delay model %q (want worstcase, statistical or analytic)", s)
}

// ErrParamsNeedAnalytic reports parameter bindings given under a named
// delay model other than the analytic one.
var ErrParamsNeedAnalytic = errors.New("verify: parameter bindings require the analytic delay model")

// ResolveDelayModel resolves a delay-model spelling (ParseDelayModel)
// together with parameter bindings into one model: bindings imply the
// analytic model, and bindings under another named model are
// ErrParamsNeedAnalytic.  The CLI's -delays/-param flags and the
// daemon's delays/params request fields both resolve through it.
func ResolveDelayModel(name string, params map[string]float64) (DelayModel, error) {
	m, err := ParseDelayModel(name)
	if err != nil || len(params) == 0 {
		return m, err
	}
	if _, analytic := m.(AnalyticDelays); !analytic && !IsWorstCase(m) {
		return nil, ErrParamsNeedAnalytic
	}
	return AnalyticDelays{Params: params}, nil
}

// IsWorstCase reports whether the model (possibly nil) is the plain
// worst-case interval model.
func IsWorstCase(m DelayModel) bool {
	switch m.(type) {
	case nil, MinMaxDelays:
		return true
	}
	return false
}

// statistical reports whether the options select the statistical model,
// and with what grid.
func (o Options) statistical() (StatisticalDelays, bool) {
	m, ok := o.Delays.(StatisticalDelays)
	return m, ok
}

// analytic reports whether the options select the analytic model, and
// with what parameter overrides.
func (o Options) analytic() (AnalyticDelays, bool) {
	m, ok := o.Delays.(AnalyticDelays)
	return m, ok
}

// delayModelKey is the model's contribution to the store fingerprint: a
// canonical string covering the model and every result-affecting knob.
// The worst-case model keys as "" and the default-grid statistical model
// as "statistical", preserving the fingerprint bytes of the former
// string-typed representation.
func delayModelKey(m DelayModel) string {
	switch m := m.(type) {
	case StatisticalDelays:
		if m.Grid == 0 {
			return "statistical"
		}
		return fmt.Sprintf("statistical/grid=%d", int64(m.Grid))
	case AnalyticDelays:
		var sb strings.Builder
		sb.WriteString("analytic")
		for i, name := range sortedParamNames(m.Params) {
			if i == 0 {
				sb.WriteString("?")
			} else {
				sb.WriteString("&")
			}
			fmt.Fprintf(&sb, "%s=%x", name, m.Params[name])
		}
		return sb.String()
	}
	return ""
}

// sortedParamNames returns the map's keys in sorted order, the canonical
// iteration order for parameter bindings.
func sortedParamNames(params map[string]float64) []string {
	if len(params) == 0 {
		return nil
	}
	names := make([]string, 0, len(params))
	for k := range params {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
