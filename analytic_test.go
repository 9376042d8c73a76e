package scaldtv

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scaldtv/internal/netlist"
	"scaldtv/internal/pathsearch"
	"scaldtv/internal/tick"
	"scaldtv/internal/verify"
)

// The analytic delay model's headline contract: verify ONCE at the
// anchor point, then answer any parameter point inside the declared box
// from the retained margin surface — bit-identical to re-running the
// engine on the design pinned at that point.  The tests below lock that
// equivalence metamorphically across the determinism matrix, against
// constant delays substituted into the HDL by hand, and against the
// gate-level logic simulator at pinned points.

// The corpus design: data launched at the cycle start through two
// parametric stages, checked against a mid-cycle clock edge, so the
// set-up slack is arrival-determined (linear in the path delay) across
// the whole declared box — the regime in which the margin surface is
// exact.  The anchor point is clean; the slow corner of the box is not.
const analyticSource = `design PARAM
period 50ns
clockunit 6.25ns
defaultwire 0ns 0ns
param load = 1.0 range 0.5 3.5
param temp = 1.0 range 0.8 1.2
and G1 delay=(1.0+0.5*load, 3.0+4.0*load+1.0*temp) ("EN .S0-7", "D0 .S0-7") -> (N0)
buf B2 delay=(0.5+0.25*temp, 2.0+1.5*temp) (N0) -> (D)
setuphold CHK setup=4.0 hold=1.0 (D, "MCK .P4-6")
`

// analyticCorners is the 16-point corner grid of the metamorphic suite
// (and of BenchmarkCornerSweep): the declared box's vertices plus
// interior points, so the sweep crosses the violation boundary.
func analyticCorners() []map[string]float64 {
	var out []map[string]float64
	for _, load := range []float64{0.5, 1.5, 2.5, 3.5} {
		for _, temp := range []float64{0.8, 0.95, 1.1, 1.2} {
			out = append(out, map[string]float64{"load": load, "temp": temp})
		}
	}
	return out
}

// TestAnalyticMarginSurfaceMetamorphic verifies the parametric design
// once per engine configuration and checks, at all 16 corner points,
// that the margin surface's slack is bit-identical to a scratch run of
// the engine pinned at that point — across Workers 1/2/8 on the tape and
// on Reference (tape=false), with the anchor report itself
// byte-identical across every configuration.
func TestAnalyticMarginSurfaceMetamorphic(t *testing.T) {
	corners := analyticCorners()

	// Scratch truth: one engine run per corner, any fixed configuration
	// (scratch runs are themselves configuration-independent, which the
	// matrix below re-proves through the surface equality).
	scratch := make([][]tick.Time, len(corners))
	for ci, c := range corners {
		res, err := VerifySource(analyticSource, Options{Delays: AnalyticDelays{Params: c}})
		if err != nil {
			t.Fatal(err)
		}
		if res.MarginSurface == nil || len(res.MarginSurface.Sites) == 0 {
			t.Fatal("scratch run has no margin surface sites")
		}
		slacks := make([]tick.Time, len(res.MarginSurface.Sites))
		for si := range res.MarginSurface.Sites {
			slacks[si] = res.MarginSurface.Sites[si].Slack0
		}
		scratch[ci] = slacks
	}

	var anchorJSON []byte
	for _, w := range []int{1, 2, 8} {
		for _, tape := range []bool{true, false} {
			name := fmt.Sprintf("workers=%d/tape=%v", w, tape)
			t.Run(name, func(t *testing.T) {
				d, err := Compile(analyticSource)
				if err != nil {
					t.Fatal(err)
				}
				run := verify.Run
				if !tape {
					run = verify.Reference
				}
				res, err := run(d, Options{Workers: w, Delays: AnalyticDelays{}})
				if err != nil {
					t.Fatal(err)
				}
				ms := res.MarginSurface
				if ms == nil || len(ms.Sites) == 0 {
					t.Fatal("no margin surface")
				}
				out, err := JSONReport(res)
				if err != nil {
					t.Fatal(err)
				}
				if anchorJSON == nil {
					anchorJSON = out
				} else if string(out) != string(anchorJSON) {
					t.Errorf("anchor report bytes differ from the first configuration")
				}

				// Identity at the anchor: At(nil) must reproduce the
				// engine slack of every site exactly.
				at0, err := ms.At(nil)
				if err != nil {
					t.Fatal(err)
				}
				for si, s := range ms.Sites {
					if !s.Exact {
						t.Errorf("site %d (%s %s) not exact on a single-path design", si, s.Kind, s.Prim)
					}
					if at0[si] != s.Slack0 {
						t.Errorf("site %d: At(anchor) = %s, engine slack %s", si, at0[si], s.Slack0)
					}
				}

				for ci, c := range corners {
					got, err := ms.At(c)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(scratch[ci]) {
						t.Fatalf("corner %v: %d surface sites, scratch has %d", c, len(got), len(scratch[ci]))
					}
					for si := range got {
						if got[si] != scratch[ci][si] {
							t.Errorf("corner %v site %d (%s %s): surface slack %s, scratch engine slack %s",
								c, si, ms.Sites[si].Kind, ms.Sites[si].Prim, got[si], scratch[ci][si])
						}
					}
				}
			})
		}
	}
}

// TestAnalyticMatchesConstantHDL substitutes the delay expressions'
// values at a pinned point back into the HDL as constants and checks the
// two verifications agree site for site — the analytic chain (parse →
// affine tables → pinning) introduces no rounding the constant path
// would not.
func TestAnalyticMatchesConstantHDL(t *testing.T) {
	// At load=2, temp=1 every expression lands on an exact value:
	// G1 = (2.0, 12.0), B2 = (0.75, 3.5).
	point := map[string]float64{"load": 2.0, "temp": 1.0}
	constSource := `design PARAM
period 50ns
clockunit 6.25ns
defaultwire 0ns 0ns
and G1 delay=(2.0,12.0) ("EN .S0-7", "D0 .S0-7") -> (N0)
buf B2 delay=(0.75,3.5) (N0) -> (D)
setuphold CHK setup=4.0 hold=1.0 (D, "MCK .P4-6")
`
	ares, err := VerifySource(analyticSource, Options{Delays: AnalyticDelays{Params: point}})
	if err != nil {
		t.Fatal(err)
	}
	cres, err := VerifySource(constSource, Options{Margins: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ErrorListing(ares), ErrorListing(cres); got != want {
		t.Errorf("error listings differ:\n--- analytic ---\n%s\n--- constant ---\n%s", got, want)
	}
	ms := ares.MarginSurface
	if ms == nil {
		t.Fatal("no margin surface")
	}
	if len(ms.Sites) != len(cres.Margins) {
		t.Fatalf("%d surface sites, %d constant-run margins", len(ms.Sites), len(cres.Margins))
	}
	for i, m := range cres.Margins {
		s := ms.Sites[i]
		if s.Kind != m.Kind || s.Prim != m.Prim {
			t.Errorf("site %d: (%s %s) vs constant (%s %s)", i, s.Kind, s.Prim, m.Kind, m.Prim)
		}
		if s.Slack0 != m.Slack() {
			t.Errorf("site %d (%s %s): pinned slack %s, constant-HDL slack %s", i, s.Kind, s.Prim, s.Slack0, m.Slack())
		}
	}
}

// TestAnalyticDifferentialPinned extends the logic-simulator cross-check
// to non-default pinned parameter points: at each box vertex the
// verifier's symbolic waveforms (computed on the design pinned there)
// must conservatively cover every concrete simulation trace.
func TestAnalyticDifferentialPinned(t *testing.T) {
	for _, c := range []map[string]float64{
		{"load": 0.5, "temp": 0.8},
		{"load": 3.5, "temp": 1.2},
		{"load": 2.0, "temp": 1.0},
	} {
		t.Run(fmt.Sprintf("load=%v,temp=%v", c["load"], c["temp"]), func(t *testing.T) {
			res, err := VerifySource(analyticSource, Options{KeepWaves: true, Delays: AnalyticDelays{Params: c}})
			if err != nil {
				t.Fatal(err)
			}
			solid := 0
			for ci := range res.Cases {
				for mode := 0; mode < 3; mode++ {
					solid += runDifferential(t, res.Design, res, ci, mode)
				}
			}
			if solid == 0 {
				t.Error("no definite concrete samples: the differential check was vacuous")
			}
		})
	}
}

// TestAnalyticViolationsAndBindingCorner locks the surface's risk
// answers: the anchor run is clean, the worst box vertex is violated,
// and BindingCorner reports a corner whose slack the surface itself
// reproduces.
func TestAnalyticViolationsAndBindingCorner(t *testing.T) {
	res, err := VerifySource(analyticSource, Options{Delays: AnalyticDelays{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("anchor run must be clean, got %d violations", len(res.Violations))
	}
	ms := res.MarginSurface
	worst := map[string]float64{"load": 3.5, "temp": 1.2}
	vio, err := ms.Violations(worst)
	if err != nil {
		t.Fatal(err)
	}
	if len(vio) == 0 {
		t.Fatal("the worst corner must violate the set-up constraint")
	}
	found := false
	for i := range ms.Sites {
		corner, w := ms.BindingCorner(i)
		at, err := ms.At(corner)
		if err != nil {
			t.Fatal(err)
		}
		if at[i] != w {
			t.Errorf("site %d: BindingCorner slack %s, At(corner) %s", i, w, at[i])
		}
		if w < 0 {
			found = true
		}
	}
	if !found {
		t.Error("no site reports a negative worst slack over the box")
	}
	if l := SurfaceListing(res); !strings.Contains(l, "<< AT RISK") {
		t.Errorf("surface listing does not mark the at-risk site:\n%s", l)
	}
}

// TestAnalyticErrors locks the validation surface: unknown parameters
// and out-of-box values are errors both at verification time and at
// surface query time.
func TestAnalyticErrors(t *testing.T) {
	if _, err := VerifySource(analyticSource, Options{Delays: AnalyticDelays{Params: map[string]float64{"bogus": 1}}}); err == nil {
		t.Error("unknown parameter must fail verification")
	}
	if _, err := VerifySource(analyticSource, Options{Delays: AnalyticDelays{Params: map[string]float64{"load": 9}}}); err == nil {
		t.Error("out-of-range parameter must fail verification")
	}
	res, err := VerifySource(analyticSource, Options{Delays: AnalyticDelays{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.MarginSurface.At(map[string]float64{"bogus": 1}); err == nil {
		t.Error("unknown parameter must fail a surface query")
	}
	if _, err := res.MarginSurface.At(map[string]float64{"temp": 0}); err == nil {
		t.Error("out-of-box parameter must fail a surface query")
	}
	if _, err := NewAnalyticDelays(map[string]float64{"load": math.NaN()}); err == nil {
		t.Error("NaN binding must fail the typed constructor")
	}
}

// TestDelayModelCompatAdapter locks the compatibility contract of the
// typed DelayModel API: the stringly-typed spellings (-delays= values,
// JSON request fields) are thin adapters over the typed models with
// byte-identical reports.
func TestDelayModelCompatAdapter(t *testing.T) {
	src := `design SHALLOW
period 50ns
clockunit 6.25ns
defaultwire 0ns 0ns
buf B1 delay=(5.0,47.0) ("GO .S0-1") -> (D)
setuphold CHK setup=2.0 hold=1.0 (D, "MCK .P0-4")
`
	report := func(m DelayModel) string {
		t.Helper()
		res, err := VerifySource(src, Options{Delays: m})
		if err != nil {
			t.Fatal(err)
		}
		out, err := JSONReport(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	for _, tc := range []struct {
		spelling string
		typed    DelayModel
	}{
		{"", nil},
		{"worstcase", MinMaxDelays{}},
		{"worst-case", DelayWorstCase},
		{"statistical", StatisticalDelays{}},
		{"statistical", DelayStatistical},
		{"analytic", AnalyticDelays{}},
	} {
		parsed, err := ParseDelayModel(tc.spelling)
		if err != nil {
			t.Fatalf("ParseDelayModel(%q): %v", tc.spelling, err)
		}
		if got, want := report(parsed), report(tc.typed); got != want {
			t.Errorf("spelling %q: report bytes differ from the typed model", tc.spelling)
		}
	}
	if _, err := ParseDelayModel("montecarlo"); err == nil {
		t.Error("unknown spelling must fail to parse")
	}
	if !IsWorstCase(nil) || !IsWorstCase(MinMaxDelays{}) || IsWorstCase(StatisticalDelays{}) {
		t.Error("IsWorstCase misclassifies a model")
	}
}

// TestGoldenAnalyticCornerSweep locks the exact text of the margin
// surface listing and the JSON report of the parametric example, plus a
// rendered 16-corner sweep, in testdata/delays/.
func TestGoldenAnalyticCornerSweep(t *testing.T) {
	res, err := VerifySource(analyticSource, Options{Delays: AnalyticDelays{}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := JSONReport(res)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(SurfaceListing(res))
	sb.WriteString("\n")
	ms := res.MarginSurface
	for _, c := range analyticCorners() {
		slacks, err := ms.At(c)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "corner load=%v temp=%v:", c["load"], c["temp"])
		for _, s := range slacks {
			fmt.Fprintf(&sb, " %s", s)
		}
		sb.WriteString("\n")
	}
	sb.WriteString("\n")
	sb.Write(out)
	sb.WriteString("\n")
	got := sb.String()

	path := filepath.Join("testdata", "delays", "corner_sweep.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run go test -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from golden file %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// FuzzAnalyticDelayEval fuzzes the analytic evaluation chain at the
// affine-algebra level: for arbitrary coefficient tables and parameter
// values, Affine.Eval must agree with its one-rounding definition,
// Term.Value must scale it exactly per traversal, and EvalTerms must be
// the true extremum over the term set — the identities the margin
// surface's engine equivalence rests on.
func FuzzAnalyticDelayEval(f *testing.F) {
	f.Add(int64(1000), int64(3000), 0.5, 1.5, 1.0, 2.0, uint8(3))
	f.Add(int64(0), int64(0), 0.0, 0.0, 0.0, 0.0, uint8(1))
	f.Add(int64(-500), int64(70000), -2.25, 1e6, 0.125, 3.5, uint8(7))
	f.Fuzz(func(t *testing.T, bmin, bmax int64, c1, c2 float64, v1, v2 float64, n uint8) {
		clampT := func(x int64) tick.Time {
			const lim = int64(1) << 40
			if x > lim {
				x = lim
			}
			if x < -lim {
				x = -lim
			}
			return tick.Time(x)
		}
		clampF := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Max(-1e9, math.Min(1e9, x))
		}
		c1, c2 = clampF(c1), clampF(c2)
		v1, v2 = clampF(v1), clampF(v2)
		fns := []netlist.DelayFn{{
			Min: netlist.Affine{Base: clampT(bmin), Coeffs: []netlist.Coeff{{Param: 0, PS: c1}}},
			Max: netlist.Affine{Base: clampT(bmax), Coeffs: []netlist.Coeff{{Param: 0, PS: c1}, {Param: 1, PS: c2}}},
		}}
		vals := []float64{v1, v2}

		// One deterministic rounding of the whole parametric sum.
		evalRef := func(a netlist.Affine) tick.Time {
			var sum float64
			for _, c := range a.Coeffs {
				sum += c.PS * vals[c.Param]
			}
			return a.Base + tick.Time(math.Round(sum))
		}
		for _, a := range []netlist.Affine{fns[0].Min, fns[0].Max} {
			got := a.Eval(vals)
			if got != evalRef(a) {
				t.Fatalf("Affine.Eval = %d, want %d", got, evalRef(a))
			}
			if got != a.Eval(vals) {
				t.Fatal("Affine.Eval is not deterministic")
			}
		}

		// A term traversing the primitive n times contributes exactly
		// n rounded evaluations plus its constant part.
		k := uint8(1) + n%8
		term := pathsearch.Term{Const: 7, Counts: []pathsearch.FnCount{{Fn: 1, N: int32(k)}}}
		wantLate := tick.Time(7) + tick.Time(k)*fns[0].Max.Eval(vals)
		if got := term.Value(fns, true, vals); got != wantLate {
			t.Fatalf("Term.Value(late) = %d, want %d", got, wantLate)
		}
		wantEarly := tick.Time(7) + tick.Time(k)*fns[0].Min.Eval(vals)
		if got := term.Value(fns, false, vals); got != wantEarly {
			t.Fatalf("Term.Value(early) = %d, want %d", got, wantEarly)
		}

		// EvalTerms is the extremum over the set, in either direction.
		terms := []pathsearch.Term{
			{Const: 100},
			term,
			{Const: -3, Counts: []pathsearch.FnCount{{Fn: 1, N: 1}}},
		}
		late, ok := pathsearch.EvalTerms(terms, fns, true, vals)
		if !ok {
			t.Fatal("EvalTerms(late) reported no terms")
		}
		early, _ := pathsearch.EvalTerms(terms, fns, false, vals)
		var wantMax, wantMin tick.Time
		for i, tm := range terms {
			lv, ev := tm.Value(fns, true, vals), tm.Value(fns, false, vals)
			if i == 0 || lv > wantMax {
				wantMax = lv
			}
			if i == 0 || ev < wantMin {
				wantMin = ev
			}
		}
		if late != wantMax || early != wantMin {
			t.Fatalf("EvalTerms = (%d, %d), want (%d, %d)", late, early, wantMax, wantMin)
		}
	})
}

// genAnalyticSource builds a wider parametric corpus: chains independent
// two-stage paths sharing the load/temp parameters, each ending in a
// set-up/hold checker, so the corner-sweep benchmark's engine runs do
// real relaxation work.
func genAnalyticSource(chains int) string {
	var sb strings.Builder
	sb.WriteString(`design PARAMWIDE
period 50ns
clockunit 6.25ns
defaultwire 0ns 0ns
param load = 1.0 range 0.5 3.5
param temp = 1.0 range 0.8 1.2
`)
	for i := 0; i < chains; i++ {
		fmt.Fprintf(&sb, "and G%d delay=(1.0+0.5*load, 3.0+4.0*load+1.0*temp) (\"EN .S0-7\", \"D0 .S0-7\") -> (A%d)\n", i, i)
		fmt.Fprintf(&sb, "buf B%d delay=(0.5+0.25*temp, 2.0+1.5*temp) (A%d) -> (Q%d)\n", i, i, i)
		fmt.Fprintf(&sb, "setuphold CK%d setup=4.0 hold=1.0 (Q%d, \"MCK .P4-6\")\n", i, i)
	}
	return sb.String()
}

// BenchmarkCornerSweep compares answering a 16-point corner sweep from
// one analytic-mode verification's margin surface against re-running
// the engine pinned at every corner.  Both modes produce bit-identical
// slacks (TestAnalyticMarginSurfaceMetamorphic); only wall time
// differs.  The CI bench job runs this pair and gates on a ≥10x win for
// the surface mode.
func BenchmarkCornerSweep(b *testing.B) {
	d, err := Compile(genAnalyticSource(64))
	if err != nil {
		b.Fatal(err)
	}
	corners := analyticCorners()
	b.Run("corners=16/mode=surface", func(b *testing.B) {
		var sites int
		for i := 0; i < b.N; i++ {
			res, err := Verify(d, Options{Delays: AnalyticDelays{}})
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range corners {
				slacks, err := res.MarginSurface.At(c)
				if err != nil {
					b.Fatal(err)
				}
				sites = len(slacks)
			}
		}
		b.ReportMetric(float64(sites), "sites")
	})
	b.Run("corners=16/mode=scratch", func(b *testing.B) {
		var sites int
		for i := 0; i < b.N; i++ {
			for _, c := range corners {
				res, err := Verify(d, Options{Delays: AnalyticDelays{Params: c}})
				if err != nil {
					b.Fatal(err)
				}
				sites = len(res.MarginSurface.Sites)
			}
		}
		b.ReportMetric(float64(sites), "sites")
	})
}
