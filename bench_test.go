// Benchmarks regenerating the paper's tables and figures.  Each benchmark
// corresponds to an artifact of the evaluation chapter; EXPERIMENTS.md
// records paper-vs-measured values.  Run with:
//
//	go test -bench=. -benchmem
package scaldtv

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"scaldtv/internal/expand"
	"scaldtv/internal/experiments"
	"scaldtv/internal/gen"
	"scaldtv/internal/hdl"
	"scaldtv/internal/logicsim"
	"scaldtv/internal/netlist"
	"scaldtv/internal/pathsearch"
	"scaldtv/internal/stats"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
	"scaldtv/internal/verify"
)

// BenchmarkTable31_FullPipeline times the complete read → expand → verify
// → listings pipeline on Mark IIA-style designs of increasing size, up to
// the paper's 6357-chip example.
func BenchmarkTable31_FullPipeline(b *testing.B) {
	for _, chips := range []int{102, 1003, 6357} {
		b.Run(fmt.Sprintf("chips=%d", chips), func(b *testing.B) {
			var last *experiments.ScaleResult
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunScale(chips, 1)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(float64(last.Table31.Events), "events")
			b.ReportMetric(float64(last.Table31.Primitives), "prims")
			b.ReportMetric(float64(last.Table31.VerifyTime.Nanoseconds())/float64(last.Table31.Events), "ns/event")
		})
	}
}

// BenchmarkTable31_VerifyOnly isolates the verification phase (the
// paper's 6.75-minute row) on pre-expanded designs: cache=true is the
// memoized compiled tape (Run), cache=false the unmemoized FIFO of
// Reference.  The CI bench job runs the chips=1003 pair and compares
// ns/event and allocs/op across the two; results are bit-identical
// either way.
func BenchmarkTable31_VerifyOnly(b *testing.B) {
	for _, chips := range []int{1003, 6357, 10009} {
		d, _, err := gen.Generate(gen.Config{Chips: chips})
		if err != nil {
			b.Fatal(err)
		}
		for _, cache := range []bool{true, false} {
			name := fmt.Sprintf("chips=%d/cache=%v", chips, cache)
			run := verify.Run
			if !cache {
				run = verify.Reference
			}
			b.Run(name, func(b *testing.B) {
				var s verify.Stats
				for i := 0; i < b.N; i++ {
					res, err := run(d, verify.Options{})
					if err != nil {
						b.Fatal(err)
					}
					s = res.Stats
				}
				b.ReportMetric(float64(s.Events), "events")
				if s.Events > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Events), "ns/event")
				}
				if cache {
					b.ReportMetric(float64(s.CacheHits), "hits")
				}
			})
		}
	}
}

// BenchmarkTapeVerify compares the compiled evaluation tape (Run)
// against the memo-free Reference engine on pre-expanded designs.  Each
// leg runs once before the timer so the tape's program is compiled and
// its persistent caches are warm — the steady state a design iteration
// loop lives in.  The CI bench job gates the chips=10009 pair on a ≥5x
// single-thread win; results are bit-identical either way.
func BenchmarkTapeVerify(b *testing.B) {
	for _, chips := range []int{1003, 10009} {
		d, _, err := gen.Generate(gen.Config{Chips: chips})
		if err != nil {
			b.Fatal(err)
		}
		for _, engine := range []string{"tape", "reference"} {
			run := verify.Run
			if engine == "reference" {
				run = verify.Reference
			}
			opts := verify.Options{Workers: 1}
			b.Run(fmt.Sprintf("chips=%d/engine=%s", chips, engine), func(b *testing.B) {
				if _, err := run(d, opts); err != nil {
					b.Fatal(err) // warm the program, interner and memos
				}
				b.ResetTimer()
				var s verify.Stats
				for i := 0; i < b.N; i++ {
					res, err := run(d, opts)
					if err != nil {
						b.Fatal(err)
					}
					s = res.Stats
				}
				b.ReportMetric(float64(s.Events), "events")
				b.ReportMetric(float64(s.TapeCompileTime.Nanoseconds()), "compile-ns")
			})
		}
	}
}

// BenchmarkIncrementalReverify compares from-scratch verification of the
// 1003-chip design against dirty-cone reverification after a
// single-instance delay edit.  Each iteration applies a real edit —
// alternating the chosen instance's Delay.Max by ±1 ps — so no pass can
// be served from an unchanged fixed point.  The edited instance is the
// local-fanout one with the largest forward cone: the generated design's
// cone sizes are bimodal (a shared control spine reaches ~60% of the
// instances; everything else fans out to one or two neighbours), and a
// spine edit rightly degenerates towards a full pass, so the benchmark
// edits the worst case among ordinary instances instead.  The CI bench
// job runs this pair and records the speedup in BENCH_PR3.json.
func BenchmarkIncrementalReverify(b *testing.B) {
	for _, chips := range []int{1003, 10009} {
		d, _, err := gen.Generate(gen.Config{Chips: chips})
		if err != nil {
			b.Fatal(err)
		}
		pi := localConePrim(d)
		edit := func(i int) netlist.Changes {
			d.Prims[pi].Delay.Max += tick.Time(1 - 2*(i%2))
			return netlist.Changes{Prims: []netlist.PrimID{pi}}
		}
		b.Run(fmt.Sprintf("chips=%d/mode=full", chips), func(b *testing.B) {
			var s verify.Stats
			for i := 0; i < b.N; i++ {
				edit(i)
				res, err := verify.Run(d, verify.Options{})
				if err != nil {
					b.Fatal(err)
				}
				s = res.Stats
			}
			b.ReportMetric(float64(s.PrimEvals), "prim-evals")
		})
		b.Run(fmt.Sprintf("chips=%d/mode=incremental", chips), func(b *testing.B) {
			V := verify.NewVerifier(d, verify.Options{})
			if _, err := V.Verify(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var s verify.Stats
			for i := 0; i < b.N; i++ {
				res, err := V.Reverify(edit(i))
				if err != nil {
					b.Fatal(err)
				}
				s = res.Stats
			}
			b.ReportMetric(float64(s.PrimEvals), "prim-evals")
			b.ReportMetric(float64(s.DirtyPrims), "dirty-prims")
			b.ReportMetric(float64(s.ReusedWaves), "reused-waves")
		})
	}
}

// localConePrim picks the non-checker instance with the largest forward
// cone among those whose cone stays local (under a tenth of the
// instances), so the reverify benchmark edits the worst ordinary
// instance rather than the shared control spine.
func localConePrim(d *Design) netlist.PrimID {
	best, bestCone := netlist.PrimID(-1), -1
	limit := len(d.Prims) / 10
	for i := range d.Prims {
		if d.Prims[i].Kind.IsChecker() {
			continue
		}
		id := netlist.PrimID(i)
		c := d.ForwardCone(netlist.Changes{Prims: []netlist.PrimID{id}})
		if c.PrimCount <= limit && c.PrimCount > bestCone {
			best, bestCone = id, c.PrimCount
		}
	}
	return best
}

// BenchmarkTable32_MacroExpansion times the macro expander (the paper's
// Pass 1 + Pass 2 rows) and reports the primitive census.
func BenchmarkTable32_MacroExpansion(b *testing.B) {
	src := gen.Source(gen.Config{Chips: 6357})
	f, err := hdl.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rep *expand.Report
	for i := 0; i < b.N; i++ {
		_, r, err := expand.Expand(f)
		if err != nil {
			b.Fatal(err)
		}
		rep = r
	}
	b.ReportMetric(float64(rep.Primitives), "prims")
	b.ReportMetric(rep.AvgWidth(), "avg-width")
	b.ReportMetric(float64(rep.ScalarBits), "scalar-prims")
}

// BenchmarkTable33_StorageModel times the storage accounting over the
// full-scale design's relaxed waveforms.
func BenchmarkTable33_StorageModel(b *testing.B) {
	d, _, err := gen.Generate(gen.Config{Chips: 6357})
	if err != nil {
		b.Fatal(err)
	}
	res, err := verify.Run(d, verify.Options{KeepWaves: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var s stats.Storage
	for i := 0; i < b.N; i++ {
		s = stats.Measure(d, res.Cases[0].Waves)
	}
	b.ReportMetric(float64(s.Total()), "bytes")
	b.ReportMetric(s.AvgValueRecords(), "avg-value-records")
	b.ReportMetric(s.BytesPerSignal(), "bytes/signal")
}

// BenchmarkFig25_RegisterFile verifies the Fig 2-5 register-file example
// (the Fig 3-10/3-11 workload).
func BenchmarkFig25_RegisterFile(b *testing.B) {
	src := `
design "FIG 2-5"
period 50ns
clockunit 6.25ns
defaultwire 0ns 2ns
skew precision -1ns 1ns
` + Library + `
mux2 "ADR MUX" delay=(1.2,3.3) seldelay=(0.3,1.2) ("CLK .P0-4" &Z, "READ ADR .S4-9"<0:3>, "W ADR .S0-6"<0:3>) -> (ADR<0:3>)
wire ADR 0ns 6ns
and "WE GATE" delay=(1.0,2.9) (-"CK .P2-3 L" &H, -"WRITE .S0-6 L") -> (WE)
use "16W RAM 10145A" RAM1 SIZE=32 (I="W DATA .S0-6"<0:31>, A=ADR<0:3>, WE=WE, CS="CS SEL .S0-8", DO=DO)
use "REG 10176" OUTREG SIZE=32 (CK="CLK .P0-4", I=DO, Q=Q<0:31>)
`
	d, err := Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var nv int
	for i := 0; i < b.N; i++ {
		res, err := Verify(d, Options{})
		if err != nil {
			b.Fatal(err)
		}
		nv = len(res.Violations)
	}
	b.ReportMetric(float64(nv), "violations")
}

// BenchmarkFig26_CaseAnalysis measures the incremental cost of an
// additional case (§2.7, §3.3.2): the second case reevaluates only the
// affected cone.
func BenchmarkFig26_CaseAnalysis(b *testing.B) {
	b.Run("chips=510", func(b *testing.B) {
		var r *experiments.CaseIncrement
		for i := 0; i < b.N; i++ {
			var err error
			r, err = experiments.RunCaseIncrement(510)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(r.FirstEvals), "case1-evals")
		b.ReportMetric(float64(r.SecondEvals), "case2-evals")
	})
}

// BenchmarkParallelCases runs an 8-case generated design at 1, 2, 4 and 8
// workers.  Each worker runs a contiguous range of cases as one chain:
// the range's first case relaxes the whole circuit and each later case
// reevaluates only its cone, so prim-evals grow with the number of ranges
// (one full relaxation each) and wall time falls with the CPUs that run
// them.  CI's case-schedule work gate reads prim-evals at workers=2
// against workers=8.
func BenchmarkParallelCases(b *testing.B) {
	d, _, err := gen.Generate(gen.Config{Chips: 510, Cases: 8})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var s verify.Stats
			for i := 0; i < b.N; i++ {
				res, err := verify.Run(d, verify.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				s = res.Stats
			}
			b.ReportMetric(float64(s.PrimEvals), "prim-evals")
			b.ReportMetric(float64(s.Workers), "workers")
		})
	}
}

// BenchmarkClaim_ExponentialSavings compares exhaustive min/max logic
// simulation against the verifier's single symbolic pass on n-input cones
// (§1.4.1, §2.1).  The simulator's cost doubles with each input; the
// verifier's stays linear in the gate count.
func BenchmarkClaim_ExponentialSavings(b *testing.B) {
	for _, n := range []int{6, 10, 14} {
		b.Run(fmt.Sprintf("logicsim/n=%d", n), func(b *testing.B) {
			var cycles int
			for i := 0; i < b.N; i++ {
				pts, err := experiments.RunExponential([]int{n})
				if err != nil {
					b.Fatal(err)
				}
				cycles = pts[0].SimCycles
			}
			b.ReportMetric(float64(cycles), "vectors")
		})
	}
	for _, n := range []int{6, 10, 14} {
		b.Run(fmt.Sprintf("verifier/n=%d", n), func(b *testing.B) {
			d, _, _, _ := buildConeForBench(n)
			b.ResetTimer()
			var events int
			for i := 0; i < b.N; i++ {
				res, err := verify.Run(d, verify.Options{})
				if err != nil {
					b.Fatal(err)
				}
				events = res.Stats.Events
			}
			b.ReportMetric(float64(events), "events")
		})
	}
}

// buildConeForBench mirrors the experiment harness's cone construction.
func buildConeForBench(n int) (*Design, *logicsim.Circuit, []int, int) {
	b := NewBuilder(fmt.Sprintf("cone-%d", n))
	b.SetPeriod(200 * tick.NS)
	b.SetDefaultWire(tick.Range{})
	ins := make([]NetID, n)
	for i := range ins {
		ins[i] = b.Net(fmt.Sprintf("IN%d .S5-204", i))
	}
	prev := ins[0]
	for i := 1; i < n; i++ {
		k := KAnd
		if i%2 == 0 {
			k = KOr
		}
		o := b.Net(fmt.Sprintf("N%d", i))
		b.Gate(k, fmt.Sprintf("G%d", i), tick.R(1, 2), []NetID{o}, Conns(prev), Conns(ins[i]))
		prev = o
	}
	return b.MustBuild(), nil, nil, 0
}

// BenchmarkClaim_PathSearch runs the Fig 2-6 comparison: the path-search
// baseline against the verifier with case analysis.
func BenchmarkClaim_PathSearch(b *testing.B) {
	var r *experiments.PathClaim
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.RunPathSearchClaim()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.PathSearchMax.NS(), "pathsearch-ns")
	b.ReportMetric(r.TVCaseDelay.NS(), "verifier-case-ns")
}

// BenchmarkPathSearch runs each instance of the path algebra over a
// 340-chip generated design: the worst-case path search, the quadrature
// behind the statistical delay model, and the term sets behind the
// analytic one's margin surface.  That design has no analytic delays,
// so analysis=analytic prices every start with the worst-case instance;
// analysis=analytic-params adds a parametric path per stage, where the
// term sets do the work.
func BenchmarkPathSearch(b *testing.B) {
	d, _, err := gen.Generate(gen.Config{Chips: 340, Inject: 1, Cases: 2})
	if err != nil {
		b.Fatal(err)
	}
	pd, err := Compile(parametricTail(340))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("analysis=worstcase", func(b *testing.B) {
		var eps int
		for i := 0; i < b.N; i++ {
			a, err := pathsearch.Analyze(d)
			if err != nil {
				b.Fatal(err)
			}
			eps = len(a.Endpoints)
		}
		b.ReportMetric(float64(eps), "endpoints")
	})
	b.Run("analysis=dist", func(b *testing.B) {
		var sites int
		for i := 0; i < b.N; i++ {
			s, _, err := pathsearch.AnalyzeDist(d, 0)
			if err != nil {
				b.Fatal(err)
			}
			sites = len(s)
		}
		b.ReportMetric(float64(sites), "sites")
	})
	for _, row := range []struct {
		name string
		d    *netlist.Design
	}{{"analysis=analytic", d}, {"analysis=analytic-params", pd}} {
		b.Run(row.name, func(b *testing.B) {
			var sites int
			for i := 0; i < b.N; i++ {
				s, _ := pathsearch.AnalyzeAnalytic(row.d, 0)
				sites = len(s)
			}
			b.ReportMetric(float64(sites), "sites")
		})
	}
}

// parametricTail is the delay-model benchmark's design shape: a
// generated design with an injected slow path and two cases, plus per
// stage a two-gate path whose delays are affine in the parameters load
// and temp, from stable inputs into a set-up/hold checker against a
// mid-cycle precision clock.  The coefficients come from a fixed seed.
func parametricTail(chips int) string {
	rng := rand.New(rand.NewSource(1_000_000))
	src := gen.Source(gen.Config{Chips: chips, Inject: 1, Cases: 2})
	src = strings.Replace(src, "skew clock -5ns 5ns\n",
		"skew clock -5ns 5ns\nparam load = 1.0 range 0.5 3.5\nparam temp = 1.0 range 0.8 1.2\n", 1)
	var sb strings.Builder
	sb.WriteString(src)
	sb.WriteString("\n; ---- parametric paths ----\n")
	for s := 0; s < gen.Stages(chips); s++ {
		fmt.Fprintf(&sb, "and \"S%d PG\" delay=(1.0+%.3f*load, 3.0+%.3f*load+%.3f*temp) (\"PEN .S0-7\", \"S%d PD .S0-7\") -> (\"S%d PA\")\n",
			s, 0.25+0.5*rng.Float64(), 1.5+rng.Float64(), 0.5+rng.Float64(), s, s)
		fmt.Fprintf(&sb, "buf \"S%d PB\" delay=(0.5+%.3f*temp, 2.0+%.3f*temp) (\"S%d PA\") -> (\"S%d PQ\")\n",
			s, 0.1+0.3*rng.Float64(), 0.5+rng.Float64(), s, s)
		fmt.Fprintf(&sb, "setuphold \"S%d PCHK\" setup=4.0 hold=1.0 (\"S%d PQ\", \"PCK .P4-6\")\n", s, s)
	}
	return sb.String()
}

// --- micro-benchmarks of the core value algebra (design-choice ablations
// recorded in DESIGN.md: segment lists + out-of-band skew) ---

func BenchmarkValues_Combine(b *testing.B) {
	p := 50 * tick.NS
	w1 := values.FromSpans(p, values.VS, values.Span{Start: 10 * tick.NS, End: 20 * tick.NS, V: values.VC}).WithSkew(2 * tick.NS)
	w2 := values.FromSpans(p, values.VS, values.Span{Start: 15 * tick.NS, End: 30 * tick.NS, V: values.VC}).WithSkew(1 * tick.NS)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = values.Combine(w1, w2, values.Or)
	}
}

func BenchmarkValues_IncorporateSkew(b *testing.B) {
	p := 50 * tick.NS
	w := values.Const(p, values.V0).Paint(10*tick.NS, 20*tick.NS, values.V1).
		Paint(30*tick.NS, 35*tick.NS, values.V1).WithSkew(3 * tick.NS)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.IncorporateSkew()
	}
}

func BenchmarkValues_Delay(b *testing.B) {
	p := 50 * tick.NS
	w := values.Const(p, values.V0).Paint(10*tick.NS, 20*tick.NS, values.V1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Delay(tick.R(1, 3))
	}
}

func BenchmarkVerify_Fig15Hazard(b *testing.B) {
	src := `
design "FIG 1-5"
period 50ns
clockunit 1ns
defaultwire 0ns 0ns
skew precision 0 0
and "CLOCK GATE" delay=(0,0) ("CLOCK .P20-30", "ENABLE .S25-70") -> ("REG CLOCK")
minpulse "REG CK WIDTH" high=5.0 low=3.0 ("REG CLOCK")
`
	d, err := Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var nv int
	for i := 0; i < b.N; i++ {
		res, err := Verify(d, Options{})
		if err != nil {
			b.Fatal(err)
		}
		nv = len(res.Violations)
	}
	b.ReportMetric(float64(nv), "violations")
}
