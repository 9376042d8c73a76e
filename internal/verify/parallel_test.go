package verify

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"scaldtv/internal/gen"
	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
)

// buildMultiCase constructs a design with n declared cases over a control
// signal that selects between a short and a long path into a checked
// register, so every case does real relaxation work and the injected slow
// path produces violations whose merge order can be observed.
func buildMultiCase(t *testing.T, n int) *netlist.Design {
	t.Helper()
	b := netlist.NewBuilder(fmt.Sprintf("multicase-%d", n))
	b.SetPeriod(100 * tick.NS)
	b.SetClockUnit(tick.NS)
	b.SetDefaultWire(tick.Range{})
	b.SetPrecisionSkew(tick.Range{})

	in := b.Net("INPUT .S5-104")
	ctrl := b.Net("MODE .S0-100")
	ck := b.Net("MCK .P90-95")
	d1 := b.Net("D1")
	m1 := b.Net("M1")
	d2 := b.Net("D2")
	r := b.Net("R")
	q := b.Net("Q")

	b.Buf("DELAY A", tick.R(16, 16), []netlist.NetID{d1}, netlist.Conns(in))
	b.Mux(netlist.KMux2, "MUX 1", tick.R(10, 10), tick.Range{}, []netlist.NetID{m1},
		netlist.Conns(ctrl), netlist.Conns(in), netlist.Conns(d1))
	b.Buf("DELAY B", tick.R(16, 16), []netlist.NetID{d2}, netlist.Conns(m1))
	b.Mux(netlist.KMux2, "MUX 2", tick.R(10, 10), tick.Range{}, []netlist.NetID{r},
		netlist.Conns(ctrl), netlist.Conns(d2), netlist.Conns(m1))
	b.Register("REG", tick.R(1, 2), []netlist.NetID{q}, netlist.Conn{Net: ck}, netlist.Conns(r))
	// A tight set-up against the 90 ns edge: violated on the long-path
	// cases, so the determinism check covers failing constraints too.
	b.SetupHold("REG CHK", ns(60.0), ns(1.0), netlist.Conns(r), netlist.Conn{Net: ck})
	for i := 0; i < n; i++ {
		v := values.V0
		if i%2 == 1 {
			v = values.V1
		}
		b.AddCase(fmt.Sprintf("MODE=%d #%d", i%2, i), netlist.Assign("MODE", v))
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameReports asserts that two results agree on everything the ordering
// and determinism contract covers: case labels, violations, margins,
// kept waveforms and the undefined listing.
func sameReports(t *testing.T, tag string, a, b *Result) {
	t.Helper()
	if len(a.Cases) != len(b.Cases) {
		t.Fatalf("%s: case counts differ: %d vs %d", tag, len(a.Cases), len(b.Cases))
	}
	for i := range a.Cases {
		if a.Cases[i].Label != b.Cases[i].Label {
			t.Fatalf("%s: case %d label %q vs %q", tag, i, a.Cases[i].Label, b.Cases[i].Label)
		}
	}
	if len(a.Violations) != len(b.Violations) {
		t.Fatalf("%s: violation counts differ: %d vs %d\n%v\n%v",
			tag, len(a.Violations), len(b.Violations), a.Violations, b.Violations)
	}
	for i := range a.Violations {
		if a.Violations[i].String() != b.Violations[i].String() {
			t.Errorf("%s: violation %d differs:\n  %v\n  %v", tag, i, a.Violations[i], b.Violations[i])
		}
	}
	if len(a.Margins) != len(b.Margins) {
		t.Fatalf("%s: margin counts differ: %d vs %d", tag, len(a.Margins), len(b.Margins))
	}
	for i := range a.Margins {
		if a.Margins[i] != b.Margins[i] {
			t.Errorf("%s: margin %d differs: %+v vs %+v", tag, i, a.Margins[i], b.Margins[i])
		}
	}
	if len(a.Undefined) != len(b.Undefined) {
		t.Fatalf("%s: undefined listings differ: %v vs %v", tag, a.Undefined, b.Undefined)
	}
	if len(a.SiteProbs) != len(b.SiteProbs) {
		t.Fatalf("%s: site-probability counts differ: %d vs %d", tag, len(a.SiteProbs), len(b.SiteProbs))
	}
	for i := range a.SiteProbs {
		if a.SiteProbs[i] != b.SiteProbs[i] {
			t.Errorf("%s: site probability %d differs: %+v vs %+v", tag, i, a.SiteProbs[i], b.SiteProbs[i])
		}
	}
	if (a.MarginSurface == nil) != (b.MarginSurface == nil) {
		t.Fatalf("%s: margin surface present %v vs %v", tag, a.MarginSurface != nil, b.MarginSurface != nil)
	}
	if a.MarginSurface != nil && !reflect.DeepEqual(a.MarginSurface.Sites, b.MarginSurface.Sites) {
		t.Errorf("%s: margin surface sites differ:\n  %+v\n  %+v", tag, a.MarginSurface.Sites, b.MarginSurface.Sites)
	}
	for ci := range a.Cases {
		aw, bw := a.Cases[ci].Waves, b.Cases[ci].Waves
		if len(aw) != len(bw) {
			t.Fatalf("%s: case %d wave counts differ", tag, ci)
		}
		for i := range aw {
			if !aw[i].Equal(bw[i]) {
				t.Fatalf("%s: case %d waveform %d differs:\n  %v\n  %v", tag, ci, i, aw[i], bw[i])
			}
		}
	}
}

// TestParallelDeterminism: the same multi-case design verified with 1, 2
// and 8 workers produces identical reports.  Run with -race to exercise
// the concurrent case ranges.
func TestParallelDeterminism(t *testing.T) {
	d := buildMultiCase(t, 8)
	opts := func(w int) Options { return Options{Workers: w, KeepWaves: true, Margins: true} }
	base, err := Run(d, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Violations) == 0 {
		t.Fatal("the multi-case design should produce violations to compare")
	}
	for _, w := range []int{2, 8} {
		res, err := Run(d, opts(w))
		if err != nil {
			t.Fatal(err)
		}
		sameReports(t, fmt.Sprintf("workers=1 vs %d", w), base, res)
	}
	// Each worker runs a contiguous range of cases as one chain, so the
	// work counters follow the range rule: a case that opens its range
	// reports a one-case run of itself, every other case what the
	// one-worker chain reports for it.
	gd, _, err := gen.Generate(gen.Config{Chips: 102, Cases: 4, Inject: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*netlist.Design{"multicase": d, "generated": gd} {
		chain, err := Run(d, opts(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 8} {
			res, err := Run(d, opts(w))
			if err != nil {
				t.Fatal(err)
			}
			for _, cr := range CaseRanges(len(d.Cases), w) {
				for ci := cr[0]; ci < cr[1]; ci++ {
					want := chain.Cases[ci]
					if ci == cr[0] {
						alone, err := Run(d.WithCases(d.Cases[ci:ci+1]), opts(1))
						if err != nil {
							t.Fatal(err)
						}
						want = alone.Cases[0]
					}
					got := res.Cases[ci]
					if got.Events != want.Events || got.PrimEvals != want.PrimEvals {
						t.Errorf("%s workers=%d case %d (range [%d,%d)): %d events, %d prim evals; want %d, %d",
							name, w, ci, cr[0], cr[1], got.Events, got.PrimEvals, want.Events, want.PrimEvals)
					}
				}
			}
		}
	}
}

// TestParallelDeterminismGenerated repeats the determinism check on a
// generated Mark IIA-style design with cases and injected failures — the
// pipeline ring exercises wired fanout, registers, latches and muxes at a
// scale the hand-built circuit does not.
func TestParallelDeterminismGenerated(t *testing.T) {
	d, _, err := gen.Generate(gen.Config{Chips: 102, Cases: 4, Inject: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := func(w int) Options { return Options{Workers: w, KeepWaves: true, Margins: true} }
	base, err := Run(d, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Cases) != 4 {
		t.Fatalf("expected 4 cases, got %d", len(base.Cases))
	}
	if len(base.Violations) == 0 {
		t.Fatal("the injected slow path should produce violations")
	}
	for _, w := range []int{2, 8} {
		res, err := Run(d, opts(w))
		if err != nil {
			t.Fatal(err)
		}
		sameReports(t, fmt.Sprintf("gen workers=1 vs %d", w), base, res)
	}
}

// TestViolationCaseOrdering: merged violations are grouped by case in
// declared case order regardless of worker count.
func TestViolationCaseOrdering(t *testing.T) {
	d := buildMultiCase(t, 6)
	for _, w := range []int{1, 3} {
		res, err := Run(d, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		caseIdx := map[string]int{}
		for i, c := range res.Cases {
			caseIdx[c.Label] = i
		}
		last := -1
		for _, v := range res.Violations {
			ci, ok := caseIdx[v.Case]
			if !ok {
				t.Fatalf("workers=%d: violation names unknown case %q", w, v.Case)
			}
			if ci < last {
				t.Fatalf("workers=%d: violations not grouped in declared case order: %v", w, res.Violations)
			}
			last = ci
		}
	}
}

// TestParallelCaseError: an invalid case mapping is reported as an error
// at every worker count, and the error is the first by case order: each
// range stops at its own first error, and the merge reports the earliest.
func TestParallelCaseError(t *testing.T) {
	b := netlist.NewBuilder("badcase-par")
	b.SetPeriod(50 * tick.NS)
	b.Net("A .S0-50")
	b.AddCase("ok", netlist.Assign("A", values.V0))
	b.AddCase("bad", netlist.Assign("FIRST MISSING", values.V0))
	b.AddCase("ok again", netlist.Assign("A", values.V1))
	b.AddCase("worse", netlist.Assign("SECOND MISSING", values.V0))
	d := b.MustBuild()
	for _, w := range []int{1, 2, 4} {
		_, err := Run(d, Options{Workers: w})
		if err == nil {
			t.Errorf("workers=%d: case naming an unknown signal should fail", w)
		} else if !strings.Contains(err.Error(), "FIRST MISSING") {
			t.Errorf("workers=%d: error %q does not name case 1's signal", w, err)
		}
	}
}

// TestCaseRanges: the split is in order, contiguous and covers [0, n);
// range lengths differ by at most one, longer ranges first.
func TestCaseRanges(t *testing.T) {
	for _, tc := range []struct {
		n, k int
		want [][2]int
	}{
		{n: 5, k: 0, want: [][2]int{{0, 5}}},
		{n: 5, k: -3, want: [][2]int{{0, 5}}},
		{n: 1, k: 1, want: [][2]int{{0, 1}}},
		{n: 1, k: 4, want: [][2]int{{0, 1}}},
		{n: 3, k: 8, want: [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{n: 8, k: 2, want: [][2]int{{0, 4}, {4, 8}}},
		{n: 8, k: 3, want: [][2]int{{0, 3}, {3, 6}, {6, 8}}},
		{n: 7, k: 5, want: [][2]int{{0, 2}, {2, 4}, {4, 5}, {5, 6}, {6, 7}}},
	} {
		if got := CaseRanges(tc.n, tc.k); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("CaseRanges(%d, %d) = %v, want %v", tc.n, tc.k, got, tc.want)
		}
	}
	for n := 1; n <= 20; n++ {
		for k := -1; k <= n+2; k++ {
			ranges := CaseRanges(n, k)
			if want := max(1, min(k, n)); len(ranges) != want {
				t.Fatalf("CaseRanges(%d, %d): %d ranges, want %d", n, k, len(ranges), want)
			}
			lo, prev := 0, n+1
			for _, r := range ranges {
				size := r[1] - r[0]
				if r[0] != lo || size < 1 || size > prev || size < n/len(ranges) || size > n/len(ranges)+1 {
					t.Fatalf("CaseRanges(%d, %d) = %v: not contiguous, ordered and balanced", n, k, ranges)
				}
				lo, prev = r[1], size
			}
			if lo != n {
				t.Fatalf("CaseRanges(%d, %d) = %v does not cover [0, %d)", n, k, ranges, n)
			}
		}
	}
}

// TestCacheBitIdentical: the memoized tape's results — violations,
// margins, kept waveforms — are bit-identical to the memo-free Reference
// for every worker count, and the memo is actually exercised.  Run with
// -race: the concurrent schedules share one cache and interning table.
func TestCacheBitIdentical(t *testing.T) {
	designs := map[string]*netlist.Design{"multicase": buildMultiCase(t, 8)}
	if d, _, err := gen.Generate(gen.Config{Chips: 102, Cases: 4, Inject: 1}); err != nil {
		t.Fatal(err)
	} else {
		designs["generated"] = d
	}
	for name, d := range designs {
		base, err := Reference(d, Options{Workers: 1, KeepWaves: true, Margins: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(base.Violations) == 0 {
			t.Fatalf("%s: want violations in the comparison base", name)
		}
		for _, w := range []int{1, 2, 8} {
			res, err := Run(d, Options{Workers: w, KeepWaves: true, Margins: true})
			if err != nil {
				t.Fatal(err)
			}
			sameReports(t, fmt.Sprintf("%s tape workers=%d vs reference", name, w), base, res)
			if res.Stats.CacheHits+res.Stats.CacheMisses == 0 {
				t.Errorf("%s workers=%d: cache counters empty — memoization not exercised", name, w)
			}
		}
		if base.Stats.CacheHits != 0 || base.Stats.Interned != 0 {
			t.Errorf("%s: Reference run reports cache activity: %+v", name, base.Stats)
		}
	}
}

// TestCaseForcedConeNotStale: a case-forced control net must not serve
// stale memoized outputs downstream.  The MODE=0 and MODE=1 cases steer
// the mux network onto different paths, so the register's data input must
// differ between cases — and each case's waveforms must equal the
// memo-free Reference run's exactly, for every worker count.
func TestCaseForcedConeNotStale(t *testing.T) {
	d := buildMultiCase(t, 2) // case 0 forces MODE=0, case 1 forces MODE=1
	rID, ok := d.NetByName("M1")
	if !ok {
		t.Fatal("net M1 missing")
	}
	base, err := Reference(d, Options{KeepWaves: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.Cases[0].Waves[rID].Equal(base.Cases[1].Waves[rID]) {
		t.Fatalf("the two cases should steer M1 differently; both gave %v", base.Cases[0].Waves[rID])
	}
	for _, w := range []int{1, 2, 8} {
		res, err := Run(d, Options{Workers: w, KeepWaves: true})
		if err != nil {
			t.Fatal(err)
		}
		for ci := range res.Cases {
			if !res.Cases[ci].Waves[rID].Equal(base.Cases[ci].Waves[rID]) {
				t.Errorf("workers=%d case %d: memoized M1 = %v, reference = %v — stale memo served",
					w, ci, res.Cases[ci].Waves[rID], base.Cases[ci].Waves[rID])
			}
		}
	}
}

// TestMaxPassesDefaultFloor locks the documented MaxPasses default — 50
// evaluations per primitive with a floor of 1000 — and the explicit
// override.
func TestMaxPassesDefaultFloor(t *testing.T) {
	mk := func(prims int) *verifier {
		b := netlist.NewBuilder("cap")
		b.SetPeriod(50 * tick.NS)
		b.SetDefaultWire(tick.Range{})
		prev := b.Net("IN .S0-50")
		for i := 0; i < prims; i++ {
			o := b.Net(fmt.Sprintf("N%d", i))
			b.Buf(fmt.Sprintf("B%d", i), tick.Range{}, []netlist.NetID{o}, netlist.Conns(prev))
			prev = o
		}
		return &verifier{d: b.MustBuild(), opts: Options{}}
	}
	if got := mk(3).passCap(); got != 1000 {
		t.Errorf("3-primitive design: passCap = %d, want the 1000 floor", got)
	}
	if got := mk(19).passCap(); got != 1000 {
		t.Errorf("19-primitive design (50·19 = 950): passCap = %d, want the 1000 floor", got)
	}
	if got := mk(21).passCap(); got != 1050 {
		t.Errorf("21-primitive design: passCap = %d, want 50·21 = 1050", got)
	}
	v := mk(3)
	v.opts.MaxPasses = 7
	if got := v.passCap(); got != 7 {
		t.Errorf("explicit MaxPasses: passCap = %d, want 7", got)
	}
}
