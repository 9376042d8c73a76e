package pathsearch

import (
	"errors"
	"math"
	"testing"

	"scaldtv/internal/netlist"
	"scaldtv/internal/serr"
	"scaldtv/internal/tick"
)

// Table tests for the quadrature distribution machinery, focused on the
// edge cases interval analysis hides: zero-width delay ranges (exact
// delays) and single-point distributions, alone and convolved with wide
// ranges.

const step = tick.Time(250) // 0.25 ns grid

func TestRangeDistTable(t *testing.T) {
	tests := []struct {
		name      string
		r         tick.Range
		step      tick.Time // 0 = the 250 ps step
		wantLen   int       // 0 = any length > 1
		wantMean  float64   // grid time
		meanTol   float64
		wantStart tick.Time
		wantP     []float64 // nil = not checked; else to within 1e-3
	}{
		{name: "zero width at zero", r: tick.R(0, 0), wantLen: 1, wantMean: 0, wantStart: 0},
		{name: "zero width nonzero", r: tick.R(10, 10), wantLen: 1, wantMean: 10000, wantStart: 10000},
		{name: "zero width off grid", r: tick.Range{Min: 10100, Max: 10100}, wantLen: 1, wantMean: 10000, wantStart: 10000},
		{name: "sub-step width collapses", r: tick.Range{Min: 10000, Max: 10100}, wantLen: 1, wantMean: 10000, wantStart: 10000},
		// Narrower than a step but straddling the snap boundary at
		// 97.5 ps: two points, although the midpoint 100 ps snaps to 195.
		{name: "sub-step width straddling a snap boundary", r: tick.Range{Min: 90, Max: 110}, step: 195,
			wantLen: 2, wantMean: 195 * 0.7734, meanTol: 0.1, wantStart: 0, wantP: []float64{0.2266, 0.7734}},
		{name: "normal range", r: tick.R(5, 15), wantMean: 10000, meanTol: float64(step)},
		{name: "inverted range normalised", r: tick.Range{Min: 15000, Max: 5000}, wantMean: 10000, meanTol: float64(step)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			stp := tc.step
			if stp == 0 {
				stp = step
			}
			d := RangeDist(tc.r, stp)
			if tc.wantLen > 0 && len(d.P) != tc.wantLen {
				t.Fatalf("len(P) = %d, want %d", len(d.P), tc.wantLen)
			}
			if tc.wantLen == 0 && len(d.P) <= 1 {
				t.Fatalf("len(P) = %d, want a spread distribution", len(d.P))
			}
			if m := d.Mass(); math.Abs(m-1) > 1e-9 {
				t.Errorf("mass = %v, want 1", m)
			}
			if math.Abs(d.Mean()-tc.wantMean) > tc.meanTol+1e-9 {
				t.Errorf("mean = %v, want %v ± %v", d.Mean(), tc.wantMean, tc.meanTol)
			}
			if tc.wantLen > 0 && d.Start != tc.wantStart {
				t.Errorf("start = %v, want %v", d.Start, tc.wantStart)
			}
			for i, p := range tc.wantP {
				if math.Abs(d.P[i]-p) > 1e-3 {
					t.Errorf("P = %v, want %v", d.P, tc.wantP)
					break
				}
			}
			if d.Start%stp != 0 {
				t.Errorf("start %v not on the %v grid", d.Start, stp)
			}
		})
	}
}

func TestConvolveTable(t *testing.T) {
	point := func(ns float64) Dist { return PointDist(tick.FromNS(ns), step) }
	wide := RangeDist(tick.R(0, 12), step)
	tests := []struct {
		name     string
		a, b     Dist
		wantLen  int // 0 = any
		wantMean float64
		meanTol  float64
	}{
		{name: "point+point stays point", a: point(3), b: point(4), wantLen: 1, wantMean: 7000},
		{name: "point shifts wide", a: point(10), b: wide, wantLen: len(wide.P), wantMean: 16000, meanTol: float64(step)},
		{name: "wide shifted by point", a: wide, b: point(10), wantLen: len(wide.P), wantMean: 16000, meanTol: float64(step)},
		{name: "empty identity left", a: Dist{}, b: wide, wantLen: len(wide.P), wantMean: 6000, meanTol: float64(step)},
		{name: "empty identity right", a: wide, b: Dist{}, wantLen: len(wide.P), wantMean: 6000, meanTol: float64(step)},
		{name: "wide+wide adds means", a: wide, b: wide, wantMean: 12000, meanTol: 2 * float64(step)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			d := Convolve(tc.a, tc.b)
			if tc.wantLen > 0 && len(d.P) != tc.wantLen {
				t.Fatalf("len(P) = %d, want %d", len(d.P), tc.wantLen)
			}
			if m := d.Mass(); math.Abs(m-1) > 1e-9 {
				t.Errorf("mass = %v, want 1", m)
			}
			if math.Abs(d.Mean()-tc.wantMean) > tc.meanTol+1e-9 {
				t.Errorf("mean = %v, want %v ± %v", d.Mean(), tc.wantMean, tc.meanTol)
			}
		})
	}
}

func TestCombineMaxMinPoints(t *testing.T) {
	a := PointDist(tick.FromNS(5), step)
	b := PointDist(tick.FromNS(8), step)
	if got := CombineMax(a, b); math.Abs(got.Mean()-8000) > 1e-9 {
		t.Errorf("max of points: mean %v, want 8000", got.Mean())
	}
	if got := CombineMin(a, b); math.Abs(got.Mean()-5000) > 1e-9 {
		t.Errorf("min of points: mean %v, want 5000", got.Mean())
	}
	// Max of a distribution with itself shifts mass late, min shifts early.
	w := RangeDist(tick.R(0, 12), step)
	if CombineMax(w, w).Mean() <= w.Mean() {
		t.Error("max combine must not move the mean earlier")
	}
	if CombineMin(w, w).Mean() >= w.Mean() {
		t.Error("min combine must not move the mean later")
	}
	// Mass is conserved by both combines.
	if m := CombineMax(w, a).Mass(); math.Abs(m-1) > 1e-9 {
		t.Errorf("max combine mass = %v", m)
	}
	if m := CombineMin(w, a).Mass(); math.Abs(m-1) > 1e-9 {
		t.Errorf("min combine mass = %v", m)
	}
}

func TestCDFMonotoneAndBounds(t *testing.T) {
	d := Convolve(RangeDist(tick.R(2, 10), step), RangeDist(tick.R(1, 5), step))
	prev := -1.0
	for x := tick.Time(0); x <= tick.FromNS(20); x += step {
		f := d.CDF(x)
		if f < prev-1e-12 {
			t.Fatalf("CDF not monotone at %v: %v < %v", x, f, prev)
		}
		if f < 0 || f > 1 {
			t.Fatalf("CDF out of bounds at %v: %v", x, f)
		}
		prev = f
	}
	if f := d.CDF(tick.FromNS(20)); math.Abs(f-1) > 1e-9 {
		t.Errorf("CDF beyond support = %v, want 1", f)
	}
	if f := d.CDF(0); f > 1e-9 {
		t.Errorf("CDF before support = %v, want 0", f)
	}
}

// TestAnalyzeDistChain drives the DP over a three-buffer chain, one of
// the buffers an exact (zero-width) delay, and checks the end-pin
// distribution against the worst-case interval analysis.
func TestAnalyzeDistChain(t *testing.T) {
	d := statChain(t, tick.R(5, 15), tick.R(10, 10), tick.R(2, 8))
	sites, loops, err := AnalyzeDist(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 0 {
		t.Fatalf("unexpected loops: %v", loops)
	}
	if len(sites) == 0 {
		t.Fatal("no site distributions")
	}
	wc, err := Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range sites {
		if m := sd.Late.Mass(); math.Abs(m-1) > 1e-6 {
			t.Errorf("%s: late mass %v", sd.To, m)
		}
		// The quadrature support must sit inside the worst-case interval
		// (up to one grid cell of discretisation).
		var wcMin, wcMax tick.Time = -1, -1
		for _, ep := range wc.Endpoints {
			if ep.To == sd.To && ep.From == sd.From {
				wcMin, wcMax = ep.Min, ep.Max
			}
		}
		if wcMax < 0 {
			t.Fatalf("%s: no matching worst-case endpoint", sd.To)
		}
		if sd.WCMin != wcMin || sd.WCMax != wcMax {
			t.Errorf("%s: WC [%v,%v], Analyze says [%v,%v]", sd.To, sd.WCMin, sd.WCMax, wcMin, wcMax)
		}
		stp := sd.Late.Step
		if p := sd.Late.CDF(wcMax + stp); math.Abs(p-1) > 1e-6 {
			t.Errorf("%s: mass beyond worst-case max (CDF(max)=%v)", sd.To, p)
		}
		if p := sd.Early.CDF(wcMin - stp - 1); p > 1e-6 {
			t.Errorf("%s: mass before worst-case min (CDF=%v)", sd.To, p)
		}
	}
}

// TestAnalyzeDistSupportCap: a distribution longer than maxSupport is a
// Limit error, whether one delay range is too wide for the grid or two
// narrow arrivals reconverge too far apart.
func TestAnalyzeDistSupportCap(t *testing.T) {
	// 100 ns period: a 390 ps grid, so 65536 points span about 25.6 µs.
	wide := statChain(t, tick.R(0, 30000))
	b := netlist.NewBuilder("far apart")
	b.SetPeriod(100 * tick.NS)
	b.SetDefaultWire(tick.Range{})
	in, late, z := b.Net("IN .S0-50"), b.Net("LATE"), b.Net("Z")
	b.Buf("SLOW", tick.R(30000, 30000), []netlist.NetID{late}, netlist.Conns(in))
	b.Gate(netlist.KOr, "JOIN", tick.R(1, 1), []netlist.NetID{z}, netlist.Conns(in), netlist.Conns(late))
	b.Register("REG", tick.R(1, 2), []netlist.NetID{b.Net("Q")}, netlist.Conn{Net: b.Net("CK .P40-60")}, netlist.Conns(z))
	for name, d := range map[string]*netlist.Design{"wide range": wide, "far-apart join": b.MustBuild()} {
		sites, _, err := AnalyzeDist(d, 0)
		if !errors.Is(err, serr.Sentinel(serr.Limit)) || sites != nil {
			t.Errorf("%s: AnalyzeDist = %d sites, %v; want a Limit error", name, len(sites), err)
		}
	}
	// Just under the cap still prices.
	if _, _, err := AnalyzeDist(statChain(t, tick.R(0, 25000)), 0); err != nil {
		t.Errorf("25 µs range: %v", err)
	}
}

// TestAnalyzeDistCriticalStart pins which (start, pin) pair prices an end
// pin: the largest WCMax, a tie going to the lower start name even when
// that start comes later in net order, and among one start's pins
// sharing a label, the pin on the lower net.  The distribution is the
// winner's: its mean tells the two candidates apart.
func TestAnalyzeDistCriticalStart(t *testing.T) {
	newBuilder := func(name string) *netlist.Builder {
		b := netlist.NewBuilder(name)
		b.SetPeriod(100 * tick.NS)
		b.SetDefaultWire(tick.Range{})
		return b
	}
	ck := func(b *netlist.Builder) netlist.Conn { return netlist.Conn{Net: b.Net("CK .P40-60")} }

	t.Run("name tie", func(t *testing.T) {
		// ZB and AA tie at 16 ns; AA sorts first but has the higher net.
		b := newBuilder("name tie")
		zb, aa := b.Net("ZB .S0-50"), b.Net("AA .S0-50")
		x, y, z := b.Net("X"), b.Net("Y"), b.Net("Z")
		b.Buf("BZ", tick.R(10, 15), []netlist.NetID{x}, netlist.Conns(zb))
		b.Buf("BA", tick.R(5, 15), []netlist.NetID{y}, netlist.Conns(aa))
		b.Gate(netlist.KOr, "JOIN", tick.R(1, 1), []netlist.NetID{z}, netlist.Conns(x), netlist.Conns(y))
		b.Register("REG", tick.R(1, 2), []netlist.NetID{b.Net("Q")}, ck(b), netlist.Conns(z))
		_, sd := statSite(t, b.MustBuild(), "REG:D")
		if sd.From != "AA .S0-50" || sd.WCMin != ns(6) || sd.WCMax != ns(16) {
			t.Errorf("critical start %q [%v,%v], want AA .S0-50 [6.0,16.0]", sd.From, sd.WCMin, sd.WCMax)
		}
		if m := sd.Late.Mean(); math.Abs(m-float64(ns(11))) > float64(sd.Late.Step) {
			t.Errorf("late mean %.0f ps, want AA's 11 ns within one %v step", m, sd.Late.Step)
		}
	})

	t.Run("bit tie", func(t *testing.T) {
		// IN reaches both bits of CHK:I at 15 ns.  Bit 1's net comes
		// first in net order, bit 0's first in the order the sweep
		// reaches them.
		b := newBuilder("bit tie")
		in := b.Net("IN .S0-50")
		n1, n0 := b.Net("N1"), b.Net("N0")
		b.Buf("B0", tick.R(5, 15), []netlist.NetID{n0}, netlist.Conns(in))
		b.Buf("B1", tick.R(10, 15), []netlist.NetID{n1}, netlist.Conns(in))
		b.SetupHold("CHK", ns(2), ns(1), netlist.Conns(n0, n1), ck(b))
		_, sd := statSite(t, b.MustBuild(), "CHK:I")
		if sd.From != "IN .S0-50" || sd.WCMin != ns(10) || sd.WCMax != ns(15) {
			t.Errorf("site %q [%v,%v], want N1's IN .S0-50 [10.0,15.0]", sd.From, sd.WCMin, sd.WCMax)
		}
		if m := sd.Late.Mean(); math.Abs(m-float64(ns(12.5))) > float64(sd.Late.Step) {
			t.Errorf("late mean %.0f ps, want N1's 12.5 ns within one %v step", m, sd.Late.Step)
		}
	})

	t.Run("wide non-critical start", func(t *testing.T) {
		// WIDE's range needs 76924 points of the 390 ps grid, more than
		// maxSupport.  While SLOW is critical, WIDE is never priced; once
		// WIDE is critical, its distribution is needed: a Limit error.
		wideJoin := func(slow tick.Range) *netlist.Design {
			b := newBuilder("wide non-critical")
			slowIn, wideIn := b.Net("SLOW .S0-50"), b.Net("WIDE .S0-50")
			x, y, z := b.Net("X"), b.Net("Y"), b.Net("Z")
			b.Buf("BS", slow, []netlist.NetID{x}, netlist.Conns(slowIn))
			b.Buf("BW", tick.R(0, 30000), []netlist.NetID{y}, netlist.Conns(wideIn))
			b.Gate(netlist.KOr, "JOIN", tick.R(1, 1), []netlist.NetID{z}, netlist.Conns(x), netlist.Conns(y))
			b.Register("REG", tick.R(1, 2), []netlist.NetID{b.Net("Q")}, ck(b), netlist.Conns(z))
			return b.MustBuild()
		}
		_, sd := statSite(t, wideJoin(tick.R(40000, 40000)), "REG:D")
		if sd.From != "SLOW .S0-50" || sd.WCMax != ns(40001) || len(sd.Late.P) != 1 {
			t.Errorf("site %q WCMax %v with %d late points, want SLOW .S0-50 at 40001.0 as one point", sd.From, sd.WCMax, len(sd.Late.P))
		}
		if _, _, err := AnalyzeDist(wideJoin(tick.R(20000, 20000)), 0); !errors.Is(err, serr.Sentinel(serr.Limit)) {
			t.Errorf("with WIDE critical: err = %v, want a Limit error", err)
		}
	})
}

// statChain builds IN -> buf(r1) -> buf(r2) -> buf(r3) -> REG.D so the
// register input terminates one path with the given delay ranges.
func statChain(t *testing.T, rs ...tick.Range) *netlist.Design {
	t.Helper()
	b := netlist.NewBuilder("DIST CHAIN")
	b.SetPeriod(100 * tick.NS)
	b.SetDefaultWire(tick.Range{})
	prev := b.Net("IN .S0-50")
	for i, r := range rs {
		next := b.Net("N" + string(rune('0'+i)))
		b.Buf("B"+string(rune('0'+i)), r, []netlist.NetID{next}, netlist.Conns(prev))
		prev = next
	}
	q := b.Net("Q")
	b.Register("REG", tick.R(1, 2), []netlist.NetID{q},
		netlist.Conn{Net: b.Net("CK .P40-60")}, netlist.Conns(prev))
	return b.MustBuild()
}
