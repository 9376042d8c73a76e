package pathsearch

import (
	"math"
	"strings"
	"testing"

	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
)

// statSite runs AnalyzeDist and returns the site of one end pin.
func statSite(t *testing.T, d *netlist.Design, label string) (map[string]SiteDist, SiteDist) {
	t.Helper()
	sites, _, err := AnalyzeDist(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	sd, ok := sites[label]
	if !ok {
		t.Fatalf("no distribution at %s: %+v", label, sites)
	}
	return sites, sd
}

func TestStatisticalBeatsWorstCase(t *testing.T) {
	d := chain(t)
	wc, err := Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	var wcMax tick.Time
	for _, e := range wc.Endpoints {
		if e.From == "IN .S0-50" && e.To == "R:D" {
			wcMax = e.Max
		}
	}
	if wcMax != 30*tick.NS {
		t.Fatalf("worst-case max = %v, want 30 ns", wcMax)
	}
	sites, sd := statSite(t, d, "R:D")
	if sd.From != "IN .S0-50" {
		t.Errorf("critical start = %q, want IN .S0-50", sd.From)
	}
	// Mean 10 × 2 ns = 20 ns, up to one cell of the 0.39 ns grid; the
	// Φ(3) quantile (23.4 ns) sits between the mean and the worst case.
	if m := sd.Late.Mean(); math.Abs(m-float64(20*tick.NS)) > float64(sd.Late.Step) {
		t.Errorf("mean = %.0f ps, want 20 ns within one %v grid step", m, sd.Late.Step)
	}
	if got := sd.Arrival(3); got >= wcMax || float64(got) <= sd.Late.Mean() {
		t.Errorf("3σ arrival %v should sit between the mean %.0f ps and the worst case %v", got, sd.Late.Mean(), wcMax)
	}
	// The §1.4.1.1 point: the statistical analysis passes a budget the
	// worst-case analysis fails.
	budget := 25 * tick.NS
	if len(wc.Errors(budget)) == 0 {
		t.Error("worst-case analysis should fail the 25 ns budget")
	}
	if errs := StatErrors(sites, budget, 3); len(errs) != 0 {
		t.Errorf("statistical analysis should pass the 25 ns budget: %+v", errs)
	}
}

func TestStatisticalZeroSpread(t *testing.T) {
	// Fixed delays: a single-point distribution at the grid point nearest
	// the exact delay (5.07 ns on this design's 195 ps grid).
	b := netlist.NewBuilder("fixed")
	b.SetPeriod(50 * tick.NS)
	b.SetDefaultWire(tick.Range{})
	in := b.Net("IN .S0-25")
	x := b.Net("X")
	b.Buf("B", tick.R(5, 5), []netlist.NetID{x}, netlist.Conns(in))
	q := b.Net("Q")
	b.Register("R", tick.R(1, 1), []netlist.NetID{q}, netlist.Conn{Net: b.Net("CK .P20-30")}, netlist.Conns(x))
	_, sd := statSite(t, b.MustBuild(), "R:D")
	want := snap(5*tick.NS, DefaultDistStep(50*tick.NS))
	if want != 5070 {
		t.Fatalf("nearest grid point = %v, want 5.07 ns", want)
	}
	if len(sd.Late.P) != 1 || sd.Late.Start != want || sd.Arrival(3) != want || sd.Late.Mean() != float64(want) {
		t.Errorf("fixed-delay site = %+v, want a single point at %v", sd, want)
	}
	if sd.WCMin != 5*tick.NS || sd.WCMax != 5*tick.NS {
		t.Errorf("worst case = %v/%v, want 5.0/5.0", sd.WCMin, sd.WCMax)
	}
}

func TestStatisticalString(t *testing.T) {
	sites, loops, err := AnalyzeDist(chain(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := StatString(sites, loops, 3)
	for _, want := range []string{"STATISTICAL PATHS", "3σ", "IN .S0-50", "R:D"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering lacks %q:\n%s", want, s)
		}
	}
}
