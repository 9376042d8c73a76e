package report

import (
	"strings"
	"testing"

	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
	"scaldtv/internal/verify"
)

func ns(f float64) tick.Time { return tick.FromNS(f) }

func smallResult(t *testing.T, keepWaves bool) *verify.Result {
	t.Helper()
	b := netlist.NewBuilder("report-test")
	b.SetPeriod(50 * tick.NS)
	b.SetClockUnit(tick.FromNS(6.25))
	b.SetDefaultWire(tick.R(0, 2))
	b.SetPrecisionSkew(tick.R(-1, 1))
	ck := b.Net("CK .P0-4")
	data := b.Vector("W DATA .S6-12", 8)
	q := b.Vector("Q", 8)
	b.Register("OUT REG", tick.R(1.5, 4.5), q, netlist.Conn{Net: ck}, netlist.Conns(data...))
	b.SetupHold("OUT REG CHK", ns(2.5), ns(1.5), netlist.Conns(data...), netlist.Conn{Net: ck})
	b.Net("NOT YET DESIGNED")
	late := b.Net("LATE .S7.5-8") // stable only 46.875–50: violates set-up at 49
	b.SetupHold("LATE CHK", ns(2.5), ns(1.5), netlist.Conns(late), netlist.Conn{Net: ck})
	d := b.MustBuild()
	res, err := verify.Run(d, verify.Options{KeepWaves: keepWaves})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWaveString(t *testing.T) {
	w := values.Const(50*tick.NS, values.VS).Paint(ns(0.5), ns(5.5), values.VC)
	got := WaveString(w)
	if got != "S 0.0 C 0.5 S 5.5" {
		t.Errorf("WaveString = %q", got)
	}
	// Skew is incorporated for display.
	w2 := values.Const(50*tick.NS, values.V0).Paint(ns(10), ns(20), values.V1).WithSkew(ns(2))
	got2 := WaveString(w2)
	if !strings.Contains(got2, "R 10.0") || !strings.Contains(got2, "F 20.0") {
		t.Errorf("WaveString with skew = %q, want R/F bands", got2)
	}
}

func TestTimingSummary(t *testing.T) {
	res := smallResult(t, true)
	s := TimingSummary(res, 0)
	if !strings.Contains(s, "TIMING SUMMARY") {
		t.Error("missing header")
	}
	// Vector bits with identical timing collapse into one row.
	if !strings.Contains(s, "W DATA<0:7> .S6-12") {
		t.Errorf("vector not grouped:\n%s", s)
	}
	if strings.Contains(s, "W DATA<3>") {
		t.Errorf("individual bits leaked into summary:\n%s", s)
	}
	if !strings.Contains(s, "CK .P0-4") {
		t.Errorf("scalar signal missing:\n%s", s)
	}
	// The register output row shows its change window.
	if !strings.Contains(s, "Q<0:7>") {
		t.Errorf("output vector missing:\n%s", s)
	}
}

func TestTimingSummaryUnavailable(t *testing.T) {
	res := smallResult(t, false)
	if s := TimingSummary(res, 0); !strings.Contains(s, "unavailable") {
		t.Errorf("expected unavailable notice, got %q", s)
	}
	res2 := smallResult(t, true)
	if s := TimingSummary(res2, 99); !strings.Contains(s, "unavailable") {
		t.Errorf("bad case index should be unavailable, got %q", s)
	}
}

func TestErrorListing(t *testing.T) {
	res := smallResult(t, false)
	if len(res.Violations) == 0 {
		t.Fatal("fixture should produce a violation")
	}
	s := ErrorListing(res)
	if !strings.Contains(s, "SETUP TIME") || !strings.Contains(s, "LATE CHK") {
		t.Errorf("listing missing violation details:\n%s", s)
	}
	if !strings.Contains(s, "DATA INPUT") || !strings.Contains(s, "CK INPUT") {
		t.Errorf("listing missing input waveforms:\n%s", s)
	}
	if !strings.Contains(s, "missed by") {
		t.Errorf("listing missing margin:\n%s", s)
	}
}

func TestErrorListingClean(t *testing.T) {
	b := netlist.NewBuilder("clean")
	b.SetPeriod(50 * tick.NS)
	b.Net("A .S0-25")
	res, err := verify.Run(b.MustBuild(), verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := ErrorListing(res); !strings.Contains(s, "no timing errors") {
		t.Errorf("clean listing wrong:\n%s", s)
	}
}

func TestCrossReference(t *testing.T) {
	res := smallResult(t, false)
	s := CrossReference(res)
	if !strings.Contains(s, "NOT YET DESIGNED") {
		t.Errorf("undefined signal missing:\n%s", s)
	}
	b := netlist.NewBuilder("none")
	b.SetPeriod(50 * tick.NS)
	b.Net("A .S0-25")
	res2, _ := verify.Run(b.MustBuild(), verify.Options{})
	if s := CrossReference(res2); !strings.Contains(s, "none") {
		t.Errorf("empty cross reference wrong:\n%s", s)
	}
}

func TestSummary(t *testing.T) {
	res := smallResult(t, false)
	s := Summary(res)
	for _, want := range []string{"events processed", "primitive evals", "violations", "report-test"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestGroupSignalsMixedBits(t *testing.T) {
	b := netlist.NewBuilder("mixed")
	b.SetPeriod(50 * tick.NS)
	b.SetDefaultWire(tick.Range{})
	v := b.Vector("V", 2)
	a := b.Net("A .S0-10")
	c := b.Net("C .S0-20")
	b.Buf("b0", tick.Range{}, []netlist.NetID{v[0]}, netlist.Conns(a))
	b.Buf("b1", tick.Range{}, []netlist.NetID{v[1]}, netlist.Conns(c))
	res, err := verify.Run(b.MustBuild(), verify.Options{KeepWaves: true})
	if err != nil {
		t.Fatal(err)
	}
	s := TimingSummary(res, 0)
	if !strings.Contains(s, "bits differ") {
		t.Errorf("mixed vector should be flagged:\n%s", s)
	}
}

func TestWaveArtLine(t *testing.T) {
	p := 50 * tick.NS
	w := values.Const(p, values.V0).Paint(ns(25), ns(50), values.V1)
	art := WaveArtLine(w, 10)
	if art != "_____~~~~~" && art != "____/~~~~~" {
		t.Errorf("art = %q", art)
	}
	// Skew shows as bands.
	w2 := values.Const(p, values.V0).Paint(ns(10), ns(30), values.V1).WithSkew(ns(5))
	art2 := WaveArtLine(w2, 10)
	if !strings.Contains(art2, "/") || !strings.Contains(art2, "\\") {
		t.Errorf("skewed art missing transition bands: %q", art2)
	}
	if got := WaveArtLine(values.Const(p, values.VU), 8); got != "????????" {
		t.Errorf("unknown art = %q", got)
	}
	if got := len(WaveArtLine(values.Const(p, values.VS), 0)); got != 64 {
		t.Errorf("default width = %d", got)
	}
}

func TestWaveArt(t *testing.T) {
	res := smallResult(t, true)
	art := WaveArt(res, 0, 48)
	if !strings.Contains(art, "WAVEFORMS") || !strings.Contains(art, "W DATA<0:7>") {
		t.Errorf("wave art wrong:\n%s", art)
	}
	if !strings.Contains(art, "~") || !strings.Contains(art, "=") {
		t.Errorf("wave art missing glyphs:\n%s", art)
	}
	if s := WaveArt(smallResult(t, false), 0, 48); !strings.Contains(s, "unavailable") {
		t.Errorf("missing waves should be reported: %q", s)
	}
}

func TestDOT(t *testing.T) {
	res := smallResult(t, false)
	dot := DOT(res.Design)
	for _, want := range []string{"digraph", "OUT REG", "shape=box", "shape=diamond", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Vector edges collapse with a width label.
	if !strings.Contains(dot, "W DATA .S6-12 ×8") {
		t.Errorf("vector edge not collapsed:\n%s", dot)
	}
}

func TestCaseDiff(t *testing.T) {
	b := netlist.NewBuilder("diff")
	b.SetPeriod(100 * tick.NS)
	b.SetClockUnit(tick.NS)
	b.SetDefaultWire(tick.Range{})
	ctrl := b.Net("CTRL .S0-100")
	in0 := b.Net("IN0 .S5-104")
	in1 := b.Net("IN1 .S25-104")
	o := b.Net("O")
	other := b.Net("OTHER")
	b.Mux(netlist.KMux2, "M", tick.R(1, 2), tick.Range{}, []netlist.NetID{o},
		netlist.Conns(ctrl), netlist.Conns(in0), netlist.Conns(in1))
	b.Buf("B", tick.R(1, 2), []netlist.NetID{other}, netlist.Conns(in0))
	b.AddCase("CTRL = 0", netlist.Assign("CTRL", values.V0))
	b.AddCase("CTRL = 1", netlist.Assign("CTRL", values.V1))
	res, err := verify.Run(b.MustBuild(), verify.Options{KeepWaves: true})
	if err != nil {
		t.Fatal(err)
	}
	s := CaseDiff(res, 0, 1)
	if !strings.Contains(s, "O") || !strings.Contains(s, "CTRL") {
		t.Errorf("diff missing affected signals:\n%s", s)
	}
	if strings.Contains(s, "OTHER") {
		t.Errorf("unaffected signal leaked into the diff:\n%s", s)
	}
	if s2 := CaseDiff(res, 0, 0); !strings.Contains(s2, "none") {
		t.Errorf("self-diff should be empty:\n%s", s2)
	}
	if s3 := CaseDiff(res, 0, 9); !strings.Contains(s3, "unavailable") {
		t.Errorf("bad index should be unavailable:\n%s", s3)
	}
}

func TestSlackListing(t *testing.T) {
	b := netlist.NewBuilder("slack")
	b.SetPeriod(50 * tick.NS)
	b.SetClockUnit(tick.FromNS(6.25))
	b.SetDefaultWire(tick.R(0, 2))
	b.SetPrecisionSkew(tick.R(-1, 1))
	ck := b.Net("CK .P0-4")
	tight := b.Net("TIGHT .S7-12") // stable 43.75 → 25: set-up at 49 is 5.25-2 skew = 3.25
	roomy := b.Net("ROOMY .S4-12") // stable 25 → 25: lots of margin
	b.SetupHold("TIGHT CHK", ns(2.5), ns(1.5), netlist.Conns(tight), netlist.Conn{Net: ck})
	b.SetupHold("ROOMY CHK", ns(2.5), ns(1.5), netlist.Conns(roomy), netlist.Conn{Net: ck})
	res, err := verify.Run(b.MustBuild(), verify.Options{Margins: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors() {
		t.Fatalf("fixture should pass: %v", res.Violations)
	}
	if len(res.Margins) == 0 {
		t.Fatal("no margins collected")
	}
	s := SlackListing(res, 10)
	if !strings.Contains(s, "CONSTRAINT MARGINS") || !strings.Contains(s, "TIGHT CHK") {
		t.Errorf("listing wrong:\n%s", s)
	}
	// The tight path sorts before the roomy one.
	if strings.Index(s, "TIGHT CHK") > strings.Index(s, "ROOMY CHK") {
		t.Errorf("criticality order wrong:\n%s", s)
	}
	if !strings.Contains(s, "could shrink") {
		t.Errorf("cycle-time estimate missing:\n%s", s)
	}
	// Without margins: unavailable.
	res2, _ := verify.Run(res.Design, verify.Options{})
	if s := SlackListing(res2, 10); !strings.Contains(s, "unavailable") {
		t.Errorf("missing margins not reported: %q", s)
	}
}

func TestSlackListingViolated(t *testing.T) {
	res := smallResult2Margins(t)
	s := SlackListing(res, 10)
	if !strings.Contains(s, "<< VIOLATED") {
		t.Errorf("violated constraint not marked:\n%s", s)
	}
	if !strings.Contains(s, "must grow") {
		t.Errorf("negative-slack cycle estimate missing:\n%s", s)
	}
}

func smallResult2Margins(t *testing.T) *verify.Result {
	t.Helper()
	b := netlist.NewBuilder("slack-viol")
	b.SetPeriod(50 * tick.NS)
	b.SetClockUnit(tick.FromNS(6.25))
	b.SetDefaultWire(tick.R(0, 2))
	b.SetPrecisionSkew(tick.R(-1, 1))
	ck := b.Net("CK .P0-4")
	late := b.Net("LATE .S7.5-8")
	b.SetupHold("LATE CHK", ns(2.5), ns(1.5), netlist.Conns(late), netlist.Conn{Net: ck})
	res, err := verify.Run(b.MustBuild(), verify.Options{Margins: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}
