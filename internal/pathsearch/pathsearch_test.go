package pathsearch

import (
	"strings"
	"testing"

	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
)

func ns(f float64) tick.Time { return tick.FromNS(f) }

// buildFig26 is the case-analysis circuit of Fig 2-6: two multiplexers
// sharing one control such that the 10 ns extra delay is taken at most
// once.  A path search cannot know that, and reports the impossible 40 ns
// path.
func buildFig26(t *testing.T) *netlist.Design {
	t.Helper()
	b := netlist.NewBuilder("fig2-6")
	b.SetPeriod(100 * tick.NS)
	b.SetDefaultWire(tick.Range{})
	in := b.Net("INPUT .S5-104")
	ctrl := b.Net("CONTROL SIGNAL .S0-100")
	d1, m1, d2 := b.Net("D1"), b.Net("M1"), b.Net("D2")
	out := b.Net("OUTPUT")
	q := b.Net("Q")
	b.Buf("DELAY A", tick.R(10, 10), []netlist.NetID{d1}, netlist.Conns(in))
	b.Mux(netlist.KMux2, "MUX 1", tick.R(10, 10), tick.Range{}, []netlist.NetID{m1},
		netlist.Conns(ctrl), netlist.Conns(in), netlist.Conns(d1))
	b.Buf("DELAY B", tick.R(10, 10), []netlist.NetID{d2}, netlist.Conns(m1))
	b.Mux(netlist.KMux2, "MUX 2", tick.R(10, 10), tick.Range{}, []netlist.NetID{out},
		netlist.Conns(ctrl), netlist.Conns(d2), netlist.Conns(m1))
	b.Register("OUT REG", tick.R(1, 2), []netlist.NetID{q}, netlist.Conn{Net: b.Net("CK .P20-30")}, netlist.Conns(out))
	return b.MustBuild()
}

func TestFig26SpuriousPath(t *testing.T) {
	a, err := Analyze(buildFig26(t))
	if err != nil {
		t.Fatal(err)
	}
	var inputPath *Endpoint
	for i := range a.Endpoints {
		e := &a.Endpoints[i]
		if e.From == "INPUT .S5-104" && strings.HasPrefix(e.To, "OUT REG") {
			if inputPath == nil || e.Max > inputPath.Max {
				inputPath = e
			}
		}
	}
	if inputPath == nil {
		t.Fatalf("INPUT → OUT REG path missing: %+v", a.Endpoints)
	}
	// The search reports the never-sensitisable 40 ns path (§4.1); the
	// Timing Verifier's case analysis shows the true 30 ns.
	if inputPath.Max != ns(40) {
		t.Errorf("path-search max = %v, want the spurious 40 ns", inputPath.Max)
	}
	if inputPath.Min != ns(20) {
		t.Errorf("path-search min = %v, want 20 ns", inputPath.Min)
	}
	// With a 35 ns budget the baseline cries wolf.
	if errs := a.Errors(ns(35)); len(errs) == 0 {
		t.Error("path search should report the spurious error")
	}
	if errs := a.Errors(ns(45)); len(errs) != 0 {
		t.Errorf("no errors expected with a 45 ns budget: %v", errs)
	}
}

func TestRegisterBoundaries(t *testing.T) {
	// Two registers with a gate between them: paths break at the storage
	// elements (RAS-style automatic endpoints).
	b := netlist.NewBuilder("regs")
	b.SetPeriod(50 * tick.NS)
	b.SetDefaultWire(tick.R(0, 2))
	ck := b.Net("CK .P0-4")
	d := b.Net("D .S0-4")
	q1, x, q2 := b.Net("Q1"), b.Net("X"), b.Net("Q2")
	b.Register("R1", tick.R(1, 2), []netlist.NetID{q1}, netlist.Conn{Net: ck}, netlist.Conns(d))
	b.Gate(netlist.KOr, "G", tick.R(1.0, 2.9), []netlist.NetID{x}, netlist.Conns(q1), netlist.Conns(q1))
	b.Register("R2", tick.R(1, 2), []netlist.NetID{q2}, netlist.Conn{Net: ck}, netlist.Conns(x))
	a, err := Analyze(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	var found *Endpoint
	for i := range a.Endpoints {
		e := &a.Endpoints[i]
		if e.From == "Q1" && e.To == "R2:D" {
			found = e
		}
	}
	if found == nil {
		t.Fatalf("Q1 → R2:D missing: %+v", a.Endpoints)
	}
	// Wire 0/2 into the gate + gate 1.0/2.9 + wire 0/2 into the register.
	if found.Min != ns(1.0) || found.Max != ns(6.9) {
		t.Errorf("path = %v/%v, want 1.0/6.9", found.Min, found.Max)
	}
	// No path may cross a register: Q1 must not reach R2 through R1's
	// clock side or with accumulated double-register delay.
	for _, e := range a.Endpoints {
		if e.From == "D .S0-4" && e.To == "R2:D" {
			t.Errorf("path crossed a register: %+v", e)
		}
	}
}

func TestCombLoopDetected(t *testing.T) {
	b := netlist.NewBuilder("loop")
	b.SetPeriod(50 * tick.NS)
	b.SetDefaultWire(tick.Range{})
	x, y := b.Net("X"), b.Net("Y")
	a := b.Net("A .S0-25")
	b.Gate(netlist.KOr, "G1", tick.R(1, 1), []netlist.NetID{x}, netlist.Conns(y), netlist.Conns(a))
	b.Gate(netlist.KOr, "G2", tick.R(1, 1), []netlist.NetID{y}, netlist.Conns(x), netlist.Conns(a))
	an, err := Analyze(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if len(an.CombLoops) != 2 {
		t.Errorf("loop nets = %v, want X and Y", an.CombLoops)
	}
}

func TestCheckerEndpoints(t *testing.T) {
	b := netlist.NewBuilder("chk")
	b.SetPeriod(50 * tick.NS)
	b.SetDefaultWire(tick.Range{})
	d := b.Net("D .S0-4")
	x := b.Net("X")
	ck := b.Net("CK .P0-4")
	b.Buf("B", tick.R(3, 5), []netlist.NetID{x}, netlist.Conns(d))
	b.SetupHold("CHK", ns(2), ns(1), netlist.Conns(x), netlist.Conn{Net: ck})
	a, err := Analyze(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range a.Endpoints {
		if e.From == "D .S0-4" && e.To == "CHK:I" && e.Min == ns(3) && e.Max == ns(5) {
			found = true
		}
	}
	if !found {
		t.Errorf("checker endpoint missing: %+v", a.Endpoints)
	}
}

func TestDirectiveZeroing(t *testing.T) {
	// An &H-marked clock path through a gate contributes no delay, as the
	// de-skew semantics of §2.6 dictate.
	b := netlist.NewBuilder("dir")
	b.SetPeriod(50 * tick.NS)
	b.SetDefaultWire(tick.R(0, 2))
	ck := b.Net("CK .P2-3 L")
	en := b.Net("EN .S0-6")
	we := b.Net("WE")
	q := b.Net("Q")
	b.Gate(netlist.KAnd, "WE GATE", tick.R(1.0, 2.9), []netlist.NetID{we},
		b.Directive("H", netlist.Invert(netlist.Conns(ck))), netlist.Conns(en))
	b.Register("R", tick.R(1, 2), []netlist.NetID{q}, netlist.Conn{Net: we}, netlist.Conns(b.Net("D .S0-6")))
	a, err := Analyze(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range a.Endpoints {
		if e.From == "CK .P2-3 L" && e.To == "R:CK" {
			// Gate and gate-input wire zeroed by &H; only the physical
			// interconnection into the register pin remains.
			if e.Min != 0 || e.Max != ns(2) {
				t.Errorf("H-directive path = %v/%v, want 0/2.0", e.Min, e.Max)
			}
			return
		}
	}
	t.Errorf("clock path missing: %+v", a.Endpoints)
}

func TestString(t *testing.T) {
	a, err := Analyze(buildFig26(t))
	if err != nil {
		t.Fatal(err)
	}
	s := a.String()
	if !strings.Contains(s, "WORST-CASE PATHS") || !strings.Contains(s, "OUT REG") {
		t.Errorf("rendering wrong:\n%s", s)
	}
}

// chain builds a 10-gate buffer chain, delay 1.0/3.0 ns per gate, between
// a primary input and a register data pin.
func chain(t *testing.T) *netlist.Design {
	t.Helper()
	b := netlist.NewBuilder("chain")
	b.SetPeriod(100 * tick.NS)
	b.SetDefaultWire(tick.Range{})
	prev := b.Net("IN .S0-50")
	for i := 0; i < 10; i++ {
		o := b.Net("N" + string(rune('0'+i)))
		b.Buf("B"+string(rune('0'+i)), tick.R(1, 3), []netlist.NetID{o}, netlist.Conns(prev))
		prev = o
	}
	q := b.Net("Q")
	b.Register("R", tick.R(1, 2), []netlist.NetID{q}, netlist.Conn{Net: b.Net("CK .P40-60")}, netlist.Conns(prev))
	return b.MustBuild()
}

func TestModuleDelay(t *testing.T) {
	d := chain(t)
	lat, err := ModuleDelay(d, []string{"IN"}, []string{"N9"})
	if err != nil {
		t.Fatal(err)
	}
	if lat.Min != 10*tick.NS || lat.Max != 30*tick.NS {
		t.Errorf("module latency = %v, want 10.0/30.0", lat)
	}
	// Unknown boundary signals.
	if _, err := ModuleDelay(d, []string{"NOPE"}, []string{"N9"}); err == nil {
		t.Error("unknown inputs should fail")
	}
	// Unreachable outputs.
	if _, err := ModuleDelay(d, []string{"N9"}, []string{"IN"}); err == nil {
		t.Error("unreachable outputs should fail")
	}
}

func TestModuleDelayVectorBits(t *testing.T) {
	b := netlist.NewBuilder("vec")
	b.SetPeriod(50 * tick.NS)
	b.SetDefaultWire(tick.Range{})
	in := b.Vector("IN .S0-25", 4)
	out := b.Vector("OUT", 4)
	b.Gate(netlist.KBuf, "B", tick.R(2, 7), out, netlist.Conns(in...))
	lat, err := ModuleDelay(b.MustBuild(), []string{"IN"}, []string{"OUT"})
	if err != nil {
		t.Fatal(err)
	}
	if lat != tick.R(2, 7) {
		t.Errorf("vector module latency = %v, want 2.0/7.0", lat)
	}
}
