package verify

import (
	"fmt"
	"strings"
	"testing"

	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
)

func ns(f float64) tick.Time { return tick.FromNS(f) }

// buildFig25 constructs the register-file circuit of Fig 2-5 / §3.2: a
// 16-word by 32-bit register file, a 32-bit output register, a 2-input
// multiplexer selecting between read and write addresses, and the
// write-enable gating.  Cycle 50 ns, clock unit 6.25 ns, default wire
// 0.0/2.0 ns, precision clock skew ±1 ns.
func buildFig25(t *testing.T) *netlist.Design {
	t.Helper()
	b := netlist.NewBuilder("fig2-5")
	b.SetPeriod(50 * tick.NS)
	b.SetClockUnit(tick.FromNS(6.25))
	b.SetDefaultWire(tick.R(0, 2))
	b.SetPrecisionSkew(tick.R(-1, 1))

	// External signals with designer assertions.
	ck := b.Net("CK .P2-3 L") // write-strobe clock, low-asserted 12.5–18.75
	clk := b.Net("CLK .P0-4") // phase clock: high 0–25
	write := b.Net("WRITE .S0-6 L")
	wdata := b.Vector("W DATA .S0-6", 32)
	wadr := b.Vector("W ADR .S0-6", 4)
	radr := b.Vector("READ ADR .S4-9", 4)

	// Address multiplexer: CLK high selects the write address.  The &Z
	// directive zeroes the select interconnection (the clock is tuned to
	// the multiplexer, §2.6).
	adr := b.Vector("ADR", 4)
	b.Mux(netlist.KMux2, "ADR MUX", tick.R(1.2, 3.3), tick.R(0.3, 1.2), adr,
		b.Directive("Z", netlist.Conns(clk)),
		netlist.Conns(radr...), netlist.Conns(wadr...))
	// The designer specified 0.0/6.0 ns interconnection for the RAM
	// address lines (§3.2).
	b.SetWire(tick.R(0, 6), adr...)

	// Write-enable: the low-asserted clock ANDed (on complement rails)
	// with the low-asserted WRITE control; &H checks the control and
	// refers the clock timing to the gate output.
	we := b.Net("WE")
	b.Gate(netlist.KAnd, "WE GATE", tick.R(1.0, 2.9), []netlist.NetID{we},
		b.Directive("H", netlist.Invert(netlist.Conns(ck))),
		netlist.Invert(netlist.Conns(write)))

	// The 16W RAM 10145A timing model (Fig 3-5): set-up/hold checks on
	// data and address, minimum write-pulse width, and a CHG-modelled
	// read path.
	b.SetupHold("RAM I CHK", ns(4.5), ns(-1.0), netlist.Conns(wdata...),
		netlist.Invert(netlist.Conns(we))[0]) // stability around the falling WE edge
	b.SetupRiseHoldFall("RAM A CHK", ns(3.5), ns(1.0), netlist.Conns(adr...),
		netlist.Conn{Net: we})
	b.MinPulse("RAM WE WIDTH", ns(4.0), 0, netlist.Conn{Net: we})

	// The read-data path: all 32 output bits share one timing behaviour,
	// modelled by a single CHG primitive (the vectored-primitive economy
	// of Table 3-2) broadcast into the 32-bit register.
	do := b.Net("DO")
	b.Gate(netlist.KChg, "RAM READ", tick.R(5.0, 9.0), []netlist.NetID{do},
		netlist.Conns(adr[0]), netlist.Conns(adr[1]), netlist.Conns(adr[2]), netlist.Conns(adr[3]),
		netlist.Conns(we))

	// Output register (Fig 3-7): 1.5/4.5 ns delay, 2.5 ns set-up, 1.5 ns
	// hold against the phase clock.
	q := b.Vector("Q", 32)
	b.Register("OUT REG", tick.R(1.5, 4.5), q, netlist.Conn{Net: clk}, netlist.Conns(do))
	b.SetupHold("OUT REG CHK", ns(2.5), ns(1.5), netlist.Conns(do), netlist.Conn{Net: clk})

	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFigure3_10_SignalValues reproduces the timing-summary values of
// Fig 3-10: the address lines are stable at the beginning of the cycle,
// changing 0.5–5.5 ns, stable until 25.5 ns, changing until 30.5 ns, then
// stable for the rest of the cycle.
func TestFigure3_10_SignalValues(t *testing.T) {
	d := buildFig25(t)
	res, err := Run(d, Options{KeepWaves: true})
	if err != nil {
		t.Fatal(err)
	}
	id, ok := d.NetByName("ADR<0>")
	if !ok {
		t.Fatal("ADR<0> missing")
	}
	w := res.Cases[0].Waves[id].IncorporateSkew()
	for _, c := range []struct {
		at     float64
		stable bool
	}{
		{0.2, true}, {0.6, false}, {5.4, false}, {5.6, true}, {25.4, true},
		{25.6, false}, {30.4, false}, {30.6, true}, {49.0, true},
	} {
		got := w.At(ns(c.at))
		if got.Stable() != c.stable {
			t.Errorf("ADR at %v ns = %v, want stable=%v\nwaveform: %v", c.at, got, c.stable, w)
		}
	}
}

// TestFigure3_11_Errors reproduces the two errors of Fig 3-11: the RAM
// address set-up of 3.5 ns missed by the full 3.5 ns (data stable at
// 11.5 ns, write-enable rising at 11.5 ns), and the output register
// set-up of 2.5 ns missed by 1.0 ns (data stable at 47.5 ns, clock rising
// at 49.0 ns).
func TestFigure3_11_Errors(t *testing.T) {
	d := buildFig25(t)
	res, err := Run(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ramSetup, regSetup *Violation
	for i := range res.Violations {
		v := &res.Violations[i]
		switch {
		case v.Prim == "RAM A CHK" && v.Kind == SetupViolation:
			ramSetup = v
		case v.Prim == "OUT REG CHK" && v.Kind == SetupViolation:
			regSetup = v
		default:
			t.Errorf("unexpected violation: %v (data %v)", v, v.DataWave)
		}
	}
	if ramSetup == nil {
		t.Fatal("RAM address set-up violation not detected")
	}
	if ramSetup.Required != ns(3.5) || ramSetup.Actual != 0 {
		t.Errorf("RAM set-up: required %v actual %v, want 3.5/0.0 (missed by the full 3.5)",
			ramSetup.Required, ramSetup.Actual)
	}
	if ramSetup.At != ns(11.5) {
		t.Errorf("RAM set-up edge at %v, want 11.5 ns", ramSetup.At)
	}
	if regSetup == nil {
		t.Fatal("output register set-up violation not detected")
	}
	if regSetup.Required != ns(2.5) || regSetup.Actual != ns(1.5) {
		t.Errorf("register set-up: required %v actual %v, want 2.5/1.5 (missed by 1.0)",
			regSetup.Required, regSetup.Actual)
	}
	if regSetup.At != ns(49) {
		t.Errorf("register set-up edge at %v, want 49.0 ns", regSetup.At)
	}
	if regSetup.Margin() != ns(-1.0) {
		t.Errorf("register margin = %v, want -1.0 ns", regSetup.Margin())
	}
	// Exactly two errors, as in the paper.
	if len(res.Violations) != 2 {
		t.Errorf("got %d violations, want 2: %v", len(res.Violations), res.Violations)
	}
	// The data waveforms carried in the violations show the paper's
	// "data not stable until" instants.
	if got := regSetup.DataWave.StableBack(ns(49)); got != ns(1.5) {
		t.Errorf("register data stability back from 49.0 = %v, want 1.5 (stable at 47.5)", got)
	}
}

// TestFigure2_5_CleanWhenRelaxed confirms the same circuit passes when the
// two failing paths are given the margin the checkers ask for.
func TestFigure2_5_CleanWhenRelaxed(t *testing.T) {
	b := netlist.NewBuilder("fig2-5-clean")
	b.SetPeriod(50 * tick.NS)
	b.SetClockUnit(tick.FromNS(6.25))
	b.SetDefaultWire(tick.R(0, 2))
	b.SetPrecisionSkew(tick.R(-1, 1))
	clk := b.Net("CLK .P0-4")
	do := b.Vector("DO .S6-12", 8) // stable 37.5→25 (wrapping): covers the 49–53 ns edge window
	q := b.Vector("Q", 8)
	b.Register("OUT REG", tick.R(1.5, 4.5), q, netlist.Conn{Net: clk}, netlist.Conns(do...))
	b.SetupHold("OUT REG CHK", ns(2.5), ns(1.5), netlist.Conns(do...), netlist.Conn{Net: clk})
	d := b.MustBuild()
	res, err := Run(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors() {
		t.Errorf("clean circuit reported violations: %v", res.Violations)
	}
}

// buildFig26 constructs the case-analysis example of Fig 2-6: two
// multiplexers share one control signal wired so that the 10 ns extra
// delay can be taken at most once; without case analysis the verifier
// sees a 40 ns worst-case path, with case analysis 30 ns in both cases.
func buildFig26(withCases bool, t *testing.T) *netlist.Design {
	t.Helper()
	b := netlist.NewBuilder("fig2-6")
	b.SetPeriod(100 * tick.NS)
	b.SetClockUnit(tick.NS)
	b.SetDefaultWire(tick.Range{})

	in := b.Net("INPUT .S5-104") // changing only 4–5 ns
	ctrl := b.Net("CONTROL SIGNAL .S0-100")
	d1 := b.Net("D1")
	m1 := b.Net("M1")
	d2 := b.Net("D2")
	out := b.Net("OUTPUT .S35-104") // the designer expects 30 ns max delay

	// An unrelated pipeline tail, untouched by the case mapping — it lets
	// the incremental-reevaluation test observe that case 2 skips it.
	t1, t2, t3 := b.Net("TAIL 1"), b.Net("TAIL 2"), b.Net("TAIL 3")
	b.Buf("TAIL A", tick.R(1, 2), []netlist.NetID{t1}, netlist.Conns(in))
	b.Buf("TAIL B", tick.R(1, 2), []netlist.NetID{t2}, netlist.Conns(t1))
	b.Buf("TAIL C", tick.R(1, 2), []netlist.NetID{t3}, netlist.Conns(t2))

	b.Buf("DELAY A", tick.R(10, 10), []netlist.NetID{d1}, netlist.Conns(in))
	b.Mux(netlist.KMux2, "MUX 1", tick.R(10, 10), tick.Range{}, []netlist.NetID{m1},
		netlist.Conns(ctrl), netlist.Conns(in), netlist.Conns(d1))
	b.Buf("DELAY B", tick.R(10, 10), []netlist.NetID{d2}, netlist.Conns(m1))
	// The second mux takes the extra delay on the *other* polarity.
	b.Mux(netlist.KMux2, "MUX 2", tick.R(10, 10), tick.Range{}, []netlist.NetID{out},
		netlist.Conns(ctrl), netlist.Conns(d2), netlist.Conns(m1))
	if withCases {
		b.AddCase("CONTROL SIGNAL = 0", netlist.Assign("CONTROL SIGNAL", values.V0))
		b.AddCase("CONTROL SIGNAL = 1", netlist.Assign("CONTROL SIGNAL", values.V1))
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFigure2_6_CaseAnalysis: without case analysis the worst-case path is
// pessimistically 40 ns, violating the 30 ns output assertion; with the
// designer's two cases both simulations see 30 ns and the assertion holds.
func TestFigure2_6_CaseAnalysis(t *testing.T) {
	pess, err := Run(buildFig26(false, t), Options{KeepWaves: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range pess.Violations {
		if v.Kind == AssertionViolation && strings.Contains(v.Data, "OUTPUT") {
			found = true
		}
	}
	if !found {
		t.Errorf("pessimistic analysis should flag the OUTPUT assertion: %v", pess.Violations)
	}
	// The input changes during 4–5 ns; the pessimistic 40 ns path shows
	// the output changing as late as 44–45 ns.
	id, _ := pess.Design.NetByName("OUTPUT .S35-104")
	if w := pess.Cases[0].Waves[id]; w.At(ns(44.5)) != values.VC {
		t.Errorf("pessimistic OUTPUT at 44.5 ns = %v, want C (40 ns path): %v", w.At(ns(44.5)), w)
	}

	cased, err := Run(buildFig26(true, t), Options{KeepWaves: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range cased.Violations {
		if v.Kind == AssertionViolation {
			t.Errorf("case analysis should clear the assertion: %v", v)
		}
	}
	if len(cased.Cases) != 2 {
		t.Fatalf("expected 2 cases, got %d", len(cased.Cases))
	}
	id2, _ := cased.Design.NetByName("OUTPUT .S35-104")
	for ci, cr := range cased.Cases {
		w := cr.Waves[id2]
		// Both cases: the delay is exactly 30 ns, so the output changes
		// only during 34–35 ns (input changes 4–5 ns), never at 44.5 ns.
		if !w.At(ns(34.5)).Changing() {
			t.Errorf("case %d: OUTPUT should be changing at 34.5 ns (30 ns path): %v", ci, w)
		}
		if w.At(ns(44.5)).Changing() {
			t.Errorf("case %d: the 40 ns false path should be gone: %v", ci, w)
		}
	}
}

// TestFigure2_6_IncrementalReevaluation: under the sequential schedule
// (Workers == 1) going from case to case only the affected part of the
// circuit is reevaluated (§2.7, §3.3.2), so the second case processes
// fewer events than the first.  Workers is pinned because the concurrent
// schedule relaxes every case in full from the initial snapshot.
func TestFigure2_6_IncrementalReevaluation(t *testing.T) {
	res, err := Run(buildFig26(true, t), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, second := res.Cases[0], res.Cases[1]
	if second.PrimEvals >= first.PrimEvals {
		t.Errorf("case 2 evaluated %d primitives, case 1 %d: incremental reevaluation not happening",
			second.PrimEvals, first.PrimEvals)
	}
	if second.Events == 0 {
		t.Error("case 2 should still process some events (the control changed)")
	}
}

// buildFig15 constructs the gated-clock hazard of Fig 1-5: CLOCK is high
// 20–30 ns but the inhibiting ENABLE arrives only at 25 ns, so a runt
// pulse of up to 5 ns may reach the register clock.
func buildFig15(t *testing.T, withDirective bool) *netlist.Design {
	t.Helper()
	b := netlist.NewBuilder("fig1-5")
	b.SetPeriod(50 * tick.NS)
	b.SetClockUnit(tick.NS)
	b.SetDefaultWire(tick.Range{})
	b.SetPrecisionSkew(tick.Range{})

	clock := b.Net("CLOCK .P20-30")
	enable := b.Net("ENABLE .S25-70") // meant to be settled before 20 ns, but is late
	regCk := b.Net("REG CLOCK")
	dta := b.Net("DATA .S0-50")
	q := b.Net("Q")

	ckConns := netlist.Conns(clock)
	if withDirective {
		ckConns = b.Directive("A", ckConns)
	}
	b.Gate(netlist.KAnd, "CLOCK GATE", tick.Range{}, []netlist.NetID{regCk},
		ckConns, netlist.Conns(enable))
	b.Register("REG", tick.R(1, 2), []netlist.NetID{q}, netlist.Conn{Net: regCk}, netlist.Conns(dta))
	b.MinPulse("REG CK WIDTH", ns(5.0), ns(3.0), netlist.Conn{Net: regCk})
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFigure1_5_HazardDetected: without the &A directive the possible runt
// pulse violates the minimum pulse width; with &A the verifier instead
// reports the control signal unstable while the clock is asserted.  Either
// way the class of error is caught.
func TestFigure1_5_HazardDetected(t *testing.T) {
	plain, err := Run(buildFig15(t, false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	foundRunt := false
	for _, v := range plain.Violations {
		if v.Kind == MinPulseHighViolation && v.Prim == "REG CK WIDTH" {
			foundRunt = true
			if v.Actual != 0 {
				t.Errorf("runt pulse guaranteed width = %v, want 0 (may be arbitrarily narrow)", v.Actual)
			}
		}
	}
	if !foundRunt {
		t.Errorf("runt pulse not detected: %v", plain.Violations)
	}

	directed, err := Run(buildFig15(t, true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	foundDir := false
	for _, v := range directed.Violations {
		if v.Kind == DirectiveViolation && v.Data == "ENABLE .S25-70" {
			foundDir = true
		}
	}
	if !foundDir {
		t.Errorf("&A stability violation not detected: %v", directed.Violations)
	}
}

// buildFig41 constructs the correlation example of Fig 4-1: a register fed
// back through a multiplexer, clocked through a buffer that inserts 5 ns
// of skew.  The register+mux minimum delay exceeds the hold time, so real
// hardware is fine — but the Verifier, reasoning in absolute times,
// reports a hold violation.  Fig 4-2 suppresses it with a CORR delay at
// least as long as the clock skew.
func buildFig41(t *testing.T, corr bool) *netlist.Design {
	t.Helper()
	b := netlist.NewBuilder("fig4-1")
	b.SetPeriod(50 * tick.NS)
	b.SetClockUnit(tick.NS)
	b.SetDefaultWire(tick.Range{})
	b.SetPrecisionSkew(tick.Range{})

	ck := b.Net("CK .P20-30")
	bufCk := b.Net("BUF CK")
	load := b.Net("LOAD .S0-50")
	newData := b.Net("NEW DATA .S0-50")
	q := b.Net("Q")
	fb := b.Net("FB")
	dIn := b.Net("D")

	b.Buf("CK BUF", tick.R(0, 5), []netlist.NetID{bufCk}, netlist.Conns(ck))
	if corr {
		b.Buf("CORR", tick.R(5, 5), []netlist.NetID{fb}, netlist.Conns(q))
	} else {
		b.Buf("FB WIRE", tick.Range{}, []netlist.NetID{fb}, netlist.Conns(q))
	}
	b.Mux(netlist.KMux2, "HOLD MUX", tick.R(1, 2), tick.Range{}, []netlist.NetID{dIn},
		netlist.Conns(load), netlist.Conns(fb), netlist.Conns(newData))
	b.Register("REG", tick.R(1, 2), []netlist.NetID{q}, netlist.Conn{Net: bufCk}, netlist.Conns(dIn))
	b.SetupHold("REG CHK", ns(2.0), ns(1.5), netlist.Conns(dIn), netlist.Conn{Net: bufCk})
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFigure4_1_CorrelationFalseError(t *testing.T) {
	res, err := Run(buildFig41(t, false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Violations {
		if v.Kind == HoldViolation && v.Prim == "REG CHK" {
			found = true
		}
	}
	if !found {
		t.Errorf("the known correlation false error should be reported: %v", res.Violations)
	}
}

func TestFigure4_2_CorrDelaySuppressesFalseError(t *testing.T) {
	res, err := Run(buildFig41(t, true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		if v.Kind == HoldViolation {
			t.Errorf("CORR delay should suppress the false hold error: %v", v)
		}
	}
}

func TestUndefinedSignalListing(t *testing.T) {
	b := netlist.NewBuilder("xref")
	b.SetPeriod(50 * tick.NS)
	x := b.Net("FLOATING INPUT")
	o := b.Net("O")
	b.Buf("b", tick.Range{}, []netlist.NetID{o}, netlist.Conns(x))
	d := b.MustBuild()
	res, err := Run(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Undefined) != 1 || res.Undefined[0] != "FLOATING INPUT" {
		t.Errorf("cross-reference listing = %v, want [FLOATING INPUT]", res.Undefined)
	}
	// Undefined signals are taken to be always stable: no violations.
	if res.Errors() {
		t.Errorf("unexpected violations: %v", res.Violations)
	}
}

func TestUnknownClockReported(t *testing.T) {
	b := netlist.NewBuilder("unkck")
	b.SetPeriod(50 * tick.NS)
	b.SetDefaultWire(tick.Range{})
	// A register clocked by the XOR of an asserted stable signal and an
	// undefined driven signal: the clock value is UNKNOWN.
	s := b.Net("S .S0-50")
	u := b.Net("UDRIVEN")
	loopIn := b.Net("LOOP IN")
	b.Gate(netlist.KXor, "mix", tick.Range{}, []netlist.NetID{u}, netlist.Conns(loopIn), netlist.Conns(s))
	b.Gate(netlist.KXor, "loop", tick.Range{}, []netlist.NetID{loopIn}, netlist.Conns(u), netlist.Conns(u))
	q := b.Net("Q")
	dd := b.Net("DD .S0-50")
	b.Register("REG", tick.R(1, 2), []netlist.NetID{q}, netlist.Conn{Net: u}, netlist.Conns(dd))
	d := b.MustBuild()
	res, err := Run(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Violations {
		if v.Kind == UnknownClockViolation {
			found = true
		}
	}
	if !found {
		t.Errorf("unknown clock not reported: %v", res.Violations)
	}
}

func TestConvergenceCap(t *testing.T) {
	d := buildFig25(t)
	res, err := Run(d, Options{MaxPasses: 2})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Violations {
		if v.Kind == ConvergenceViolation {
			found = true
		}
	}
	if !found {
		t.Error("pass cap exhaustion should be reported")
	}
}

func TestCaseUnknownSignal(t *testing.T) {
	b := netlist.NewBuilder("badcase")
	b.SetPeriod(50 * tick.NS)
	b.Net("A .S0-50")
	b.AddCase("bad", netlist.Assign("NO SUCH SIGNAL", values.V0))
	d := b.MustBuild()
	if _, err := Run(d, Options{}); err == nil || !strings.Contains(err.Error(), "unknown signal") {
		t.Errorf("case naming an unknown signal should fail, got %v", err)
	}
}

func TestVectorViolationGrouping(t *testing.T) {
	b := netlist.NewBuilder("group")
	b.SetPeriod(50 * tick.NS)
	b.SetDefaultWire(tick.Range{})
	b.SetPrecisionSkew(tick.Range{})
	ck := b.Net("CK .P4-5")
	data := b.Vector("LATE DATA .S5-7", 16) // stable 25–35 only: violates around the 20 ns edge
	b.SetupHold("CHK", ns(2.0), ns(1.0), netlist.Conns(data...), netlist.Conn{Net: ck})
	d := b.MustBuild()
	res, err := Run(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	setups := 0
	for _, v := range res.Violations {
		if v.Kind == SetupViolation {
			setups++
			if !strings.Contains(v.Detail, "15 further bits") {
				t.Errorf("grouped violation detail = %q", v.Detail)
			}
		}
	}
	if setups != 1 {
		t.Errorf("got %d set-up violations for a uniform 16-bit bus, want 1 grouped", setups)
	}
}

func TestStatsPopulated(t *testing.T) {
	d := buildFig25(t)
	res, err := Run(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Primitives != len(d.Prims) || s.Nets != len(d.Nets) {
		t.Errorf("stats sizes wrong: %+v", s)
	}
	if s.Events == 0 || s.PrimEvals == 0 || s.Cases != 1 {
		t.Errorf("stats counters wrong: %+v", s)
	}
	if s.PrimEvals < s.Primitives-4 { // checkers are not evaluated in relaxation
		t.Errorf("every driving primitive should be evaluated at least once: %+v", s)
	}
}

func TestPinnedClockNotOverwritten(t *testing.T) {
	// A driven net with a clock assertion keeps its asserted waveform; a
	// mismatching driver is reported.
	b := netlist.NewBuilder("pinned")
	b.SetPeriod(50 * tick.NS)
	b.SetClockUnit(5 * tick.NS)
	b.SetDefaultWire(tick.Range{})
	b.SetPrecisionSkew(tick.Range{})
	src := b.Net("SRC .P1-2")
	derived := b.Net("DERIVED .P2-3") // asserted 10–15... but driven with 5 ns delay from SRC
	b.Buf("CKBUF", tick.R(2, 2), []netlist.NetID{derived}, netlist.Conns(src))
	d := b.MustBuild()
	res, err := Run(d, Options{KeepWaves: true})
	if err != nil {
		t.Fatal(err)
	}
	// The pinned value is the asserted one: high 10–15.
	id, _ := d.NetByName("DERIVED .P2-3")
	w := res.Cases[0].Waves[id]
	if w.At(ns(12)) != values.V1 || w.At(ns(8)) != values.V0 {
		t.Errorf("pinned clock wave wrong: %v", w)
	}
	// The driver disagrees (SRC high 5–10 delayed 2 → 7–12): reported.
	found := false
	for _, v := range res.Violations {
		if v.Kind == AssertionViolation && strings.Contains(v.Data, "DERIVED") {
			found = true
		}
	}
	if !found {
		t.Errorf("clock assertion mismatch not reported: %v", res.Violations)
	}
}

func TestPinnedClockMatchingDriverClean(t *testing.T) {
	b := netlist.NewBuilder("pinned-ok")
	b.SetPeriod(50 * tick.NS)
	b.SetClockUnit(5 * tick.NS)
	b.SetDefaultWire(tick.Range{})
	b.SetPrecisionSkew(tick.Range{})
	src := b.Net("SRC .P1-2")
	derived := b.Net("DERIVED .P2-3") // high 10–15 = SRC (5–10) + 5 ns
	b.Buf("CKBUF", tick.R(5, 5), []netlist.NetID{derived}, netlist.Conns(src))
	d := b.MustBuild()
	res, err := Run(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors() {
		t.Errorf("matching clock driver should be clean: %v", res.Violations)
	}
}

func TestWiredOr(t *testing.T) {
	b := netlist.NewBuilder("wired-or")
	b.SetPeriod(50 * tick.NS)
	b.SetDefaultWire(tick.Range{})
	b.SetPrecisionSkew(tick.Range{})
	b.SetWiredOr(true)
	a := b.Net("A .P1-2") // high 1–2 ns... clock units default 1ns: high 10–20? no: cu 1ns → high 1–2
	c := b.Net("C .P30-40")
	bus := b.Net("BUS")
	// Two gate outputs tied together: their OR appears on the bus.
	b.Buf("DRV A", tick.Range{}, []netlist.NetID{bus}, netlist.Conns(a))
	b.Buf("DRV C", tick.Range{}, []netlist.NetID{bus}, netlist.Conns(c))
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, Options{KeepWaves: true})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := d.NetByName("BUS")
	w := res.Cases[0].Waves[id]
	if w.At(ns(1.5)) != values.V1 || w.At(ns(35)) != values.V1 {
		t.Errorf("wired-OR should show both pulses: %v", w)
	}
	if w.At(ns(25)) != values.V0 || w.At(ns(45)) != values.V0 {
		t.Errorf("wired-OR idle should be low: %v", w)
	}

	// The tape's precompiled wired-OR tables must fold the drivers exactly
	// like Reference's per-run ones, at every worker count.
	ref, err := Reference(d, Options{KeepWaves: true, Margins: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		res, err := Run(d, Options{Workers: workers, KeepWaves: true, Margins: true})
		if err != nil {
			t.Fatal(err)
		}
		sameReports(t, fmt.Sprintf("wired-OR workers=%d", workers), ref, res)
	}
}

func TestWiredOrRejectedWithoutOptIn(t *testing.T) {
	b := netlist.NewBuilder("no-wired-or")
	b.SetPeriod(50 * tick.NS)
	bus := b.Net("BUS")
	a := b.Net("A .S0-25")
	b.Buf("D1", tick.Range{}, []netlist.NetID{bus}, netlist.Conns(a))
	b.Buf("D2", tick.Range{}, []netlist.NetID{bus}, netlist.Conns(a))
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "wired-OR") {
		t.Errorf("multi-driver without opt-in should fail: %v", err)
	}
}

// TestDeterminism: two runs over the same design produce identical
// violations, statistics counters and waveforms — the reproducibility a
// daily-regression workflow (§3.3.1) depends on.
func TestDeterminism(t *testing.T) {
	d := buildFig25(t)
	a, err := Run(d, Options{KeepWaves: true, Margins: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(d, Options{KeepWaves: true, Margins: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Violations) != len(b.Violations) {
		t.Fatalf("violation counts differ: %d vs %d", len(a.Violations), len(b.Violations))
	}
	for i := range a.Violations {
		if a.Violations[i].String() != b.Violations[i].String() {
			t.Errorf("violation %d differs: %v vs %v", i, a.Violations[i], b.Violations[i])
		}
	}
	if a.Stats.Events != b.Stats.Events || a.Stats.PrimEvals != b.Stats.PrimEvals {
		t.Errorf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	if len(a.Margins) != len(b.Margins) {
		t.Errorf("margins differ: %d vs %d", len(a.Margins), len(b.Margins))
	}
	for i := range a.Cases[0].Waves {
		if !a.Cases[0].Waves[i].Equal(b.Cases[0].Waves[i]) {
			t.Fatalf("waveform %d differs", i)
		}
	}
}
