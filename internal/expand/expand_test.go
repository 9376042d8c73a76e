package expand

import (
	"strings"
	"testing"

	"scaldtv/internal/hdl"
	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
	"scaldtv/internal/verify"
)

func mustExpand(t *testing.T, src string) (*netlist.Design, *Report) {
	t.Helper()
	f, err := hdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, r, err := Expand(f)
	if err != nil {
		t.Fatal(err)
	}
	return d, r
}

func expandErr(t *testing.T, src string) error {
	t.Helper()
	f, err := hdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Expand(f)
	return err
}

func TestExpandFlat(t *testing.T) {
	d, r := mustExpand(t, `
design FLAT
period 50ns
defaultwire 0ns 0ns
or G1 delay=(1.0, 2.9) ("A .S0-25", "B .S0-25") -> (X)
reg R1 delay=(1.5, 4.5) ("CK .P20-30", X) -> (Q)
`)
	if len(d.Prims) != 2 || len(d.Nets) != 5 {
		t.Errorf("sizes: %d prims, %d nets", len(d.Prims), len(d.Nets))
	}
	if r.Primitives != 2 || r.Census[netlist.KOr] != 1 || r.Census[netlist.KReg] != 1 {
		t.Errorf("census wrong: %+v", r)
	}
	if _, ok := d.NetByName("CK .P20-30"); !ok {
		t.Error("clock net missing")
	}
	if d.Prims[0].Name != "G1" || d.Prims[0].Delay != tick.R(1.0, 2.9) {
		t.Errorf("gate wrong: %+v", d.Prims[0])
	}
}

func TestExpandVectorsAndParams(t *testing.T) {
	d, r := mustExpand(t, `
design VEC
period 50ns
macro DATAPATH (SIZE) {
    param IN<0:SIZE-1>, CK, OUT<0:SIZE-1>
    local MID<0:SIZE-1>
    buf delay=(1,2) (IN<0:SIZE-1>) -> (MID<0:SIZE-1>)
    reg delay=(1.5,4.5) (CK, MID<0:SIZE-1>) -> (OUT<0:SIZE-1>)
}
use DATAPATH DP1 SIZE=8 (IN="D .S0-25"<0:7>, CK="CK .P20-30", OUT=Q<0:7>)
use DATAPATH DP2 SIZE=4 (IN="E .S0-25"<0:3>, CK="CK .P20-30", OUT=R<0:3>)
`)
	if r.MacroUses != 2 {
		t.Errorf("macro uses = %d", r.MacroUses)
	}
	if r.Primitives != 4 {
		t.Errorf("primitives = %d, want 4", r.Primitives)
	}
	if r.ScalarBits != 8+8+4+4 {
		t.Errorf("scalar bits = %d, want 24", r.ScalarBits)
	}
	if r.AvgWidth() != 6.0 {
		t.Errorf("avg width = %v, want 6.0", r.AvgWidth())
	}
	// Locals are uniquified per expansion.
	if _, ok := d.NetByName("DP1/MID<3>"); !ok {
		t.Error("DP1 local missing")
	}
	if _, ok := d.NetByName("DP2/MID<3>"); !ok {
		t.Error("DP2 local missing")
	}
	if _, ok := d.NetByName("DP2/MID<7>"); ok {
		t.Error("DP2 local too wide")
	}
	// Port bits bound to the actual signals (synonym resolution):
	// DP1 binds 8+1+8 bits, DP2 binds 4+1+4.
	if r.Synonyms != 17+9 {
		t.Errorf("synonyms = %d, want 26", r.Synonyms)
	}
}

func TestExpandSubslice(t *testing.T) {
	d, _ := mustExpand(t, `
period 50ns
macro HALF {
    param IN<0:7>, OUT<0:3>
    buf delay=(1,1) (IN<4:7>) -> (OUT<0:3>)
}
use HALF H (IN="WIDE .S0-25"<0:7>, OUT=N<0:3>)
`)
	// The buffer input must be WIDE<4..7>.
	p := d.Prims[0]
	n := d.Nets[p.In[0].Bits[0].Net]
	if n.Base != "WIDE<4>" {
		t.Errorf("subslice starts at %q, want WIDE<4>", n.Base)
	}
}

func TestExpandNestedMacros(t *testing.T) {
	d, r := mustExpand(t, `
period 50ns
macro INNER {
    param A, B
    buf delay=(1,1) (A) -> (B)
}
macro OUTER {
    param X, Y
    local T
    use INNER I1 (A=X, B=T)
    use INNER I2 (A=T, B=Y)
}
use OUTER O (X="IN .S0-25", Y=OUT)
`)
	if r.Primitives != 2 || r.MacroUses != 3 {
		t.Errorf("nested expansion wrong: %+v", r)
	}
	if _, ok := d.NetByName("O/T"); !ok {
		t.Error("nested local missing")
	}
	// Labels carry the hierarchical path.
	if d.Prims[0].Name != "O/I1/buf.1" && !strings.HasPrefix(d.Prims[0].Name, "O/I1") {
		t.Errorf("hierarchical label wrong: %q", d.Prims[0].Name)
	}
}

func TestExpandRecursionCaught(t *testing.T) {
	err := expandErr(t, `
period 50ns
macro LOOP {
    param A, B
    use LOOP (A=A, B=B)
}
use LOOP (A=X, B=Y)
`)
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("recursion not caught: %v", err)
	}
}

func TestExpandErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`design D
or (A,B) -> (X)`, "clock period"},
		{`period 50ns
use NOSUCH (A=B)`, "unknown macro"},
		{`period 50ns
macro M { param A, B
buf delay=(1,1) (A) -> (B) }
use M (A=X)`, "not connected"},
		{`period 50ns
macro M { param A
buf delay=(1,1) (A) -> (A) }
use M (A=X, B=Y)`, "no port B"},
		{`period 50ns
macro M (SIZE) { param A<0:SIZE-1>
buf delay=(1,1) (A<0:SIZE-1>) -> (A<0:SIZE-1>) }
use M (A=X<0:3>)`, "needs parameter"},
		{`period 50ns
macro M { param A<0:3>
buf delay=(1,1) (A<0:3>) -> (A<0:3>) }
use M (A=X<0:7>)`, "is 4 bits, connection"},
		{`period 50ns
wire NOSUCH 0ns 1ns`, "unknown signal"},
		{`period 50ns
mux2 delay=(1,1) (S<0:1>, A, B) -> (X)`, "one bit wide"},
		{`period 50ns
reg delay=(1,1) (CK, D) -> ()`, "outputs"},
		{`period 50ns
and delay=(1,1) (A) -> (-X)`, "cannot carry"},
		{`period 50ns
signal V<3:0>`, "inverted bit range"},
		{`period 50ns
buf delay=(1,1) (A<0:99999999>) -> (B<0:99999999>)`, "wider than 65536 bits"},
		{`period 50ns
macro M { param A<0:3>
buf delay=(1,1) (A<0:9>) -> (A<0:3>) }
use M (A=X<0:3>)`, "exceeds bound width"},
	}
	for _, c := range cases {
		err := expandErr(t, c.src)
		if err == nil {
			t.Errorf("Expand(%q) succeeded, want %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Expand error %q does not contain %q", err, c.want)
		}
	}
}

// fig25HDL is the Fig 2-5 register-file example expressed in the textual
// HDL, matching the programmatic construction in the verify tests.
const fig25HDL = `
design "FIG 2-5"
period 50ns
clockunit 6.25ns
defaultwire 0ns 2ns
skew precision -1ns 1ns

macro "16W RAM 10145A" (SIZE) {
    param I<0:SIZE-1>, A<0:3>, WE, DO
    setuphold "RAM I CHK" setup=4.5 hold=-1.0 (I<0:SIZE-1>, -WE)
    setupriseholdfall "RAM A CHK" setup=3.5 hold=1.0 (A<0:3>, WE)
    minpulse "RAM WE WIDTH" high=4.0 (WE)
    chg "RAM READ" delay=(5.0, 9.0) (A<0>, A<1>, A<2>, A<3>, WE) -> (DO)
}

mux2 "ADR MUX" delay=(1.2,3.3) seldelay=(0.3,1.2) ("CLK .P0-4" &Z, "READ ADR .S4-9"<0:3>, "W ADR .S0-6"<0:3>) -> (ADR<0:3>)
wire ADR 0ns 6ns
and "WE GATE" delay=(1.0,2.9) (-"CK .P2-3 L" &H, -"WRITE .S0-6 L") -> (WE)
use "16W RAM 10145A" RAM1 SIZE=32 (I="W DATA .S0-6"<0:31>, A=ADR<0:3>, WE=WE, DO=DO)
reg "OUT REG" delay=(1.5,4.5) ("CLK .P0-4", DO) -> (Q<0:31>)
setuphold "OUT REG CHK" setup=2.5 hold=1.5 (DO, "CLK .P0-4")
`

// TestExpandBindingErrorsDeterministic requires an undeclared port or
// parameter binding to be reported as the first one in source order,
// the same on every run.
func TestExpandBindingErrorsDeterministic(t *testing.T) {
	const macros = `period 50ns
macro M1 {
    param A, O
    buf delay=(1,1) (A) -> (O)
}
macro M (SIZE) {
    param A<0:SIZE-1>, O<0:SIZE-1>
    buf delay=(1,1) (A<0:SIZE-1>) -> (O<0:SIZE-1>)
}
`
	for _, c := range []struct{ use, want string }{
		{`use M1 U (A="IN .S0-4", O=OUT, ZZ=P, YY=Q, XX=R, WW=S)`, `macro "M1" has no port ZZ`},
		{`use M U SIZE=2 WIDTH=3 DEPTH=4 ZZ=5 (A="IN .S0-4"<0:1>, O=OUT<0:1>)`, `macro "M" has no parameter WIDTH`},
	} {
		for i := 0; i < 50; i++ {
			err := expandErr(t, macros+c.use)
			if err == nil || !strings.HasSuffix(err.Error(), c.want) {
				t.Fatalf("run %d: Expand(%s) error %v, want one ending %q", i, c.use, err, c.want)
			}
		}
	}
}

// TestFig25ThroughHDL runs the full pipeline — parse, expand, verify — on
// the Fig 2-5 source and reproduces the Fig 3-11 errors exactly.
func TestFig25ThroughHDL(t *testing.T) {
	d, r := mustExpand(t, fig25HDL)
	if r.MacroUses != 1 {
		t.Errorf("macro uses = %d", r.MacroUses)
	}
	res, err := verify.Run(d, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, v := range res.Violations {
		kinds = append(kinds, v.Prim+": "+v.Kind.String())
		switch v.Prim {
		case "RAM1/RAM A CHK":
			if v.Kind != verify.SetupViolation || v.Required != tick.FromNS(3.5) || v.Actual != 0 {
				t.Errorf("RAM setup violation wrong: %+v", v)
			}
		case "OUT REG CHK":
			if v.Kind != verify.SetupViolation || v.Required != tick.FromNS(2.5) || v.Actual != tick.FromNS(1.5) {
				t.Errorf("register setup violation wrong: %+v", v)
			}
		default:
			t.Errorf("unexpected violation: %+v", v)
		}
	}
	if len(res.Violations) != 2 {
		t.Errorf("got %d violations, want 2: %v", len(res.Violations), kinds)
	}
}

func TestExpandCases(t *testing.T) {
	d, _ := mustExpand(t, `
period 100ns
buf delay=(10,10) ("CONTROL .S0-100") -> (X)
case "CONTROL" = 0
case "CONTROL" = 1
`)
	if len(d.Cases) != 2 || d.Cases[0].Assignments[0].Base != "CONTROL" {
		t.Errorf("cases wrong: %+v", d.Cases)
	}
}

func TestExpandDefaults(t *testing.T) {
	d, _ := mustExpand(t, `
period 50ns
buf delay=(1,1) ("A .S0-25") -> (B)
`)
	// Defaults: 1 ns clock unit, 0/2 wire, ±1/±5 skews.
	if d.ClockUnit != tick.NS || d.DefaultWire != tick.R(0, 2) {
		t.Errorf("defaults wrong: %+v", d)
	}
	if d.PrecisionSkew != tick.R(-1, 1) || d.ClockSkew != tick.R(-5, 5) {
		t.Errorf("default skews wrong: %+v", d)
	}
}

func TestReportTypesUsed(t *testing.T) {
	_, r := mustExpand(t, `
period 50ns
or delay=(1,2) ("A .S0-25", "B .S0-25") -> (X)
and delay=(1,2) (X, "C .S0-25") -> (Y)
reg delay=(1,2) ("CK .P20-30", Y) -> (Q)
`)
	types := r.TypesUsed()
	if len(types) != 3 {
		t.Errorf("types used = %v", types)
	}
}

// TestExpandDelayRF wires the §4.2.2 direction-dependent delays through
// the language: a clock buffer with asymmetric rise/fall delays shifts the
// two edges by different amounts.
func TestExpandDelayRF(t *testing.T) {
	d, _ := mustExpand(t, `
period 50ns
defaultwire 0ns 0ns
skew precision 0 0
buf B delayrf=(2,3,5,7) ("CK .P20-30") -> (OUT)
`)
	p := d.Prims[0]
	if p.RF == nil || p.RF.Rise != tick.R(2, 3) || p.RF.Fall != tick.R(5, 7) {
		t.Fatalf("RF delays not carried: %+v", p.RF)
	}
	res, err := verify.Run(d, verify.Options{KeepWaves: true})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := d.NetByName("OUT")
	w := res.Cases[0].Waves[id]
	if w.At(tick.FromNS(23.5)) != values.V1 || w.At(tick.FromNS(21)) != values.V0 {
		t.Errorf("rise edge wrong: %v", w)
	}
	if w.At(tick.FromNS(34.5)) != values.V1 || w.At(tick.FromNS(37.5)) != values.V0 {
		t.Errorf("fall edge wrong: %v", w)
	}
}

func TestSummaryListing(t *testing.T) {
	_, r := mustExpand(t, `
period 50ns
macro INNER {
    param A, B
    buf delay=(1,1) (A) -> (B)
}
macro OUTER {
    param X, Y
    local T
    use INNER I1 (A=X, B=T)
    use INNER I2 (A=T, B=Y)
}
use OUTER O (X="IN .S0-25", Y=OUT)
buf ROOTBUF delay=(1,1) (OUT) -> (OUT2)
`)
	if r.UsesByMacro["OUTER"] != 1 || r.UsesByMacro["INNER"] != 2 {
		t.Errorf("uses by macro wrong: %+v", r.UsesByMacro)
	}
	if r.PrimsByMacro["INNER"] != 2 || r.PrimsByMacro[""] != 1 {
		t.Errorf("prims by macro wrong: %+v", r.PrimsByMacro)
	}
	s := r.SummaryListing()
	for _, want := range []string{"MACRO EXPANSION SUMMARY", "INNER", "OUTER", "(root)", "synonyms"} {
		if !strings.Contains(s, want) {
			t.Errorf("listing missing %q:\n%s", want, s)
		}
	}
}
