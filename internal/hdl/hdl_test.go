package hdl

import (
	"math/rand"
	"strings"
	"testing"

	"scaldtv/internal/tick"
)

func TestLexer(t *testing.T) {
	src := `design EX ; trailing comment
period 50ns
and "WE GATE" delay=(1.0, 2.9) (-"CK .P2-3 L" &H, A<0:SIZE-1>) -> (WE)`
	toks, err := LexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tok := range toks {
		kinds = append(kinds, tok.String())
	}
	joined := strings.Join(kinds, " ")
	for _, want := range []string{"design", "EX", "period", "50ns", `"WE GATE"`, "->", "&", "H", "<", ":", ">"} {
		if !strings.Contains(joined, want) {
			t.Errorf("token stream missing %q: %s", want, joined)
		}
	}
	if strings.Contains(joined, "trailing") {
		t.Error("comment not stripped")
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "\"newline\nin string\"", "@"} {
		if _, err := LexAll(src); err == nil {
			t.Errorf("LexAll(%q) succeeded, want error", src)
		}
	}
}

func TestParseHeaderDecls(t *testing.T) {
	f, err := Parse(`
design EXAMPLE
period 50ns
clockunit 6.25ns
defaultwire 0ns 2ns
skew precision -1ns 1ns
skew clock -5ns 5ns
`)
	if err != nil {
		t.Fatal(err)
	}
	if f.Design != "EXAMPLE" || f.Period != 50*tick.NS || f.ClockUnit != tick.FromNS(6.25) {
		t.Errorf("header wrong: %+v", f)
	}
	if !f.HasWire || f.Wire != tick.R(0, 2) {
		t.Errorf("defaultwire wrong: %+v", f.Wire)
	}
	if !f.HasPSkew || f.PSkew != tick.R(-1, 1) || !f.HasCSkew || f.CSkew != tick.R(-5, 5) {
		t.Errorf("skews wrong: %+v %+v", f.PSkew, f.CSkew)
	}
}

func TestParseInstance(t *testing.T) {
	f, err := Parse(`
period 50ns
and "WE GATE" delay=(1.0, 2.9) (-"CK .P2-3 L" &H, -"WRITE .S0-6 L") -> (WE)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Body) != 1 {
		t.Fatalf("got %d instances", len(f.Body))
	}
	inst := f.Body[0]
	if inst.Kind != "and" || inst.Label != "WE GATE" {
		t.Errorf("instance head wrong: %+v", inst)
	}
	if !inst.HasDelay || inst.Delay != tick.R(1.0, 2.9) {
		t.Errorf("delay wrong: %+v", inst.Delay)
	}
	if len(inst.Ins) != 2 || len(inst.Outs) != 1 {
		t.Fatalf("connection counts wrong: %d in, %d out", len(inst.Ins), len(inst.Outs))
	}
	if !inst.Ins[0].Invert || inst.Ins[0].Name != "CK .P2-3 L" || inst.Ins[0].Dirs != "H" {
		t.Errorf("first input wrong: %+v", inst.Ins[0])
	}
	if inst.Outs[0].Name != "WE" || inst.Outs[0].Invert {
		t.Errorf("output wrong: %+v", inst.Outs[0])
	}
}

func TestParseMacroAndUse(t *testing.T) {
	f, err := Parse(`
period 50ns
macro "16W RAM" (SIZE) {
    param I<0:SIZE-1>, A<0:3>, WE, DO<0:SIZE-1>
    local WET
    chg delay=(5.0, 9.0) (A<0:3>, WE) -> (DO<0:SIZE-1>)
    setuphold setup=4.5 hold=-1.0 (I<0:SIZE-1>, -WE)
    minpulse high=4.0 (WE)
}
use "16W RAM" RAM1 SIZE=32 (I="W DATA .S0-6"<0:31>, A=ADR<0:3>, WE=WE, DO=DO<0:31>)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Macros) != 1 {
		t.Fatalf("got %d macros", len(f.Macros))
	}
	m := f.Macros[0]
	if m.Name != "16W RAM" || len(m.Params) != 1 || m.Params[0] != "SIZE" {
		t.Errorf("macro head wrong: %+v", m)
	}
	if len(m.Ports) != 4 || len(m.Locals) != 1 || len(m.Body) != 3 {
		t.Errorf("macro contents wrong: %d ports, %d locals, %d body", len(m.Ports), len(m.Locals), len(m.Body))
	}
	// Computed bound SIZE-1 on port I.
	hi, err := m.Ports[0].Hi.Eval(map[string]int{"SIZE": 32})
	if err != nil || hi != 31 {
		t.Errorf("port bound eval = %d, %v", hi, err)
	}
	use := f.Body[0]
	if use.Kind != "use" || use.Macro != "16W RAM" || use.Label != "RAM1" {
		t.Errorf("use head wrong: %+v", use)
	}
	if e, ok := use.Param("SIZE"); !ok {
		t.Error("SIZE binding missing")
	} else if v, err := e.Eval(nil); err != nil || v != 32 {
		t.Errorf("SIZE binding = %d, %v", v, err)
	}
	if se := use.Conn("I"); se == nil || se.Name != "W DATA .S0-6" || !se.HasRange {
		t.Errorf("I connection wrong: %+v", se)
	}
	// Negative hold parsed.
	if m.Body[1].Hold != tick.FromNS(-1.0) {
		t.Errorf("negative hold = %v", m.Body[1].Hold)
	}
}

func TestParseCase(t *testing.T) {
	f, err := Parse(`
period 50ns
case "CONTROL SIGNAL" = 0
case "CONTROL SIGNAL" = 1, OTHER = 0
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Cases) != 2 {
		t.Fatalf("got %d cases", len(f.Cases))
	}
	if len(f.Cases[0].Assigns) != 1 || f.Cases[0].Assigns[0].Value != 0 {
		t.Errorf("case 0 wrong: %+v", f.Cases[0])
	}
	if len(f.Cases[1].Assigns) != 2 || f.Cases[1].Label != `CONTROL SIGNAL = 1, OTHER = 0` {
		t.Errorf("case 1 wrong: %+v", f.Cases[1])
	}
}

func TestParseSignalAndWire(t *testing.T) {
	f, err := Parse(`
period 50ns
signal ADR<0:3>
wire ADR 0ns 6ns
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Signals) != 1 || !f.Signals[0].HasRange {
		t.Errorf("signal decl wrong: %+v", f.Signals)
	}
	if len(f.Wires) != 1 || f.Wires[0].Delay != tick.R(0, 6) {
		t.Errorf("wire decl wrong: %+v", f.Wires)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct {
		src, want string
	}{
		{`period`, "expected a time"},
		{`bogus 12`, "unknown statement"},
		{`period 50ns  and (A -> (X)`, "expected"},
		{`period 50ns  case X = 2`, "case value"},
		{`period 50ns  skew sideways 0 1`, "precision or clock"},
		{`period 50ns  and delay=(2,1) (A) -> (X)`, "inverted delay"},
		{`period 50ns  macro M { bogus (A) -> (B) }`, "unknown macro body"},
		{`period 50ns  and frob=(1,2) (A) -> (X)`, "unknown property"},
		{`period 50ns  use M (I=A, I=B)`, "connected twice"},
		{"period 50ns\nuse M U SIZE=4 SIZE=2 (A=\"IN .S0-4\"<0:1>, O=OUT<0:1>)", `hdl:2:16: parameter "SIZE" bound twice`},
		{`period 50ns  and (A<1:"s">) -> (X)`, "expression"},
	}
	for _, c := range bad {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error %q does not contain %q", c.src, err, c.want)
		}
	}
}

func TestExprEval(t *testing.T) {
	f, err := Parse(`
period 50ns
signal X<0:2*SIZE+1>
signal Y<(SIZE-1)/2>
`)
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]int{"SIZE": 8}
	if v, err := f.Signals[0].Hi.Eval(env); err != nil || v != 17 {
		t.Errorf("2*SIZE+1 = %d, %v", v, err)
	}
	if v, err := f.Signals[1].Hi.Eval(env); err != nil || v != 3 {
		t.Errorf("(SIZE-1)/2 = %d, %v", v, err)
	}
	if _, err := f.Signals[0].Hi.Eval(nil); err == nil {
		t.Error("unbound parameter should fail")
	}
	// Division by zero.
	f2, _ := Parse(`period 50ns
signal Z<1/SIZE>`)
	if _, err := f2.Signals[0].Hi.Eval(map[string]int{"SIZE": 0}); err == nil {
		t.Error("division by zero should fail")
	}
}

func TestMuxAndStorageParse(t *testing.T) {
	f, err := Parse(`
period 50ns
mux2 "ADR MUX" delay=(1.2,3.3) seldelay=(0.3,1.2) ("CLK .P0-4" &Z, RADR<0:3>, WADR<0:3>) -> (ADR<0:3>)
reg "OUT REG" delay=(1.5,4.5) ("CLK .P0-4", DO<0:31>) -> (Q<0:31>)
regrs delay=(1,2) (CK, D, SET, RST) -> (Q2)
latch delay=(1,3.5) (EN, D2<0:3>) -> (Q3<0:3>)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Body) != 4 {
		t.Fatalf("got %d instances", len(f.Body))
	}
	mux := f.Body[0]
	if !mux.HasSelDelay || mux.SelDelay != tick.R(0.3, 1.2) {
		t.Errorf("seldelay wrong: %+v", mux.SelDelay)
	}
	if mux.Ins[0].Dirs != "Z" {
		t.Errorf("select directive wrong: %+v", mux.Ins[0])
	}
	if f.Body[2].Kind != "regrs" || len(f.Body[2].Ins) != 4 {
		t.Errorf("regrs wrong: %+v", f.Body[2])
	}
}

// TestParserNeverPanics throws random byte soup at the lexer and parser:
// they must return errors, never panic.
func TestParserNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte("abcZ09 .,<>(){}&-=:;\"'/*+\n\tперiod")
	for i := 0; i < 5000; i++ {
		n := rng.Intn(60)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = alphabet[rng.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on input %q: %v", buf, r)
				}
			}()
			_, _ = Parse(string(buf))
		}()
	}
	// Mutations of valid source must not panic either.
	base := []byte(`period 50ns
macro M (SIZE) { param A<0:SIZE-1>
buf delay=(1,2) (A<0:SIZE-1>) -> (A<0:SIZE-1>) }
use M SIZE=4 (A="X .S0-25"<0:3>)`)
	for i := 0; i < 5000; i++ {
		buf := append([]byte(nil), base...)
		for k := 0; k < 3; k++ {
			buf[rng.Intn(len(buf))] = alphabet[rng.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutated input %q: %v", buf, r)
				}
			}()
			_, _ = Parse(string(buf))
		}()
	}
}
