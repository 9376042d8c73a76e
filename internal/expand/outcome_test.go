package expand_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"scaldtv/internal/expand"
	"scaldtv/internal/gen"
	"scaldtv/internal/hdl"
	"scaldtv/internal/netlist"
)

// TestExpandOutcomePin requires every expansion outcome to match
// testdata/outcomes.txt exactly: for a design, its net and primitive
// counts, netlist.Fingerprint and the Pass-1 summary listing; for a
// failure, the whole error text.  It covers every FuzzExpand seed (the
// pinned designs, the corpus files and the generated shapes) and sources
// that stress macro templates: one macro at several bindings, nested
// locals at sub-ranges, default labels, broadcast and decorated port
// bindings, globals and delay expressions in a body, and errors reached
// only at a later use or behind an earlier one.  Regenerate with -update
// only for an intended change to elaboration.
func TestExpandOutcomePin(t *testing.T) {
	golden := filepath.Join("testdata", "outcomes.txt")
	var sb strings.Builder
	for _, pd := range outcomeDesigns(t) {
		fmt.Fprintf(&sb, "== %s\n%s", pd.name, outcome(pd.src))
	}
	got := sb.String()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("outcome table missing (run go test -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("expansion outcomes differ from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("expansion outcomes differ from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// outcome renders what expanding src yields.
func outcome(src string) string {
	f, err := hdl.Parse(src)
	if err != nil {
		return fmt.Sprintf("parse error: %v\n", err)
	}
	d, rep, err := expand.Expand(f)
	if err != nil {
		return fmt.Sprintf("error: %v\n", err)
	}
	return fmt.Sprintf("nets %d prims %d fingerprint %016x\n%s",
		len(d.Nets), len(d.Prims), netlist.Fingerprint(d), rep.SummaryListing())
}

// outcomeDesigns lists the pinned designs, the FuzzExpand corpus files,
// the generated shapes FuzzExpand seeds with, and the template sources.
func outcomeDesigns(t *testing.T) []pinDesign {
	out := pinDesigns(t)
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzExpand", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no FuzzExpand corpus: %v", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		_, body, _ := strings.Cut(string(raw), "\n")
		body = strings.TrimSpace(body)
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(body, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out = append(out, pinDesign{"corpus/" + filepath.Base(p), src})
	}
	// The generated shapes FuzzExpand adds to its seeds.
	for i, cfg := range []gen.Config{
		{Chips: 17},
		{Chips: 17, Inject: 1, Cases: 2},
		{Chips: 34, Depth: 3, Feedback: 0.5, Width: 8},
		{Chips: 17, VariableCycle: true, Cases: 2, Width: 16},
	} {
		out = append(out, pinDesign{fmt.Sprintf("fuzzgen/%d", i), gen.Source(cfg)})
	}
	for _, c := range templateSources {
		out = append(out, pinDesign{"template/" + c.name, c.src})
	}
	return out
}

// templateSources stress what one macro binding shares between its uses
// and what each use must still do for itself.
var templateSources = []struct{ name, src string }{
	{"two-sizes", `design TWOSIZE
period 50ns
macro DP (SIZE) {
    param IN<0:SIZE-1>, CK, OUT<0:SIZE-1>
    local MID<0:SIZE-1>
    buf delay=(1,2) (IN<0:SIZE-1>) -> (MID<0:SIZE-1>)
    reg delay=(1.5,4.5) (CK, MID<0:SIZE-1>) -> (OUT<0:SIZE-1>)
    setuphold setup=2.0 hold=1.0 (MID<0:SIZE-1>, CK)
}
use DP A SIZE=8 (IN="D .S0-25"<0:7>, CK="CK .P20-30", OUT=Q<0:7>)
use DP B SIZE=4 (IN="E .S0-25"<0:3>, CK="CK .P20-30", OUT=R<0:3>)
use DP SIZE=8 (IN=Q<0:7>, CK="CK .P20-30", OUT=S<0:7>)
use DP SIZE=4 (OUT=T<0:3>, IN=R<0:3>, CK="CK .P20-30")
`},
	{"nested-subrange", `design NESTED
period 50ns
macro INNER (N) {
    param A<0:N-1>, B<0:N-1>
    local T<0:N-1>, U
    buf delay=(1,1) (A<0:N-1>) -> (T<0:N-1>)
    or delay=(1,2) (T<1:N-1>) -> (U)
    and delay=(1,2) (U, T<0>) -> (B<0>)
    buf delay=(1,1) (T<1:N-1>) -> (B<1:N-1>)
}
macro OUTER {
    param X<0:7>, Y<0:7>
    local M<0:7>, W<2:5>
    use INNER I1 N=8 (A=X<0:7>, B=M<0:7>)
    use INNER I2 N=4 (A=M<4:7>, B=Y<0:3>)
    buf delay=(1,1) (M<0:3>) -> (W<2:5>)
    use INNER I3 N=2 (A=W<3:4>, B=Y<4:5>)
    use INNER I4 N=2 (A=W<4:5>, B=Y<6:7>)
}
use OUTER O1 (X="IN .S0-25"<0:7>, Y=OUT<0:7>)
use OUTER O2 (X="IN .S0-25"<8:15>, Y=OUT<8:15>)
`},
	{"default-labels", `design LABELS
period 50ns
macro CELL {
    param A, B, O
    local T
    and delay=(1,2) (A, B) -> (T)
    not delay=(1,1) (T) -> (O)
}
macro PAIR {
    param A, B, O
    local T
    use CELL (A=A, B=B, O=T)
    and delay=(1,2) (T, A) -> (O)
}
use CELL (A="A0 .S0-25", B="B0 .S0-25", O=X0)
and delay=(1,2) (X0, "B0 .S0-25") -> (Y0)
use CELL (A=X0, B=Y0, O=X1)
use PAIR (A=X1, B=Y0, O=X2)
use CELL C (A=X2, B=Y0, O=X3)
use PAIR (A=X3, B=X1, O=X4)
not delay=(1,1) (X4) -> (Y1)
use CELL (A=Y1, B=X4, O=X5)
use PAIR P (A=X5, B=Y1, O=X6)
`},
	{"broadcast", `design BCAST
period 50ns
macro W (SIZE) {
    param S<0:SIZE-1>, D<0:SIZE-1>, O<0:SIZE-1>
    and delay=(1,1) (S<0:SIZE-1>, D<0:SIZE-1>) -> (O<0:SIZE-1>)
    setuphold setup=1 hold=1 (S<1:SIZE-1>, "CK .P0-4")
}
use W SIZE=4 (S="EN .S0-25", D="DA .S0-25"<0:3>, O=Z<0:3>)
use W SIZE=2 (S=Z<0>, D=Z<2:3>, O=Y<0:1>)
use W SIZE=3 (S="EN .S0-25", D=-"DB .S0-25" &A, O=V<0:2>)
`},
	{"decorated-ports", `design DECOR
period 50ns
clockunit 6.25ns
macro G {
    param A, B, O
    and delay=(1.0,2.9) (A, -B) -> (O)
}
macro H (N) {
    param C, D<0:N-1>, Q<0:N-1>
    and delay=(1,2) (C &Z, -D<0:N-1>) -> (Q<0:N-1>)
    setuphold setup=1 hold=1 (D<0:N-1> &A, -C)
}
use G (A=-"CK .P2-3 L" &H, B=-"WRITE .S0-6 L", O=WE)
use G (A=WE &W, B="WRITE .S0-6 L", O=WE2)
use H N=2 (C=-"CK .P2-3 L", D=-"DV .S0-6"<0:1> &A, Q=R<0:1>)
use H N=2 (C=WE2 &H, D="DV .S0-6"<2:3>, Q=R<2:3>)
`},
	{"globals-and-delay-exprs", `design GLOBALS
period 50ns
param load = 1.0 range 0.5 2.0
param temp = 1.0
macro D (N) {
    param I<0:N-1>, O
    local T<0:N-1>
    buf delay=(1.0+0.5*load, 2.0+load) (I<0:N-1>) -> (T<0:N-1>)
    and delay=(1,2) (T<0:N-1>, "GLOBAL EN .S0-25", "GV .S0-25"<0:1>) -> (O)
    setuphold setup=1 hold=1 (T<0:N-1>, "CK .P0-4")
    buf delay=(load*1.0+temp, 3.0+load*2.0) ("GV .S0-25"<2>) -> (T2)
}
macro E {
    param I, O
    buf delay=(1.0+0.5*load, 2.0+load) (I) -> (O)
}
use D A N=2 (I="DA .S0-25"<0:1>, O=P)
use E (I=P, O=P2)
buf delay=(1.0+0.5*load, 2.0+load) (P2) -> (P3)
`},
	{"error-later-use-decorated-output", `design LATE
period 50ns
macro M {
    param A, O
    buf delay=(1,1) (A) -> (O)
}
use M U1 (A="X .S0-25", O=Y1)
use M U2 (A=Y1, O=Y2)
use M U3 (A=Y2, O=-Y3)
`},
	{"error-later-use-width", `design LATEW
period 50ns
macro M (N) {
    param A<0:N-1>, O<0:N-1>
    buf delay=(1,1) (A<0:N-1>) -> (O<0:N-1>)
}
use M U1 N=2 (A="X .S0-25"<0:1>, O=Y<0:1>)
use M U2 N=2 (A=Y<0:1>, O=Z<0:1>)
use M U3 N=2 (A=Z<0:2>, O=W<0:1>)
`},
	{"error-later-use-unknown-macro", `design LATEU
period 50ns
macro M {
    param A, O
    buf delay=(1,1) (A) -> (O)
}
use M U1 (A="X .S0-25", O=Y1)
use N U2 (A=Y1, O=Y2)
`},
	{"error-decorated-output-before-body-error", `design FIRST
period 50ns
macro M {
    param A, O
    buf delay=(1,1) (A) -> (O)
    reg delay=(1,1) (A) -> (Q)
}
use M U1 (A="X .S0-25", O=-Y1)
`},
	{"error-body-unknown-primitive", `design BODY
period 50ns
macro M {
    param A, O
    buf delay=(1,1) (A) -> (O)
    reg delay=(1,1) (A) -> (Q)
}
buf delay=(1,1) ("X .S0-25") -> (Y0)
use M U1 (A=Y0, O=Y1)
`},
	{"error-local-outside-declared", `design LOCALR
period 50ns
macro M (N) {
    param A, O
    local T<0:N-1>
    buf delay=(1,1) (A) -> (T<0:N-1>)
    or delay=(1,1) (T<1:N>) -> (O)
}
use M U1 N=4 (A="X .S0-25", O=Y1)
`},
	{"error-local-declared-range", `design LOCALD
period 50ns
macro M (N) {
    param A, O
    local T<N:0>
    buf delay=(1,1) (A) -> (O)
    buf delay=(1,1) (A) -> (T<0>)
}
use M U1 N=4 (A="X .S0-25", O=Y1)
`},
	{"error-port-declared-range", `design PORTD
period 50ns
macro M (N) {
    param A<0:N-1>, O
    buf delay=(1,1) (A<0>) -> (O)
}
use M U1 N=2 (A="X .S0-25"<0:1>, O=Y1)
use M U2 N=0 (A="X .S0-25"<0:1>, O=Y2)
`},
	{"error-param-eval", `design PEVAL
period 50ns
macro M (N) {
    param A<0:N-1>, O
    buf delay=(1,1) (A<0>) -> (O)
}
macro OUT (K) {
    param A, O
    use M U N=J (A=A, O=O)
}
use OUT V K=1 (A="X .S0-25", O=Y1)
`},
	{"error-undeclared-delay-param", `design UNDECL
period 50ns
param load = 1.0
macro M {
    param A, O
    buf delay=(1,1) (A) -> (O)
    buf delay=(1.0+volt, 2.0) (A) -> (Q)
}
use M U1 (A="X .S0-25", O=Y1)
`},
	{"error-recursion-growing", `design GROW
period 50ns
macro R (N) {
    param A, B
    use R N=N+1 (A=A, B=B)
}
use R N=0 (A=X, B=Y)
`},
	{"error-recursion-same", `design LOOP
period 50ns
macro LOOP {
    param A, B
    buf delay=(1,1) (A) -> (B)
    use LOOP (A=A, B=B)
}
use LOOP (A=X, B=Y)
`},
	{"error-builder-directive", `design BADDIR
period 50ns
macro M {
    param A, O
    and delay=(1,1) (A &Q, "B .S0-25") -> (O)
}
use M U1 (A="X .S0-25", O=Y1)
use M U2 (A=Y1, O=Y2)
`},
	{"error-builder-directive-then-returned", `design BADDIR2
period 50ns
macro M {
    param A, O
    and delay=(1,1) (A &Q, "B .S0-25") -> (O)
}
use M U1 (A="X .S0-25", O=Y1)
use M U2 (A=Y1, O=-Y2)
`},
	{"error-builder-width", `design BADW
period 50ns
macro M {
    param A<0:2>, B<0:1>, O<0:2>
    and delay=(1,1) (A<0:2>, B<0:1>) -> (O<0:2>)
}
use M (A="X .S0-25"<0:2>, B="Z .S0-25"<0:1>, O=Y<0:2>)
`},
	{"error-no-port-after-body", `design NOPORT
period 50ns
macro M {
    param A, O
    buf delay=(1,1) (A) -> (O)
}
use M U1 (A="X .S0-25", O=Y1)
use M U2 (A=Y1, O=Y2, Z=Q)
`},
	{"error-no-parameter-later", `design NOPARAM
period 50ns
macro M (N) {
    param A<0:N-1>, O<0:N-1>
    buf delay=(1,1) (A<0:N-1>) -> (O<0:N-1>)
}
use M U1 N=1 (A="X .S0-25", O=Y1)
use M U2 N=1 K=2 (A=Y1, O=Y2)
`},
	{"error-mux-select-width-in-body", `design MUXW
period 50ns
macro M (N) {
    param S<0:N-1>, A, B, O
    mux2 delay=(1,1) (S<0:N-1>, A, B) -> (O)
}
use M U1 N=1 (S="S .S0-25", A="A .S0-25", B="B .S0-25", O=Y1)
use M U2 N=2 (S="S .S0-25"<0:1>, A="A .S0-25", B="B .S0-25", O=Y2)
`},
	{"error-output-port-exceeds-bound", `design BOUND
period 50ns
macro M {
    param A, O<0:1>
    buf delay=(1,1) (A) -> (O<0:2>)
}
use M U1 (A="X .S0-25", O=Y<0:1>)
`},
	{"error-multiple-drivers", `design MULTI
period 50ns
macro M {
    param A
    buf delay=(1,1) (A) -> ("SHARED OUT")
}
use M U1 (A="X .S0-25")
use M U2 (A="Y .S0-25")
`},
	{"error-unconnected-port", `design UNCONN
period 50ns
macro M {
    param A, B, O
    and delay=(1,1) (A, B) -> (O)
}
use M U1 (A="X .S0-25", B="Z .S0-25", O=Y1)
use M U2 (A=Y1, O=Y2)
`},
	{"error-second-input", `design BADIN
period 50ns
macro M {
    param A, O
    and delay=(1,1) (A, "X .C"<0:1>) -> (O)
}
use M U1 (A="A .S0-25", O=Y)
`},
	{"duplicate-port-names", `design DUPPORT
period 50ns
macro M {
    param A, A, O
    and delay=(1,1) (A, "B .S0-25") -> (O)
}
use M U1 (A="X .S0-25", O=Y)
use M U2 (O=Z, A=Y)
`},
	{"nested-macros", `period 50ns
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
`},
	// The sources TestExpandErrors matches by substring, pinned whole.
	{"errors/no-period", "design D\nor (A,B) -> (X)"},
	{"errors/unknown-macro", "period 50ns\nuse NOSUCH (A=B)"},
	{"errors/not-connected", "period 50ns\nmacro M { param A, B\nbuf delay=(1,1) (A) -> (B) }\nuse M (A=X)"},
	{"errors/no-port", "period 50ns\nmacro M { param A\nbuf delay=(1,1) (A) -> (A) }\nuse M (A=X, B=Y)"},
	{"errors/needs-parameter", "period 50ns\nmacro M (SIZE) { param A<0:SIZE-1>\nbuf delay=(1,1) (A<0:SIZE-1>) -> (A<0:SIZE-1>) }\nuse M (A=X<0:3>)"},
	{"errors/port-width", "period 50ns\nmacro M { param A<0:3>\nbuf delay=(1,1) (A<0:3>) -> (A<0:3>) }\nuse M (A=X<0:7>)"},
	{"errors/unknown-wire", "period 50ns\nwire NOSUCH 0ns 1ns"},
	{"errors/select-width", "period 50ns\nmux2 delay=(1,1) (S<0:1>, A, B) -> (X)"},
	{"errors/no-outputs", "period 50ns\nreg delay=(1,1) (CK, D) -> ()"},
	{"errors/decorated-output", "period 50ns\nand delay=(1,1) (A) -> (-X)"},
	{"errors/inverted-range", "period 50ns\nsignal V<3:0>"},
	{"errors/too-wide", "period 50ns\nbuf delay=(1,1) (A<0:99999999>) -> (B<0:99999999>)"},
	{"errors/exceeds-bound", "period 50ns\nmacro M { param A<0:3>\nbuf delay=(1,1) (A<0:9>) -> (A<0:3>) }\nuse M (A=X<0:3>)"},
}
