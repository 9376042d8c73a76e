package gen

import (
	"strings"
	"testing"

	"scaldtv/internal/verify"
)

func TestStages(t *testing.T) {
	if Stages(0) != 1 || Stages(1) != 1 || Stages(17) != 1 || Stages(18) != 2 {
		t.Error("stage rounding wrong")
	}
	if Stages(6357) != 374 {
		t.Errorf("Stages(6357) = %d, want 374", Stages(6357))
	}
	if ChipsPerStage() != 17 {
		t.Errorf("ChipsPerStage = %d", ChipsPerStage())
	}
}

func TestGenerateSmallClean(t *testing.T) {
	d, rep, err := Generate(Config{Chips: 3 * ChipsPerStage()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MacroUses == 0 || rep.Primitives == 0 {
		t.Errorf("report empty: %+v", rep)
	}
	res, err := verify.Run(d, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors() {
		for _, v := range res.Violations[:min(len(res.Violations), 8)] {
			t.Errorf("violation: %v\n  data:  %v\n  clock: %v", v, v.DataWave, v.ClockWave)
		}
	}
	if len(res.Undefined) == 0 {
		t.Error("the control inputs should appear in the cross-reference listing")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Source(Config{Chips: 40})
	b := Source(Config{Chips: 40})
	if a != b {
		t.Error("generation must be deterministic")
	}
}

func TestGenerateInjectedErrors(t *testing.T) {
	d, _, err := Generate(Config{Chips: ChipsPerStage(), Inject: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := verify.Run(d, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow := 0
	for _, v := range res.Violations {
		if v.Kind == verify.SetupViolation && strings.Contains(v.Prim, "SLOW") {
			slow++
		}
	}
	if slow < 2 {
		t.Errorf("expected both injected slow paths flagged, got %d: %v", slow, res.Violations)
	}
	// The clean pipeline itself stays clean.
	for _, v := range res.Violations {
		if !strings.Contains(v.Prim, "SLOW") {
			t.Errorf("injection leaked into the clean pipeline: %v", v)
		}
	}
}

func TestGenerateWithCases(t *testing.T) {
	d, _, err := Generate(Config{Chips: ChipsPerStage(), Cases: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Cases) != 2 {
		t.Fatalf("cases = %d", len(d.Cases))
	}
	// The incremental-case economy is a property of the sequential
	// schedule; with two or more workers every case relaxes from scratch.
	res, err := verify.Run(d, verify.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 2 {
		t.Fatalf("case results = %d", len(res.Cases))
	}
	// Incremental reevaluation: the second case touches only the cone of
	// the control signal.
	if res.Cases[1].PrimEvals >= res.Cases[0].PrimEvals {
		t.Errorf("case 2 evals %d >= case 1 evals %d", res.Cases[1].PrimEvals, res.Cases[0].PrimEvals)
	}
}

func TestCensusShape(t *testing.T) {
	// Table 3-2's shape: vectored primitives, ~1.3–1.5 per chip, average
	// width well above 1.
	_, rep, err := Generate(Config{Chips: 10 * ChipsPerStage()})
	if err != nil {
		t.Fatal(err)
	}
	chips := 10 * ChipsPerStage()
	perChip := float64(rep.Primitives) / float64(chips)
	if perChip < 1.0 || perChip > 2.0 {
		t.Errorf("primitives per chip = %.2f, want ≈1.3–1.5", perChip)
	}
	if rep.AvgWidth() < 3 {
		t.Errorf("average primitive width = %.1f, want comfortably vectored", rep.AvgWidth())
	}
	if rep.ScalarBits <= rep.Primitives*2 {
		t.Errorf("scalarised count %d should far exceed vectored %d", rep.ScalarBits, rep.Primitives)
	}
	if got := len(rep.TypesUsed()); got < 6 {
		t.Errorf("only %d primitive types used", got)
	}
}

// TestVariableCycleNeedsCases is the §3.3.2 design-style claim at scale:
// the variable-length-cycle tail fails under the single symbolic pass and
// passes once the designer's MODE cases are analysed.
func TestVariableCycleNeedsCases(t *testing.T) {
	without, _, err := Generate(Config{Chips: ChipsPerStage(), VariableCycle: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := verify.Run(without, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v.Prim, "VC REG") {
			found = true
		}
	}
	if !found {
		t.Fatalf("pessimistic pass should flag the variable-cycle register: %v", res.Violations)
	}

	with, _, err := Generate(Config{Chips: ChipsPerStage(), VariableCycle: true, Cases: 2})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := verify.Run(with, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Errors() {
		t.Errorf("case analysis should close the variable-cycle timing: %v", res2.Violations)
	}
	if len(res2.Cases) != 2 {
		t.Errorf("cases = %d", len(res2.Cases))
	}
}
