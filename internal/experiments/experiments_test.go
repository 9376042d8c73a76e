package experiments

import (
	"testing"

	"scaldtv/internal/tick"
)

func ns(f float64) tick.Time { return tick.FromNS(f) }

func TestRunScaleSmall(t *testing.T) {
	r, err := RunScale(3*17, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stages != 3 || r.Chips != 51 {
		t.Errorf("scale wrong: %+v", r)
	}
	if r.Violations != 0 {
		t.Errorf("generated design not clean: %d violations", r.Violations)
	}
	if r.Table31.Primitives == 0 || r.Table31.Events == 0 {
		t.Errorf("table 3-1 counters empty: %+v", r.Table31)
	}
	if r.Table31.Read <= 0 || r.Table31.Pass2 <= 0 || r.Table31.VerifyTime <= 0 {
		t.Errorf("phase times missing: %+v", r.Table31)
	}
	if r.Storage.Total() <= 0 || r.Storage.ValueLists == 0 {
		t.Errorf("storage model empty: %+v", r.Storage)
	}
	if r.Report.AvgWidth() <= 1 {
		t.Errorf("vectorisation missing: %+v", r.Report)
	}
	if r.Undefined == 0 {
		t.Error("cross-reference listing should have the spare input")
	}
}

func TestRunCaseIncrement(t *testing.T) {
	r, err := RunCaseIncrement(2 * 17)
	if err != nil {
		t.Fatal(err)
	}
	if r.SecondEvals >= r.FirstEvals {
		t.Errorf("second case evals %d >= first %d: not incremental", r.SecondEvals, r.FirstEvals)
	}
	if r.SecondEvents == 0 {
		t.Error("second case should still process events")
	}
}

func TestRunExponentialAgreementAndGrowth(t *testing.T) {
	pts, err := RunExponential([]int{3, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		want := tick.Time(2*(p.N-1)) * tick.NS
		if p.SimWorst != want {
			t.Errorf("n=%d: simulation worst %v, want %v", p.N, p.SimWorst, want)
		}
		if p.TVWorst != want {
			t.Errorf("n=%d: verifier worst %v, want %v", p.N, p.TVWorst, want)
		}
	}
	// Exponential vs roughly-linear cost: cycle counts grow 4× per two
	// inputs; verifier events grow only with the gate count.
	if pts[1].SimCycles != 4*pts[0].SimCycles || pts[2].SimCycles != 4*pts[1].SimCycles {
		t.Errorf("sim cycles %d %d %d: expected 4× growth", pts[0].SimCycles, pts[1].SimCycles, pts[2].SimCycles)
	}
	if pts[2].TVEvents > pts[0].TVEvents*8 {
		t.Errorf("verifier events grew too fast: %d → %d", pts[0].TVEvents, pts[2].TVEvents)
	}
}

func TestRunPathSearchClaim(t *testing.T) {
	r, err := RunPathSearchClaim()
	if err != nil {
		t.Fatal(err)
	}
	if r.PathSearchMax != ns(40) {
		t.Errorf("path search max = %v, want the spurious 40 ns", r.PathSearchMax)
	}
	if r.PathSearchFlags == 0 {
		t.Error("path search should flag the spurious error at a 35 ns budget")
	}
	if r.TVPessimistic != ns(40) {
		t.Errorf("verifier without cases = %v, want 40 ns (same pessimism)", r.TVPessimistic)
	}
	if r.TVCaseDelay != ns(30) {
		t.Errorf("verifier with cases = %v, want the true 30 ns", r.TVCaseDelay)
	}
	if r.TVCaseFlags != 0 {
		t.Errorf("verifier with cases should be clean, got %d flags", r.TVCaseFlags)
	}
}

func TestRunSkewDemo(t *testing.T) {
	d := RunSkewDemo()
	if d.CarriedMin != ns(10) || d.CarriedMax != ns(10) {
		t.Errorf("carried widths %v/%v, want 10/10", d.CarriedMin, d.CarriedMax)
	}
	if d.IncorporatedMin != ns(5) || d.IncorporatedMax != ns(15) {
		t.Errorf("incorporated widths %v/%v, want 5/15", d.IncorporatedMin, d.IncorporatedMax)
	}
}
