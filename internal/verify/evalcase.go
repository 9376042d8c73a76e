package verify

import (
	"fmt"

	"scaldtv/internal/netlist"
)

// EvalCase evaluates one extra case-analysis cycle against the session's
// retained converged state without disturbing it: a snapshot of the first
// retained case resumes from its fixed point and relaxes only the cone
// affected by the case mapping (§2.7), on the compiled tape.  This is the
// probe primitive of the case-exploration
// engine (internal/explore): each candidate S→0/1 split costs one
// incremental relaxation instead of a full verification.
//
// The session must hold retained state from a converged Verify; a session
// whose last run failed to converge (or never ran) returns an error, as
// resuming from a non-fixed-point would not be a valid incremental base.
// The retained state itself is never mutated, so EvalCase may be called
// any number of times and interleaved with Reverify.
func (V *Verifier) EvalCase(c netlist.Case) (CaseResult, error) {
	if len(V.perCase) == 0 || V.perCase[0] == nil || V.res == nil {
		return CaseResult{}, fmt.Errorf("verify: EvalCase without retained state (run Verify first)")
	}
	for _, viol := range V.res.Violations {
		if viol.Kind == ConvergenceViolation {
			return CaseResult{}, fmt.Errorf("verify: EvalCase on a run that did not converge")
		}
	}
	w := V.perCase[0].snapshot()
	out := w.runCase(c, false)
	if out.err != nil {
		return CaseResult{}, out.err
	}
	w.releaseRunState()
	return out.cr, nil
}
