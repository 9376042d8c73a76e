// Levelized wavefront relaxation: the compiled tape's execution loop.
//
// Reference drains one FIFO worklist (§2.9).  The tape relaxes the same
// seed over the program's levelization (netlist.Levelization): the
// primitive graph condensed into strongly connected components with
// sequential edges cut, combinational components assigned topological
// levels.  A sweep walks the levels in ascending order, evaluating each
// level's pending components, then runs the sequential components (those
// containing storage).  Stores made by a combinational component schedule
// consumers at strictly higher levels, later in the same sweep; stores
// made in the sequential phase schedule their cross-component consumers
// for the NEXT sweep.  Sweeps repeat until nothing is pending.
//
// The relaxation is a confluent fixed-point iteration, so the converged
// waveforms — and every reported result — equal Reference's; only the
// Events, PrimEvals and Sweeps work counters reflect the schedule.
package verify

import "scaldtv/internal/netlist"

// runComp evaluates one component's pending members, appending every net
// whose stored signal changed (with repeats, for feedback components that
// move a net more than once) to the scratch's changed list.  Non-feedback
// components hold a single primitive with no self-loop: one evaluation
// suffices, because any input change from this very evaluation would be a
// cycle.  Feedback components iterate a scoped worklist — fanout is
// followed only to members of the same component — toward a local fixed
// point, but only within a small per-sweep budget: a loop whose inputs are
// still settling (its driving storage runs in the sequential phase,
// between sweeps) must not burn the whole evaluation budget chasing a
// moving target, the way the FIFO naturally interleaves loop iteration
// with the rest of the circuit.  Members still pending when the budget
// runs out stay marked and runComp reports again=true, so the caller
// reschedules the component for the next sweep; only the global pass cap
// declares non-convergence.
func (v *verifier) runComp(ci int32, pending []bool, lev *netlist.Levelization) (again bool) {
	sc := v.sc()
	c := &lev.Comps[ci]
	if !c.Feedback {
		for _, m := range c.Members {
			if !pending[m] {
				continue
			}
			pending[m] = false
			v.evals++
			sc.changed = v.evalPrim(m, sc.changed)
		}
		return false
	}

	budget := defaultEvalsPerPrim * len(c.Members)
	evals := 0
	queue := make([]netlist.PrimID, 0, len(c.Members))
	inQ := make(map[netlist.PrimID]bool, len(c.Members))
	for _, m := range c.Members {
		if pending[m] {
			pending[m] = false
			queue = append(queue, m)
			inQ[m] = true
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		if evals >= budget {
			// Out of budget this sweep: hand the unprocessed tail back to
			// the pending set and ask for another sweep.
			for _, m := range queue[qi:] {
				if inQ[m] {
					pending[m] = true
				}
			}
			return true
		}
		m := queue[qi]
		inQ[m] = false
		evals++
		v.evals++
		n := len(sc.changed)
		sc.changed = v.evalPrim(m, sc.changed)
		for _, id := range sc.changed[n:] {
			for _, q := range v.d.Nets[id].Fanout {
				if lev.Comp[q] != ci || inQ[q] {
					continue
				}
				inQ[q] = true
				queue = append(queue, q)
			}
		}
	}
	return false
}

// wavefrontRelax converges the seeded worklist by levelized sweeps.  It
// reports whether the fixed point was reached within the pass cap, which
// is checked after each level and after each sequential component; the
// context is polled before each sweep and after each level.
func (v *verifier) wavefrontRelax() bool {
	lev := v.prog.Lev
	sc := v.sc()
	capN := v.passCap()

	// Drain the seeded FIFO into wavefront marks: pending per primitive,
	// plus a dirty flag per component routing it to the levels or the
	// sequential phase.
	pending := make([]bool, len(v.d.Prims))
	compPending := make([]bool, len(lev.Comps))
	seqPending := make([]bool, len(lev.Comps))
	seqNext := make([]bool, len(lev.Comps))
	// schedule marks component ci pending: a sequential component in
	// seqDst, a combinational one in compPending.
	schedule := func(ci int32, seqDst []bool) {
		if lev.Comps[ci].Seq {
			seqDst[ci] = true
		} else {
			compPending[ci] = true
		}
	}
	for v.queueLen() > 0 {
		p := v.popQueue()
		v.inQueue[p] = false
		if ci := lev.Comp[p]; ci >= 0 {
			pending[p] = true
			schedule(ci, seqPending)
		}
	}

	// run relaxes one component and schedules every cross-component
	// consumer of the nets it moved, plus the component itself when a
	// feedback loop ran out of budget.  Sequential consumers go to seqDst
	// — this sweep's sequential phase from a level, the next sweep from
	// the sequential phase.  Combinational consumers sit at a strictly
	// higher level, so from a level they run later this sweep, and from
	// the sequential phase the mark survives into the next sweep.
	run := func(ci int32, seqDst []bool) {
		if v.runComp(ci, pending, lev) {
			schedule(ci, seqDst)
		}
		v.events += len(sc.changed)
		for _, id := range sc.changed {
			for _, q := range v.d.Nets[id].Fanout {
				if cq := lev.Comp[q]; cq >= 0 && cq != ci {
					pending[q] = true
					schedule(cq, seqDst)
				}
			}
		}
		sc.changed = sc.changed[:0]
	}
	dirty := func() bool {
		for i := range compPending {
			if compPending[i] || seqPending[i] {
				return true
			}
		}
		return false
	}

	for dirty() {
		if err := v.ctxCheck(); err != nil {
			return false
		}
		v.sweeps++
		for _, level := range lev.Levels {
			ran := false
			for _, ci := range level {
				if compPending[ci] {
					compPending[ci] = false
					ran = true
					run(ci, seqPending)
				}
			}
			if !ran {
				continue
			}
			if v.evals >= capN {
				return false
			}
			if err := v.ctxCheck(); err != nil {
				return false
			}
		}
		for _, ci := range lev.Seq {
			if !seqPending[ci] {
				continue
			}
			seqPending[ci] = false
			run(ci, seqNext)
			if v.evals >= capN {
				return false
			}
		}
		seqPending, seqNext = seqNext, seqPending
	}
	return true
}
