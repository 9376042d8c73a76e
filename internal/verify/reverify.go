package verify

import (
	"context"
	"fmt"
	"sync"
	"time"

	"scaldtv/internal/eval"
	"scaldtv/internal/netlist"
	"scaldtv/internal/serr"
	"scaldtv/internal/tape"
	"scaldtv/internal/values"
)

// Verifier is a stateful verification session built for edit → re-verify
// workloads: after a full Verify it retains every case's converged
// waveforms (plus the per-site constraint outcomes and the shared
// waveform interner and evaluation memo), so a Reverify after a
// parameter edit resumes each case's event-driven relaxation from the
// previous fixed point instead of from the §2.9 initial values.
//
// Only the edited sites are seeded onto the worklist: re-evaluation
// propagates forward through the fanout index exactly as far as computed
// waveforms actually change, then stops — on register-bounded designs a
// single-instance edit converges after a handful of evaluations, because
// the storage elements downstream absorb small timing shifts.  Because
// the relaxation is a confluent fixed-point iteration (the property the
// sequential case schedule of §2.7 already depends on), the resumed pass
// lands on the same fixed point as a from-scratch run: violations,
// margins, kept waveforms and the cross-reference are bit-identical,
// for any Workers setting.
//
// A Verifier is not safe for concurrent use; case-level parallelism
// happens inside Verify and Reverify per Options.Workers.
type Verifier struct {
	d    *netlist.Design
	opts Options
	// ref selects the Reference engine for a one-shot run: FIFO
	// relaxation over eval.PrimA with no compiled program.
	ref bool

	cases   []netlist.Case
	perCase []*verifier // converged state per case, in declared order
	res     *Result     // last merged result

	// statMargins marks margins collected only for a delay-model
	// post-pass (Options.Delays), to be stripped from the result the
	// caller sees.
	statMargins bool

	// Analytic mode pins the design at one parameter point before the
	// first run; pinVals is that point and pinned records that V.d is
	// already the pinned clone.
	pinVals []float64
	pinned  bool
}

// NewVerifier prepares a verification session for the design.  Nothing is
// evaluated until Verify is called.
func NewVerifier(d *netlist.Design, opts Options) *Verifier {
	return &Verifier{d: d, opts: opts}
}

// Design returns the design the session currently verifies.
func (V *Verifier) Design() *netlist.Design { return V.d }

// Result returns the most recent verification result, or nil before the
// first Verify.
func (V *Verifier) Result() *Result { return V.res }

// Verify runs a full verification and retains the converged state for
// later Reverify calls.
func (V *Verifier) Verify() (*Result, error) { return V.run(context.Background(), true) }

// VerifyContext is Verify with cooperative cancellation.  A canceled run
// returns a structured error of kind serr.Canceled and retains no state,
// so the next Verify or Reverify starts from scratch — cancellation can
// abort a run but never corrupt the session.
func (V *Verifier) VerifyContext(ctx context.Context) (*Result, error) {
	return V.run(ctx, true)
}

// run is the full-verification engine behind both the package-level Run
// (retain=false) and Verifier.Verify (retain=true).
func (V *Verifier) run(ctx context.Context, retain bool) (*Result, error) {
	d := V.d
	if !IsWorstCase(V.opts.Delays) && !V.opts.Margins {
		// The statistical and analytic post-passes read every constraint
		// outcome, so collect margins internally and strip them before
		// returning.
		V.opts.Margins = true
		V.statMargins = true
	}
	if am, ok := V.opts.analytic(); ok && !V.pinned {
		// Analytic mode: resolve the parameter point θ0 (declared
		// defaults plus the model's overrides) and pin the design there.
		// The relaxation then runs on plain constant delays; the symbolic
		// surface is rebuilt by fillMarginSurface after the merge.
		vals, err := d.ParamValues(am.Params)
		if err != nil {
			return nil, serr.Wrap(serr.Elaborate, err)
		}
		d = d.PinParams(vals)
		V.d, V.pinVals, V.pinned = d, vals, true
	}
	var prog *tape.Program
	var compileTime time.Duration
	if V.ref {
		if err := d.Check(); err != nil {
			return nil, serr.Wrap(serr.Elaborate, err)
		}
	} else {
		// Obtain the design's compiled program (validating the structure
		// on a cold compile) and refresh its numeric parameters and seed
		// image.
		compileStart := time.Now()
		var err error
		if prog, err = tape.For(d); err != nil {
			return nil, err
		}
		if err := prog.Refresh(d); err != nil {
			return nil, err
		}
		compileTime = time.Since(compileStart)
	}
	V.perCase, V.res = nil, nil
	buildStart := time.Now()
	v, res, err := initVerifier(d, V.opts, prog)
	if err != nil {
		return nil, err
	}
	v.ctx = ctx
	res.Stats.BuildTime = time.Since(buildStart)
	res.Stats.TapeCompileTime = compileTime

	// The case list: an empty design-case list means a single unmapped
	// cycle.
	cases := d.Cases
	if len(cases) == 0 {
		cases = []netlist.Case{{Label: ""}}
	}
	workers := V.opts.workers(len(cases))

	perCase := make([]*verifier, len(cases))
	wallStart := time.Now()
	outs := make([]caseOutcome, len(cases))
	if workers == 1 {
		// Sequential schedule: the first case relaxes the whole circuit,
		// every later case reevaluates only its affected cone (§2.7).
		// With retention on, each case's converged state is snapshotted
		// before the shared verifier moves on.
		for ci := range cases {
			if retain {
				v.sites = make([]siteChecks, len(d.Prims))
			}
			outs[ci] = v.runCase(cases[ci], ci == 0)
			if outs[ci].err != nil {
				break
			}
			if retain {
				snap := v.snapshot()
				snap.sites, v.sites = v.sites, nil
				perCase[ci] = snap
			}
		}
	} else {
		// Concurrent schedule: each case is an independent relaxation to
		// fixed point from a clone of the initialised snapshot, on a
		// bounded worker pool.  Results land in the slot of their case
		// index, so the merge below is in declared case order no matter
		// which worker finishes first.  The clone that ran a case holds
		// its converged state and is retained directly.
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ci := range jobs {
					cv := v.clone()
					if retain {
						cv.sites = make([]siteChecks, len(d.Prims))
					}
					outs[ci] = cv.runCase(cases[ci], true)
					if retain {
						perCase[ci] = cv
					} else if outs[ci].err == nil {
						cv.releaseRunState()
					}
				}
			}()
		}
		for ci := range cases {
			jobs <- ci
		}
		close(jobs)
		wg.Wait()
	}

	// Merge in declared case order: the ordering contract on
	// Result.Violations and Result.Margins.
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		res.Cases = append(res.Cases, o.cr)
		res.Violations = append(res.Violations, o.cr.Violations...)
		res.Margins = append(res.Margins, o.margins...)
		res.Stats.Events += o.cr.Events
		res.Stats.PrimEvals += o.cr.PrimEvals
		res.Stats.VerifyTime += o.verifyTime
		res.Stats.CheckTime += o.checkTime
		res.Stats.Sweeps += o.sweeps
	}
	res.Stats.Cases = len(res.Cases)
	res.Stats.Workers = workers
	res.Stats.WallTime = time.Since(wallStart)
	if prog != nil {
		progStats(prog, &res.Stats)
	}
	if sm, ok := V.opts.statistical(); ok {
		V.fillSiteProbs(res, sm.Grid)
	}
	if _, ok := V.opts.analytic(); ok {
		V.fillMarginSurface(res, V.pinVals)
	}
	if V.statMargins {
		res.Margins = nil
	}
	if retain {
		V.cases, V.perCase, V.res = cases, perCase, res
	} else {
		// One-shot run: the per-run tables go back to the program's pool
		// for the next run to adopt.  Nothing in res references them.
		v.releaseRunState()
	}
	return res, nil
}

// Reverify re-verifies the design after the parameter edits named in ch
// have been applied to it (in place, or via Update).  It resumes every
// case from its retained fixed point, re-seeding the dirtied nets,
// enqueueing the dirtied instances plus the consumers of dirtied nets,
// and relaxing until the waveforms stop moving; constraint sites whose
// inputs never moved replay their memoized outcome.  The result is
// bit-identical to a from-scratch Verify of the edited design.
//
// Edits beyond Reverify's reach — structural rewires, assertion kind
// changes, anything netlist.Diff refuses — must go through Update or a
// fresh Verify.  Without retained state (or after a run that failed to
// converge, whose retained waveforms are not a fixed point) Reverify
// transparently falls back to a full Verify.
func (V *Verifier) Reverify(ch netlist.Changes) (*Result, error) {
	return V.ReverifyContext(context.Background(), ch)
}

// ReverifyContext is Reverify with cooperative cancellation.  A canceled
// re-verification returns a structured error of kind serr.Canceled and
// drops the retained state — the resumed relaxation had already moved
// some cases off their fixed point — so the next Reverify transparently
// falls back to a full Verify and stays bit-identical to a from-scratch
// run of the edited design.
func (V *Verifier) ReverifyContext(ctx context.Context, ch netlist.Changes) (*Result, error) {
	if V.perCase == nil || V.res == nil {
		return V.VerifyContext(ctx)
	}
	for _, viol := range V.res.Violations {
		if viol.Kind == ConvergenceViolation {
			return V.VerifyContext(ctx)
		}
	}
	d := V.d
	// The structure was validated by the full run that produced the
	// retained state, and parameter edits cannot invalidate it, so only
	// the dirty sites need checking — a full d.Check() here would cost
	// more than the reverification itself on local edits.
	if err := d.CheckSites(ch); err != nil {
		return nil, serr.Wrap(serr.Elaborate, err)
	}
	// The edit invalidates the warm slot table — its variants were
	// captured under the old parameters — but re-hashing the whole
	// environment (Refresh) is O(design) and would dwarf a small-edit
	// reverification, so the retained case verifiers simply adopt a fresh
	// empty table and relearn from the keyed memo, whose exact keys carry
	// every live parameter and need no invalidation.  The program's own
	// generation state is left stale on purpose: the next full run's
	// Refresh re-validates it against the live design.
	slots := tape.NewSlotTable(len(d.Prims))
	for _, rc := range V.perCase {
		rc.slots = slots
	}

	buildStart := time.Now()
	// Recompute the seed waveforms of dirtied nets — validating first,
	// committing after, so a bad edit cannot leave the retained state
	// half-updated.  The initial table is shared by every retained case
	// verifier, so one commit serves them all.
	tmpl := V.perCase[0]
	type seedUpdate struct {
		id netlist.NetID
		w  values.Waveform
	}
	var seeds []seedUpdate
	for _, id := range ch.Nets {
		w, pinned, _, err := tmpl.seedWave(id)
		if err != nil {
			return nil, err
		}
		if pinned != tmpl.pinned[id] {
			// Re-pinning is a structural change netlist.Diff never
			// produces; a direct caller gets the full-run fallback.
			return V.VerifyContext(ctx)
		}
		seeds = append(seeds, seedUpdate{id, w})
	}
	if len(seeds) > 0 && tmpl.initialShared {
		// The initial table aliases the compiled program's immutable seed
		// image; copy before committing, re-pointing every retained case
		// verifier so one commit keeps serving them all.
		ni := append([]values.Waveform(nil), tmpl.initial...)
		for _, rc := range V.perCase {
			rc.initial = ni
			rc.initialShared = false
		}
	}
	for _, s := range seeds {
		tmpl.initial[s.id] = s.w
	}
	dirtyPrim := make([]bool, len(d.Prims))
	for _, pi := range ch.Prims {
		dirtyPrim[pi] = true
	}
	cone := d.ForwardCone(ch)

	res := &Result{Design: d, Undefined: V.res.Undefined}
	res.Stats.Primitives = len(d.Prims)
	res.Stats.Nets = len(d.Nets)
	res.Stats.BuildTime = time.Since(buildStart)
	res.Stats.Incremental = true
	res.Stats.DirtyPrims = cone.PrimCount
	res.Stats.DirtyNets = cone.NetCount

	workers := V.opts.workers(len(V.cases))
	wallStart := time.Now()
	outs := make([]caseOutcome, len(V.cases))
	for _, rc := range V.perCase {
		rc.ctx = ctx
	}
	if workers == 1 {
		for ci := range V.cases {
			outs[ci] = V.perCase[ci].reverifyCase(V.cases[ci], ch, dirtyPrim)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ci := range jobs {
					outs[ci] = V.perCase[ci].reverifyCase(V.cases[ci], ch, dirtyPrim)
				}
			}()
		}
		for ci := range V.cases {
			jobs <- ci
		}
		close(jobs)
		wg.Wait()
	}

	for _, o := range outs {
		if o.err != nil {
			// An aborted case left its retained verifier somewhere between
			// the old and the new fixed point.  Drop all retained state:
			// the next call falls back to a full Verify, which is by
			// construction bit-identical to a from-scratch run.
			V.perCase, V.res = nil, nil
			return nil, o.err
		}
		res.Cases = append(res.Cases, o.cr)
		res.Violations = append(res.Violations, o.cr.Violations...)
		res.Margins = append(res.Margins, o.margins...)
		res.Stats.Events += o.cr.Events
		res.Stats.PrimEvals += o.cr.PrimEvals
		res.Stats.VerifyTime += o.verifyTime
		res.Stats.CheckTime += o.checkTime
		res.Stats.ReusedWaves += o.reused
		res.Stats.Sweeps += o.sweeps
	}
	res.Stats.Cases = len(res.Cases)
	res.Stats.Workers = workers
	res.Stats.WallTime = time.Since(wallStart)
	res.Stats.ReverifyTime = time.Since(buildStart)
	progStats(V.perCase[0].prog, &res.Stats)
	if sm, ok := V.opts.statistical(); ok {
		V.fillSiteProbs(res, sm.Grid)
	}
	if _, ok := V.opts.analytic(); ok {
		V.fillMarginSurface(res, V.pinVals)
	}
	if V.statMargins {
		res.Margins = nil
	}
	V.res = res
	return res, nil
}

// Update adopts an edited design: when it differs from the current one
// only in parameters (netlist.Diff agrees) the delta is re-verified
// incrementally and incremental reports true; otherwise the session
// rebuilds and runs a full verification.  The new design must have its
// fanout index built (Builder.Build, Compile and RebuildFanout all do).
func (V *Verifier) Update(nd *netlist.Design) (res *Result, incremental bool, err error) {
	return V.UpdateContext(context.Background(), nd)
}

// UpdateContext is Update with cooperative cancellation, with the same
// abort-don't-corrupt contract as ReverifyContext.
func (V *Verifier) UpdateContext(ctx context.Context, nd *netlist.Design) (res *Result, incremental bool, err error) {
	if nd == nil {
		return nil, false, fmt.Errorf("verify: Update with nil design")
	}
	if am, ok := V.opts.analytic(); ok {
		// Re-pin the edited design at the session's parameter point so
		// the diff compares — and the relaxation runs on — the same
		// constant-delay view as the retained state.
		vals, err := nd.ParamValues(am.Params)
		if err != nil {
			return nil, false, serr.Wrap(serr.Elaborate, err)
		}
		nd = nd.PinParams(vals)
		V.pinVals, V.pinned = vals, true
	}
	ch, ok := netlist.Diff(V.d, nd)
	if !ok || V.perCase == nil {
		V.d = nd
		V.perCase, V.res = nil, nil
		res, err = V.VerifyContext(ctx)
		return res, false, err
	}
	V.d = nd
	for _, rc := range V.perCase {
		rc.d = nd
	}
	// The compiled program is structure-derived and Diff guarantees the
	// structures match, so the edited design adopts it — its warm memo
	// tables included.  Stale numeric parameters are caught by Refresh on
	// the next full run; the memo keys carry every live parameter, so no
	// entry needs invalidating, and evaluation reads each primitive's
	// current kind (tape.Eval), so a same-shape gate swap is safe too.
	nd.StoreEngineCache(V.perCase[0].prog)
	res, err = V.ReverifyContext(ctx, ch)
	return res, err == nil, err
}

// reverifyCase resumes one case's relaxation from its retained fixed
// point: re-seed the dirtied nets under the case mapping, enqueue the
// dirtied instances and the consumers of dirtied nets, relax until the
// waveforms stop moving, then recheck with the per-site memo.
func (v *verifier) reverifyCase(c netlist.Case, ch netlist.Changes, dirtyPrim []bool) caseOutcome {
	verifyStart := time.Now()
	v.events, v.evals, v.sweeps = 0, 0, 0
	if v.changed == nil {
		v.changed = make([]bool, len(v.d.Nets))
	} else {
		for i := range v.changed {
			v.changed[i] = false
		}
	}
	for _, id := range ch.Nets {
		n := &v.d.Nets[id]
		// A dirtied net's consumers see it through a possibly-edited wire
		// delay, so they re-evaluate — and its constraint readers re-check
		// — even when the stored waveform is unchanged.
		v.changed[id] = true
		if n.Driver == netlist.NoDriver || v.pinned[id] {
			w := v.mapped(id, v.initial[id])
			if v.storeSig(id, eval.Signal{Wave: w, Dirs: v.sigs[id].Dirs}) {
				v.events++
			}
		}
		v.fanout(id)
	}
	for _, pi := range ch.Prims {
		v.enqueue(pi) // enqueue ignores checker primitives itself
	}
	conv := v.relax()
	if v.aborted != nil {
		err := v.aborted
		v.aborted = nil
		return caseOutcome{err: err}
	}
	out := caseOutcome{verifyTime: time.Since(verifyStart), sweeps: v.sweeps}

	checkStart := time.Now()
	cr := CaseResult{Label: c.Label, Events: v.events, PrimEvals: v.evals}
	if !conv {
		cr.Violations = append(cr.Violations, Violation{
			Kind:   ConvergenceViolation,
			Case:   c.Label,
			Detail: fmt.Sprintf("fixed point not reached within %d primitive evaluations", v.passCap()),
		})
	}
	cr.Violations = append(cr.Violations, v.recheck(c.Label, dirtyPrim)...)
	if v.opts.Margins {
		out.margins = v.margins
		v.margins = nil
	}
	if v.opts.KeepWaves {
		cr.Waves = make([]values.Waveform, len(v.sigs))
		for i, s := range v.sigs {
			cr.Waves[i] = s.Wave
		}
	}
	for _, moved := range v.changed {
		if !moved {
			out.reused++
		}
	}
	out.checkTime = time.Since(checkStart)
	out.cr = cr
	return out
}
