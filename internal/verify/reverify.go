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
// case chain of §2.7 already depends on), the resumed pass
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
	// relaxation over eval.Prim with no compiled program.
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

// setup resolves the session's effective options and design; run calls
// it before every full run.  A non-worst-case delay model collects
// margins for its post-pass (delayModelPass strips them again), and the
// analytic model pins the design at its parameter point.  Repeated calls
// change nothing.
func (V *Verifier) setup() error {
	if !IsWorstCase(V.opts.Delays) && !V.opts.Margins {
		// The statistical and analytic post-passes read every constraint
		// outcome, so collect margins internally and strip them before
		// returning.
		V.opts.Margins = true
		V.statMargins = true
	}
	if V.pinned {
		return nil
	}
	d, err := V.pin(V.d)
	if err != nil {
		return err
	}
	V.d = d
	return nil
}

// pin returns d pinned at the analytic model's parameter point θ0
// (declared defaults plus the model's overrides) and records that point;
// under any other model it returns d.  The relaxation then runs on plain
// constant delays; the symbolic surface is rebuilt by fillMarginSurface
// after the merge.
func (V *Verifier) pin(d *netlist.Design) (*netlist.Design, error) {
	am, ok := V.opts.analytic()
	if !ok {
		return d, nil
	}
	vals, err := d.ParamValues(am.Params)
	if err != nil {
		return nil, serr.Wrap(serr.Elaborate, err)
	}
	V.pinVals, V.pinned = vals, true
	return d.PinParams(vals), nil
}

// caseList returns the design's cases; an empty design-case list means a
// single unmapped cycle.
func caseList(d *netlist.Design) []netlist.Case {
	if len(d.Cases) == 0 {
		return []netlist.Case{{Label: ""}}
	}
	return d.Cases
}

// CaseRanges splits n cases into min(k, n) contiguous half-open ranges
// [lo, hi) that cover [0, n) in declared order; the first n%k ranges are
// one case longer.  A k below 1 counts as 1.  The case schedule runs one
// range per worker and the cluster one per partition, so a case range
// means the same thing in and out of process.
func CaseRanges(n, k int) [][2]int {
	k = max(1, min(k, n))
	ranges := make([][2]int, 0, k)
	for lo, i := 0, 0; lo < n; i++ {
		hi := lo + n/k
		if i < n%k {
			hi++
		}
		ranges = append(ranges, [2]int{lo, hi})
		lo = hi
	}
	return ranges
}

// runRanges runs job over each range's cases in order, stopping a range
// at its first error, and returns the outcomes in declared case order.  A
// single range runs on the calling goroutine; otherwise each range runs
// on its own.  job receives the range index and the case index.
func runRanges(ranges [][2]int, nCases int, job func(r, ci int) caseOutcome) []caseOutcome {
	outs := make([]caseOutcome, nCases)
	chain := func(r int) {
		for ci := ranges[r][0]; ci < ranges[r][1]; ci++ {
			if outs[ci] = job(r, ci); outs[ci].err != nil {
				return
			}
		}
	}
	if len(ranges) == 1 {
		chain(0)
		return outs
	}
	var wg sync.WaitGroup
	for r := range ranges {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chain(r)
		}()
	}
	wg.Wait()
	return outs
}

// finish merges per-case outcomes into res in declared case order — the
// ordering contract on Result.Violations and Result.Margins — records
// the run's counters and runs the delay-model post-pass.  Full runs and
// resumed runs both end here, so a resumed run reports exactly what a
// from-scratch run of its design reports.  prog is nil for the Reference
// engine.
func (V *Verifier) finish(res *Result, outs []caseOutcome, workers int, wallStart time.Time, prog *tape.Program) error {
	for _, o := range outs {
		if o.err != nil {
			return o.err
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
	if prog != nil {
		progStats(prog, &res.Stats)
	}
	return V.delayModelPass(res)
}

// run is the full-verification engine behind both the package-level Run
// (retain=false) and Verifier.Verify (retain=true).
func (V *Verifier) run(ctx context.Context, retain bool) (*Result, error) {
	if err := V.setup(); err != nil {
		return nil, err
	}
	d := V.d
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

	// The case schedule (§2.7): each range is one chain whose first case
	// relaxes the whole circuit and whose later cases reevaluate only
	// their affected cone.  Range 0 runs on the initialised verifier, every
	// other range on a clone of it taken before any range starts.  With
	// retention on, each case's converged state is snapshotted before the
	// chain moves on, and a range's last case keeps the chain's verifier.
	wallStart := time.Now()
	cases := caseList(d)
	ranges := CaseRanges(len(cases), V.opts.workers())
	chains := make([]*verifier, len(ranges))
	chains[0] = v
	for r := 1; r < len(ranges); r++ {
		chains[r] = v.clone()
	}
	perCase := make([]*verifier, len(cases))
	outs := runRanges(ranges, len(cases), func(r, ci int) caseOutcome {
		cv := chains[r]
		if retain {
			cv.sites = make([]siteChecks, len(d.Prims))
		}
		o := cv.runCase(cases[ci], ci == ranges[r][0])
		if retain && o.err == nil {
			if ci == ranges[r][1]-1 {
				perCase[ci] = cv
			} else {
				snap := cv.snapshot()
				snap.sites, cv.sites = cv.sites, nil
				perCase[ci] = snap
			}
		}
		return o
	})
	if err := V.finish(res, outs, len(ranges), wallStart, prog); err != nil {
		return nil, err
	}
	if retain {
		V.cases, V.perCase, V.res = cases, perCase, res
	} else {
		// One-shot run: the per-run tables go back to the program's pool
		// for the next run to adopt.  Nothing in res references them.
		for _, cv := range chains {
			cv.releaseRunState()
		}
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
	if V.perCase == nil || V.res == nil || !V.res.Converged() {
		return V.VerifyContext(ctx)
	}
	d := V.d
	// The structure was validated by the full run that produced the
	// retained state, and parameter edits cannot invalidate it, so only
	// the dirty sites need checking — a full d.Check() here would cost
	// more than the reverification itself on local edits.
	if err := d.CheckSites(ch); err != nil {
		return nil, serr.Wrap(serr.Elaborate, err)
	}
	// The memo and site keys carry every live parameter, so the edit needs
	// no invalidation.  The program's seed image is left stale on purpose
	// (re-hashing it is O(design) and would dwarf a small-edit
	// reverification): the retained verifiers re-seed dirtied nets below,
	// and the next full run's Refresh re-validates the image.

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

	ranges := CaseRanges(len(V.cases), V.opts.workers())
	for _, rc := range V.perCase {
		rc.ctx = ctx
	}
	wallStart := time.Now()
	outs := runRanges(ranges, len(V.cases), func(_, ci int) caseOutcome {
		return V.perCase[ci].reverifyCase(V.cases[ci], ch, dirtyPrim)
	})
	if err := V.finish(res, outs, len(ranges), wallStart, tmpl.prog); err != nil {
		// An aborted case left its retained verifier somewhere between the
		// old and the new fixed point, and a refused delay-model pass left
		// the retained result stale.  Drop all retained state: the next
		// call falls back to a full Verify, which is by construction
		// bit-identical to a from-scratch run.
		V.perCase, V.res = nil, nil
		return nil, err
	}
	res.Stats.ReverifyTime = time.Since(buildStart)
	V.res = res
	return res, nil
}

// delayModelPass runs the Options.Delays post-pass over a merged result:
// statistical mode prices the margins, analytic mode builds the margin
// surface, and margins collected only for the pass are stripped.
func (V *Verifier) delayModelPass(res *Result) error {
	if sm, ok := V.opts.statistical(); ok {
		if err := V.fillSiteProbs(res, sm.Grid); err != nil {
			return err
		}
	}
	if _, ok := V.opts.analytic(); ok {
		V.fillMarginSurface(res, V.pinVals)
	}
	if V.statMargins {
		res.Margins = nil
	}
	return nil
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
	// Re-pin the edited design at the session's parameter point so the
	// diff compares — and the relaxation runs on — the same constant-delay
	// view as the retained state.
	if nd, err = V.pin(nd); err != nil {
		return nil, false, err
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
	// entry needs invalidating, and evaluation (eval.Prim) dispatches on
	// each primitive's current kind, so a same-shape gate swap is safe too.
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
	for _, moved := range v.changed {
		if !moved {
			out.reused++
		}
	}
	v.closeCase(&out, c.Label, conv, func(label string) []Violation {
		return v.recheck(label, dirtyPrim)
	})
	return out
}
