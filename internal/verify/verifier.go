package verify

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"scaldtv/internal/assertion"
	"scaldtv/internal/eval"
	"scaldtv/internal/netlist"
	"scaldtv/internal/serr"
	"scaldtv/internal/tape"
	"scaldtv/internal/values"
)

// Options tunes the verification run.
type Options struct {
	// MaxPasses caps the number of primitive evaluations per case.  Zero
	// means the default of 50 evaluations per primitive (at least 1000).
	MaxPasses int
	// KeepWaves retains the final waveform of every net in each
	// CaseResult (needed for the timing summary listing).
	KeepWaves bool
	// Margins collects the outcome of every constraint evaluation —
	// passing or failing — so slack listings and cycle-time estimates can
	// be produced (§1.1).
	Margins bool
	// Force overrides the initial waveform of undriven nets, in place of
	// their assertion or the all-stable default.  It supports hierarchical
	// flows (driving a section with waveforms computed elsewhere) and the
	// soundness tests that compare symbolic against concrete behaviour.
	Force map[netlist.NetID]values.Waveform
	// Workers bounds the number of case ranges evaluated concurrently.
	// Zero means runtime.GOMAXPROCS(0).  The declared cases are split into
	// min(Workers, cases) contiguous ranges (CaseRanges), and each worker
	// runs a contiguous range of cases as one chain of the paper's
	// schedule: the range's first case relaxes the whole circuit, and
	// each later case reevaluates only its affected cone incrementally
	// (§2.7, §3.3.2).  Violations, margins and kept waveforms are
	// identical for every worker count.  The per-case Events/PrimEvals
	// counters are not: a case that opens a range reports a full
	// relaxation, any other case the cone it reevaluated.
	Workers int
	// Explore requests automatic case exploration: after a converged run,
	// U/C-poisoned constraint sites are discharged by searching control-
	// signal splits (the internal/explore engine, dispatched by the
	// scaldtv entry points), and the result carries an Exploration
	// report.  The verify package itself only declares the option — it
	// participates in the store fingerprint — and the report data.
	Explore bool
	// Delays selects the delay model — nil (or MinMaxDelays) for the
	// paper's worst-case interval propagation, StatisticalDelays for the
	// deterministic quadrature post-pass reporting each constraint
	// site's violation *probability* in Result.SiteProbs, AnalyticDelays
	// to pin the design's analytic delay functions at one parameter
	// point and retain the symbolic per-site margin functions in
	// Result.MarginSurface.  No RNG is involved anywhere: all three
	// models produce byte-deterministic reports.  Construct models with
	// their typed constructors (or ParseDelayModel for flag spellings);
	// the DelayWorstCase and DelayStatistical variables keep the former
	// constant spellings working.
	Delays DelayModel
}

// progStats records the compiled program's counters: the shape of the
// levelization the tape sweeps, and the persistent memo tables.  The memo
// counters are cumulative over every run that shared the program.
func progStats(prog *tape.Program, s *Stats) {
	s.Levels = len(prog.Lev.Levels)
	s.SCCs = len(prog.Lev.Comps)
	s.FeedbackSCCs = prog.Lev.Feedback
	s.CacheHits, s.CacheMisses, _ = prog.Evals.Stats()
	s.Interned, s.Deduped = prog.Intern.Stats()
}

// workers resolves the effective worker count; CaseRanges clamps it to
// the case list.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Stats aggregates the execution statistics the paper reports in
// Table 3-1.  Events, PrimEvals, VerifyTime and CheckTime are *work*
// totals summed over every case; when each worker runs a contiguous range
// of cases as one chain, the ranges run concurrently and the summed phase
// times can exceed WallTime, the elapsed wall-clock time of the whole
// case-evaluation phase.
type Stats struct {
	Primitives int // driving + checking primitive instances
	Nets       int // signal bits (value lists stored)
	Events     int // output-value changes processed, summed over all cases
	PrimEvals  int // primitive evaluations scheduled, summed over all cases
	Cases      int // case-analysis cycles simulated
	Workers    int // case ranges run, one chain per worker (CaseRanges)

	// Wavefront-scheduling counters.  Levels, SCCs and FeedbackSCCs
	// describe the levelization the tape sweeps; Sweeps counts level
	// sweeps to fixed point, summed over all cases, and is deterministic
	// for a given design, edit and Workers setting.
	Levels       int // topological levels of the condensed acyclic graph
	SCCs         int // strongly connected components (checkers excluded)
	FeedbackSCCs int // components needing local fixed-point iteration
	Sweeps       int // wavefront sweeps to fixed point, all cases

	// Evaluation-cache counters of the compiled program's persistent memo
	// tables, cumulative over every run that shared the program.  Because
	// the tables are shared, which worker takes a given miss depends on
	// scheduling, so these counters — unlike every verification result —
	// may vary between runs of a concurrent verification.
	CacheHits   int           // scheduled evaluations served from the memo cache
	CacheMisses int           // evaluations computed and stored
	Interned    int           // distinct waveforms in the interning table
	Deduped     int           // waveform stores that reused an interned copy
	BuildTime   time.Duration // building evaluation structures
	VerifyTime  time.Duration // relaxation to fixed point, summed over all cases
	CheckTime   time.Duration // constraint checking, summed over all cases
	WallTime    time.Duration // wall-clock time of the case-evaluation phase

	// Incremental re-verification counters, set only by Verifier.Reverify
	// and Verifier.Update.  DirtyPrims/DirtyNets measure the structural
	// forward cone of the edit (the upper bound on revisited work);
	// ReusedWaves counts converged waveforms carried over unchanged,
	// summed over all cases.  ReverifyTime is the wall-clock time of the
	// whole incremental pass, from seeding to the delay-model post-pass.
	Incremental  bool
	DirtyPrims   int
	DirtyNets    int
	ReusedWaves  int
	ReverifyTime time.Duration

	// TapeCompileTime is the time spent obtaining and refreshing the
	// compiled evaluation tape — near zero on warm runs, where the
	// design's engine cache already holds it.  Reported separately from
	// VerifyTime so the Table 3-1 style summary splits one-time lowering
	// from per-run relaxation.
	TapeCompileTime time.Duration

	// Case-exploration counters, set only when Options.Explore ran the
	// internal/explore engine.  ExploreCandidates counts control signals
	// ranked, ExploreProbes the incremental split evaluations spent on
	// the search (both deterministic for a given design); ExploreTime is
	// the wall-clock time of the whole exploration phase.
	ExploreCandidates int
	ExploreProbes     int
	ExploreTime       time.Duration
}

// CaseResult is the outcome of one simulated case-analysis cycle (§2.7).
type CaseResult struct {
	Label      string
	Events     int // output-value changes processed in this case
	PrimEvals  int
	Violations []Violation
	Waves      []values.Waveform // per net, when Options.KeepWaves is set
}

// Result is a complete verification outcome.
//
// Violations and Margins are deterministically ordered regardless of the
// worker count: primarily by case index (the designer's declared case
// order), then by constraint site — a case's convergence failure first,
// then the checker primitives in design order (each emitting its edges in
// cycle order), then the assertion cross-checks in net order.
type Result struct {
	Design      *netlist.Design
	Cases       []CaseResult // one per case, in declared case order
	Violations  []Violation  // all cases, ordered by (case index, constraint site)
	Margins     []Margin     // every constraint outcome, when Options.Margins is set
	Undefined   []string     // cross-reference listing: undriven nets with no assertion (§2.5)
	Exploration *Exploration // case-exploration report, when Options.Explore ran
	SiteProbs   []SiteProb   // violation probabilities, when Options.Delays is StatisticalDelays

	// MarginSurface carries the symbolic per-site margin functions of an
	// analytic-mode run (Options.Delays is AnalyticDelays): slack at any
	// parameter point in the declared box, without re-running the engine.
	MarginSurface *MarginSurface

	Stats Stats
}

// Errors reports whether any violation was detected.
func (r *Result) Errors() bool { return len(r.Violations) > 0 }

// Converged reports whether every case reached its fixed point: the
// result carries no ConvergenceViolation.
func (r *Result) Converged() bool {
	for _, v := range r.Violations {
		if v.Kind == ConvergenceViolation {
			return false
		}
	}
	return true
}

// verifier holds the relaxation state.
type verifier struct {
	d    *netlist.Design
	opts Options
	// ctx carries the run's cooperative-cancellation signal (nil means
	// context.Background()).  It is polled only at schedule-neutral
	// points — serial pass boundaries, wavefront level barriers and sweep
	// starts — so cancellation can abort a run but can never change the
	// result of one that completes: a canceled case reports an error
	// instead of a result, never a partial result.  aborted records the
	// structured cancellation error for runCase to surface.
	ctx     context.Context
	aborted error

	sigs    []eval.Signal                  // current signal per net
	initial []values.Waveform              // assertion/default seed per net
	pinned  []bool                         // nets pinned to a clock assertion (§2.9)
	caseMap map[netlist.NetID]values.Value // active case mapping (§2.7.1)
	margins []Margin

	// prog is the compiled evaluation tape; nil only on Reference runs.
	// Its persistent interner, evaluation memo and negative site cache
	// serve every evaluation and check, initial/pinned may alias its
	// precompiled seed image (initialShared; copy-on-write before
	// mutation), and relaxation sweeps its levelization.  fresh
	// marks a verifier whose sigs still equal its seeds, so the first case
	// can skip re-seeding unmapped nets.
	prog          *tape.Program
	initialShared bool
	fresh         bool

	// Computed value of pinned driven nets, for the assertion
	// cross-check, indexed by net.
	altOutW   []values.Waveform
	altOutSet []bool

	// Wired-OR support: nets with several drivers keep each driver's
	// latest output; the net's value is their OR.  wiredSlot maps each
	// (net, driver) pair to its slot in the per-verifier output tables;
	// it is built once and shared immutably across case workers.
	wired       map[netlist.NetID][]netlist.PrimID
	wiredSlot   map[[2]int32]int
	wiredOutW   []values.Waveform
	wiredOutSet []bool

	// sigID holds the interned handle of each net's current waveform (nil
	// on Reference runs).  The program's memo tables are shared by every
	// case worker; a case-forced net changes the interned handles of
	// every waveform downstream of it, so the forced cone can never be
	// served stale entries — the key, not an invalidation walk, carries
	// the dependency.
	sigID []uint64

	// scratch is the evaluation scratch (key buffer, getter closure,
	// changed-net list), created lazily by sc.
	scratch *evalScratch

	// The worklist is a queue with an explicit head index — a pop
	// advances qhead instead of re-slicing, so the backing array is
	// compacted and reused rather than pinned and regrown.
	queue   []netlist.PrimID
	qhead   int
	inQueue []bool
	events  int
	evals   int
	sweeps  int // wavefront sweeps in the current case (tape only)

	// Incremental re-verification state, used only by Verifier-retained
	// case verifiers: changed marks nets whose stored waveform (or Dirs)
	// moved during the current pass, so constraint sites reading only
	// clean nets can reuse their memoized outcome; sites holds that
	// per-primitive memo.
	changed []bool
	sites   []siteChecks
}

// siteChecks is the memoized outcome of one constraint site — a checker
// primitive, a gate's directive rules, or a storage element's
// clock-defined rule — within one case.
type siteChecks struct {
	viols   []Violation
	margins []Margin
}

// Run verifies the design and returns the result.  The design must have
// passed netlist validation (Builder.Build or Design.Check).
func Run(d *netlist.Design, opts Options) (*Result, error) {
	return RunContext(context.Background(), d, opts)
}

// RunContext is Run with cooperative cancellation: when ctx is canceled
// (or its deadline expires) the relaxation aborts at the next pass
// boundary or level barrier and the run returns a structured error of
// kind serr.Canceled wrapping ctx.Err().  A run that completes is
// bit-identical to an uncancelled one — cancellation can only abort,
// never alter, a result.
func RunContext(ctx context.Context, d *netlist.Design, opts Options) (*Result, error) {
	return (&Verifier{d: d, opts: opts}).run(ctx, false)
}

// Reference verifies the design the way §2.9 states it, with none of the
// production engine's machinery: one FIFO worklist per case, every
// primitive evaluated by eval.Prim, no interning, memo or negative site
// cache, and every constraint site checked in full.  It shares Run's case
// schedule, checkers, merge and delay-model post-passes, so its report
// must equal Run's byte for byte; the test suites hold the compiled tape
// to it.
func Reference(d *netlist.Design, opts Options) (*Result, error) {
	return (&Verifier{d: d, opts: opts, ref: true}).run(context.Background(), false)
}

// ctxCheck polls the run's context.  It records and returns a structured
// cancellation error once the context is done, nil otherwise.
func (v *verifier) ctxCheck() error {
	if v.aborted != nil {
		return v.aborted
	}
	if v.ctx == nil {
		return nil
	}
	if err := v.ctx.Err(); err != nil {
		v.aborted = serr.Wrap(serr.Canceled, err)
		return v.aborted
	}
	return nil
}

// ctxCheckEvery polls the context only every 256th evaluation, keeping
// the cost of cooperative cancellation out of the serial hot loop.
func (v *verifier) ctxCheckEvery() error {
	if v.ctx == nil || v.evals&0xff != 0 {
		return nil
	}
	return v.ctxCheck()
}

// seedWave computes the §2.9 step-1 initial waveform of one net: a Force
// override, else the assertion waveform (pinned when it is a clock
// assertion), else the always-stable default for undriven unasserted nets
// (undef: listed in the cross-reference for the designer's attention),
// else UNKNOWN for driven nets.
func (v *verifier) seedWave(id netlist.NetID) (w values.Waveform, pinned, undef bool, err error) {
	n := &v.d.Nets[id]
	if fw, ok := v.opts.Force[id]; ok {
		if n.Driver != netlist.NoDriver {
			return w, false, false, serr.Newf(serr.Assertion, "verify: cannot force driven net %q", n.Name)
		}
		if err := fw.Check(); err != nil {
			return w, false, false, serr.Newf(serr.Assertion, "verify: forced waveform for %q: %v", n.Name, err)
		}
		if fw.Period != v.d.Period {
			return w, false, false, serr.Newf(serr.Assertion, "verify: forced waveform for %q has period %v, want %v", n.Name, fw.Period, v.d.Period)
		}
		return fw, false, false, nil
	}
	switch {
	case n.Assert != nil:
		aw, aerr := n.Assert.Waveform(v.d.Env())
		if aerr != nil {
			return w, false, false, serr.Newf(serr.Assertion, "verify: net %q: %v", n.Name, aerr)
		}
		pinned = n.Assert.Kind == assertion.Clock || n.Assert.Kind == assertion.PrecisionClock
		return aw, pinned, false, nil
	case n.Driver == netlist.NoDriver:
		return values.Const(v.d.Period, values.VS), false, true, nil
	default:
		return values.Const(v.d.Period, values.VU), false, false, nil
	}
}

// runState is the poolable per-run table set: every slice is sized by the
// design's net or primitive count — megabytes on large designs — and is
// recycled through the program's Scratch pool between non-retained runs,
// so a warm run adopts the previous run's allocations instead of
// allocating and zeroing fresh ones.
type runState struct {
	sigs      []eval.Signal
	sigID     []uint64
	altOutW   []values.Waveform
	altOutSet []bool
	inQueue   []bool
}

// fits reports whether the pooled tables match the design's dimensions.
func (rs *runState) fits(d *netlist.Design) bool {
	return len(rs.sigs) == len(d.Nets) && len(rs.sigID) == len(d.Nets) &&
		len(rs.inQueue) == len(d.Prims)
}

// adoptRunState installs a pooled table set, clearing the flag tables a
// run requires to start false.  The signal tables are left stale — every
// path that reads them first overwrites them (the seed loop covers every
// net, and altOutW reads are gated by altOutSet).
func (v *verifier) adoptRunState(rs *runState) {
	v.sigs = rs.sigs
	v.sigID = rs.sigID
	v.altOutW = rs.altOutW
	v.altOutSet = rs.altOutSet
	v.inQueue = rs.inQueue
	clear(v.altOutSet)
	clear(v.inQueue)
}

// releaseRunState returns the per-run tables to the program's pool.  Only
// non-retained runs release: a retained case verifier keeps its converged
// state for Reverify.  Run results hold no references into the pooled
// slices — kept waveforms and margins copy the waveform values, whose
// segment arrays live outside these tables.
func (v *verifier) releaseRunState() {
	if v.prog == nil || v.sigs == nil {
		return
	}
	v.prog.Scratch.Put(&runState{
		sigs:      v.sigs,
		sigID:     v.sigID,
		altOutW:   v.altOutW,
		altOutSet: v.altOutSet,
		inQueue:   v.inQueue,
	})
	v.sigs, v.sigID, v.altOutW, v.altOutSet, v.inQueue = nil, nil, nil, nil, nil
}

// initVerifier builds the shared post-initialisation relaxation state
// (§2.9 step 1) every case starts from.  With a compiled program the
// per-run tables come from its scratch pool, the wired-OR slot maps are
// its precompiled ones, and — absent Force overrides — the seed image is
// adopted wholesale: shared waveform slices, precomputed handles, no
// per-net assertion rendering or interning.  A nil program (Reference)
// builds everything afresh and interns nothing.
func initVerifier(d *netlist.Design, opts Options, prog *tape.Program) (*verifier, *Result, error) {
	v := &verifier{
		d:       d,
		opts:    opts,
		prog:    prog,
		caseMap: make(map[netlist.NetID]values.Value),
	}
	if prog != nil {
		v.wired, v.wiredSlot = prog.Wired, prog.WiredSlot
		if rs, ok := prog.Scratch.Get().(*runState); ok && rs.fits(d) {
			v.adoptRunState(rs)
		}
	} else {
		v.wired, v.wiredSlot = d.WiredDrivers()
	}
	if v.sigs == nil {
		v.sigs = make([]eval.Signal, len(d.Nets))
		v.altOutW = make([]values.Waveform, len(d.Nets))
		v.altOutSet = make([]bool, len(d.Nets))
		v.inQueue = make([]bool, len(d.Prims))
	}
	if prog != nil && v.sigID == nil {
		v.sigID = make([]uint64, len(d.Nets))
	}
	if v.wired != nil {
		v.wiredOutW = make([]values.Waveform, len(v.wiredSlot))
		v.wiredOutSet = make([]bool, len(v.wiredSlot))
	}
	res := &Result{Design: d}

	// §2.9 step 1: initialise signals.  Clock-asserted nets are pinned to
	// their asserted waveform; stable-asserted nets seed S/C; driven nets
	// without assertions start UNKNOWN; undriven, unasserted nets are
	// taken to be always stable and listed for the designer's attention.
	if prog != nil && len(opts.Force) == 0 {
		// Tape fast path: adopt the precompiled seed image.  The slices
		// are shared read-only (copy-on-write before any mutation) and the
		// handles are already interned in the program's interner.
		seeds := prog.Seeds()
		v.initial = seeds.Initial
		v.pinned = seeds.Pinned
		v.initialShared = true
		copy(v.sigID, seeds.InitialID)
		for i := range v.sigs {
			v.sigs[i] = eval.Signal{Wave: seeds.Initial[i]}
		}
		res.Undefined = append([]string(nil), seeds.Undefined...)
	} else {
		v.initial = make([]values.Waveform, len(d.Nets))
		v.pinned = make([]bool, len(d.Nets))
		undefSeen := map[string]bool{}
		for i := range d.Nets {
			w, pinned, undef, err := v.seedWave(netlist.NetID(i))
			if err != nil {
				return nil, nil, err
			}
			v.initial[i] = w
			v.pinned[i] = pinned
			if undef && !undefSeen[d.Nets[i].Base] {
				undefSeen[d.Nets[i].Base] = true
				res.Undefined = append(res.Undefined, d.Nets[i].Base)
			}
			v.setSig(netlist.NetID(i), eval.Signal{Wave: w})
		}
		sort.Strings(res.Undefined)
	}
	v.fresh = true
	res.Stats.Primitives = len(d.Prims)
	res.Stats.Nets = len(d.Nets)
	return v, res, nil
}

// caseOutcome carries everything one simulated case contributes to the
// merged Result.
type caseOutcome struct {
	cr         CaseResult
	margins    []Margin
	verifyTime time.Duration
	checkTime  time.Duration
	reused     int // converged waveforms carried over unchanged (incremental only)
	sweeps     int // wavefront sweeps to fixed point (tape only)
	err        error
}

// clone snapshots the per-case relaxation state after the shared §2.9
// initialisation, so a worker can run a contiguous range of cases as one
// chain independently of the other ranges.  The
// design, options, initial waveforms, pinning and wired-OR driver lists
// are immutable during relaxation and shared; the mutable state — current
// signals, case mapping, alternate clock outputs, wired-OR driver outputs
// and the worklist — is fresh.  Waveform segment lists are never mutated
// in place, so sharing their backing arrays across workers is safe.  The
// evaluation cache and interning table are deliberately shared, not
// snapshotted: their entries are keyed on exact inputs, so a worker can
// only ever be served results that its own evaluation would reproduce.
func (v *verifier) clone() *verifier {
	w := &verifier{
		d:             v.d,
		opts:          v.opts,
		ctx:           v.ctx,
		prog:          v.prog,
		initialShared: v.initialShared,
		fresh:         v.fresh,
		initial:       v.initial,
		pinned:        v.pinned,
		caseMap:       make(map[netlist.NetID]values.Value),
		wired:         v.wired,
		wiredSlot:     v.wiredSlot,
	}
	if v.prog != nil {
		if rs, ok := v.prog.Scratch.Get().(*runState); ok && rs.fits(v.d) {
			w.adoptRunState(rs)
		}
	}
	if w.sigs == nil {
		w.sigs = make([]eval.Signal, len(v.d.Nets))
		w.altOutW = make([]values.Waveform, len(v.d.Nets))
		w.altOutSet = make([]bool, len(v.d.Nets))
		w.inQueue = make([]bool, len(v.d.Prims))
	}
	copy(w.sigs, v.sigs)
	if v.sigID != nil {
		if w.sigID == nil {
			w.sigID = make([]uint64, len(v.d.Nets))
		}
		copy(w.sigID, v.sigID)
	}
	if v.wired != nil {
		w.wiredOutW = make([]values.Waveform, len(v.wiredSlot))
		w.wiredOutSet = make([]bool, len(v.wiredSlot))
	}
	return w
}

// snapshot deep-copies the converged per-case state — current signals,
// case mapping, alternate clock outputs and wired-OR driver outputs — so
// a Verifier can retain it for incremental re-verification while the
// range's chain verifier moves on to the next case.
func (v *verifier) snapshot() *verifier {
	w := v.clone()
	for k, val := range v.caseMap {
		w.caseMap[k] = val
	}
	copy(w.altOutW, v.altOutW)
	copy(w.altOutSet, v.altOutSet)
	copy(w.wiredOutW, v.wiredOutW)
	copy(w.wiredOutSet, v.wiredOutSet)
	return w
}

// setSig installs a net's signal unconditionally, interning its waveform
// on the tape so equal waveforms share storage and carry comparable
// handles.
func (v *verifier) setSig(id netlist.NetID, sig eval.Signal) {
	if v.prog != nil {
		sig.Wave, v.sigID[id] = v.prog.Intern.Intern(sig.Wave)
	}
	v.sigs[id] = sig
}

// storeSig installs a net's signal if it differs from the current one,
// reporting whether it changed.  On the tape the comparison is a handle
// compare — no waveform walk, no allocation.  During incremental
// re-verification every store that changes a net is recorded, so
// constraint sites reading only unchanged nets can reuse their memoized
// outcome.
func (v *verifier) storeSig(id netlist.NetID, sig eval.Signal) bool {
	if v.prog != nil {
		var wid uint64
		sig.Wave, wid = v.prog.Intern.Intern(sig.Wave)
		if wid == v.sigID[id] && sig.Dirs == v.sigs[id].Dirs {
			return false
		}
		v.sigID[id] = wid
	} else if sig.Wave.Equal(v.sigs[id].Wave) && sig.Dirs == v.sigs[id].Dirs {
		return false
	}
	v.sigs[id] = sig
	if v.changed != nil {
		v.changed[id] = true
	}
	return true
}

// storeSigID is storeSig for a signal whose interned handle is already
// known (from a cache entry): the comparison and the store are pure
// handle bookkeeping — no interning, no waveform hash.
func (v *verifier) storeSigID(id netlist.NetID, sig eval.Signal, wid uint64) bool {
	if wid == v.sigID[id] && sig.Dirs == v.sigs[id].Dirs {
		return false
	}
	v.sigID[id] = wid
	v.sigs[id] = sig
	if v.changed != nil {
		v.changed[id] = true
	}
	return true
}

// runCase simulates one case-analysis cycle on this verifier's state:
// install the mapping, relax to fixed point, check every constraint.
func (v *verifier) runCase(c netlist.Case, first bool) caseOutcome {
	verifyStart := time.Now()
	v.events, v.evals, v.sweeps = 0, 0, 0
	if err := v.applyCase(c, first); err != nil {
		return caseOutcome{err: err}
	}
	conv := v.relax()
	if v.aborted != nil {
		err := v.aborted
		v.aborted = nil
		return caseOutcome{err: err}
	}
	out := caseOutcome{verifyTime: time.Since(verifyStart), sweeps: v.sweeps}
	v.closeCase(&out, c.Label, conv, v.check)
	return out
}

// closeCase completes one case's outcome after its relaxation: the
// convergence violation when the relaxation stopped at its pass cap, the
// violations of the checking phase check (a full check, or the memoized
// recheck of a resumed run), and the margins and kept waveforms the
// options ask for.  Full runs and resumed runs both end a case here.
func (v *verifier) closeCase(out *caseOutcome, label string, conv bool, check func(string) []Violation) {
	checkStart := time.Now()
	cr := CaseResult{Label: label, Events: v.events, PrimEvals: v.evals}
	if !conv {
		cr.Violations = append(cr.Violations, Violation{
			Kind:   ConvergenceViolation,
			Case:   label,
			Detail: fmt.Sprintf("fixed point not reached within %d primitive evaluations", v.passCap()),
		})
	}
	cr.Violations = append(cr.Violations, check(label)...)
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
	out.checkTime = time.Since(checkStart)
	out.cr = cr
}

// applyCase installs the case mapping (§2.7.1) and seeds the worklist: the
// whole circuit for the first case, only the affected cone afterwards.
func (v *verifier) applyCase(c netlist.Case, first bool) error {
	newMap, err := caseMapping(v.d, c)
	if err != nil {
		return err
	}

	// Nets leaving or entering the mapping must be re-seeded.
	affected := make(map[netlist.NetID]bool)
	for n := range v.caseMap {
		affected[n] = true
	}
	for n := range newMap {
		affected[n] = true
	}
	v.caseMap = newMap

	if first {
		if v.prog != nil && v.fresh {
			// Tape fast path: the signals still equal the seeds (interned,
			// handles installed), so re-seeding is the identity everywhere
			// except under the incoming case mapping.  affected holds
			// exactly the mapped nets — the verifier was fresh, so nothing
			// is leaving a previous mapping.
			v.fresh = false
			for id := range affected {
				v.setSig(id, eval.Signal{Wave: v.mapped(id, v.initial[id]), Dirs: v.sigs[id].Dirs})
			}
			for pi := range v.d.Prims {
				if !v.d.Prims[pi].Kind.IsChecker() {
					v.enqueue(netlist.PrimID(pi))
				}
			}
			return nil
		}
		v.fresh = false
		for i := range v.d.Nets {
			id := netlist.NetID(i)
			v.setSig(id, eval.Signal{Wave: v.mapped(id, v.initial[i]), Dirs: v.sigs[i].Dirs})
		}
		for pi := range v.d.Prims {
			if !v.d.Prims[pi].Kind.IsChecker() {
				v.enqueue(netlist.PrimID(pi))
			}
		}
		return nil
	}
	v.fresh = false
	for id := range affected {
		n := &v.d.Nets[id]
		if n.Driver == netlist.NoDriver || v.pinned[id] {
			// Re-seed from the initial value under the new mapping.
			w := v.mapped(id, v.initial[id])
			if v.storeSig(id, eval.Signal{Wave: w, Dirs: v.sigs[id].Dirs}) {
				v.events++
				v.fanout(id)
			}
		} else {
			// Driven: its driver recomputes and the store applies the
			// new mapping.
			v.enqueue(n.Driver)
		}
	}
	return nil
}

// caseMapping resolves a case's signal assignments (§2.7.1) to the
// per-net constant map the relaxation applies.
func caseMapping(d *netlist.Design, c netlist.Case) (map[netlist.NetID]values.Value, error) {
	m := make(map[netlist.NetID]values.Value)
	for _, as := range c.Assignments {
		found := false
		for i := range d.Nets {
			if netlist.BaseMatches(d.Nets[i].Base, as.Base) {
				m[netlist.NetID(i)] = as.Value
				found = true
			}
		}
		if !found {
			return nil, serr.Newf(serr.Elaborate, "verify: case %q names unknown signal %q", c.Label, as.Base)
		}
	}
	return m, nil
}

// mapped applies the active case mapping to a waveform destined for net
// id: STABLE values become the case constant (§2.7.1).
func (v *verifier) mapped(id netlist.NetID, w values.Waveform) values.Waveform {
	cv, ok := v.caseMap[id]
	if !ok {
		return w
	}
	return w.MapUnary(func(x values.Value) values.Value {
		if x == values.VS {
			return cv
		}
		return x
	})
}

func (v *verifier) enqueue(p netlist.PrimID) {
	if v.inQueue[p] || v.d.Prims[p].Kind.IsChecker() {
		return
	}
	v.inQueue[p] = true
	v.queue = append(v.queue, p)
}

// popQueue removes and returns the head of the worklist.  The consumed
// prefix is compacted away once it dominates the slice, so the backing
// array stays bounded by the number of outstanding entries instead of
// growing with the total number of pops (the [1:] re-slice it replaces
// pinned the array head forever).
func (v *verifier) popQueue() netlist.PrimID {
	p := v.queue[v.qhead]
	v.qhead++
	switch {
	case v.qhead == len(v.queue):
		v.queue = v.queue[:0]
		v.qhead = 0
	case v.qhead >= 64 && v.qhead > len(v.queue)/2:
		n := copy(v.queue, v.queue[v.qhead:])
		v.queue = v.queue[:n]
		v.qhead = 0
	}
	return p
}

// queueLen reports the number of outstanding worklist entries.
func (v *verifier) queueLen() int { return len(v.queue) - v.qhead }

// clearQueue empties the worklist and its membership flags.
func (v *verifier) clearQueue() {
	v.queue = v.queue[:0]
	v.qhead = 0
	for i := range v.inQueue {
		v.inQueue[i] = false
	}
}

func (v *verifier) fanout(id netlist.NetID) {
	for _, p := range v.d.Nets[id].Fanout {
		v.enqueue(p)
	}
}

// The documented MaxPasses default: 50 evaluations per primitive, with a
// floor of 1000 so tiny designs containing a genuine oscillation still get
// enough passes to prove non-convergence rather than flagging it spuriously.
const (
	defaultEvalsPerPrim = 50
	defaultPassFloor    = 1000
)

func (v *verifier) passCap() int { return v.opts.passCap(len(v.d.Prims)) }

// passCap resolves the effective evaluation cap for a design with nPrims
// primitives.  It is also part of the store's content address: two runs
// with different caps can disagree on convergence, so they must never
// share a cached report.
func (o Options) passCap(nPrims int) int {
	if o.MaxPasses > 0 {
		return o.MaxPasses
	}
	limit := defaultEvalsPerPrim * nPrims
	if limit < defaultPassFloor {
		limit = defaultPassFloor
	}
	return limit
}

// evalScratch is the verifier's evaluation scratch: the memo and site key
// buffer, the getter closure built once instead of per evaluation, and
// the nets changed by the current evaluation or component.
type evalScratch struct {
	keyBuf  []byte
	get     eval.Getter
	changed []netlist.NetID
}

// sc returns the verifier's scratch, creating it on first use.
func (v *verifier) sc() *evalScratch {
	if v.scratch == nil {
		v.scratch = &evalScratch{}
		v.scratch.get = func(n netlist.NetID) eval.Signal { return v.sigs[n] }
	}
	return v.scratch
}

// evalPrim evaluates one primitive and commits its outputs, appending
// every net whose stored signal changed to dst.  Pinned nets go to the
// altOut side table and are never appended; the caller owns event
// counting and consumer scheduling.
func (v *verifier) evalPrim(pid netlist.PrimID, dst []netlist.NetID) []netlist.NetID {
	p := &v.d.Prims[pid]
	sc := v.sc()
	var outs []eval.Signal
	var ids []uint64
	var err error
	if v.prog == nil {
		outs, err = eval.Prim(v.d, p, sc.get)
	} else {
		// Memoized evaluation: the key covers everything evaluation reads,
		// with input waveforms as interned handles, so a hit returns
		// exactly what evaluation would produce.  Outputs are interned
		// before storing so every consumer shares one copy.
		sc.keyBuf = v.prog.AppendKey(sc.keyBuf[:0], v.d, pid, v.sigs, v.sigID, false)
		var ok bool
		if outs, ids, ok = v.prog.Evals.Get(sc.keyBuf); !ok {
			outs, err = eval.Prim(v.d, p, sc.get)
			if err == nil && outs != nil {
				ids = make([]uint64, len(outs))
				for i := range outs {
					outs[i].Wave, ids[i] = v.prog.Intern.Intern(outs[i].Wave)
				}
				v.prog.Evals.Put(sc.keyBuf, outs, ids)
			}
		}
	}
	if err != nil || outs == nil {
		return dst
	}
	for bit, sig := range outs {
		id := p.Out[0].Bits[bit]
		if drivers, isWired := v.wired[id]; isWired {
			// Wired-OR: remember this driver's output and fold the
			// drivers together (missing ones count as UNKNOWN until
			// their first evaluation).
			slot := v.wiredSlot[[2]int32{int32(id), int32(pid)}]
			v.wiredOutW[slot] = sig.Wave
			v.wiredOutSet[slot] = true
			folded := values.Const(v.d.Period, values.V0)
			for _, dp := range drivers {
				ds := v.wiredSlot[[2]int32{int32(id), int32(dp)}]
				w := values.Const(v.d.Period, values.VU)
				if v.wiredOutSet[ds] {
					w = v.wiredOutW[ds]
				}
				folded = values.Combine(folded, w, values.Or)
			}
			sig = eval.Signal{Wave: folded, Dirs: sig.Dirs}
		} else if ids != nil && !v.pinned[id] {
			// Handle-aware commit: the output's interned id is known, and
			// on unmapped nets (the common case) the mapped waveform is the
			// waveform itself, so the store is a handle compare — no
			// re-interning, no waveform hash.
			if _, hasMap := v.caseMap[id]; !hasMap {
				if v.storeSigID(id, sig, ids[bit]) {
					dst = append(dst, id)
				}
				continue
			}
		}
		sig.Wave = v.mapped(id, sig.Wave)
		if v.pinned[id] {
			// The designer's clock assertion rules; remember the
			// computed value for the assertion cross-check.
			v.altOutW[id] = sig.Wave
			v.altOutSet[id] = true
			continue
		}
		if v.storeSig(id, sig) {
			dst = append(dst, id)
		}
	}
	return dst
}

// relax runs the event-driven evaluation to a fixed point (§2.9 step 2).
// It reports whether the fixed point was reached within the pass cap.  The
// tape hands the worklist to the levelized wavefront sweep; Reference
// drains it in FIFO order.  Both converge on the same fixed point.  A
// canceled context aborts the loop at a pass boundary, leaving v.aborted
// set; the partial state is discarded by the caller.
func (v *verifier) relax() bool {
	if err := v.ctxCheck(); err != nil {
		return false
	}
	if v.prog != nil {
		return v.wavefrontRelax()
	}
	cap := v.passCap()
	sc := v.sc()
	for v.queueLen() > 0 {
		if v.evals >= cap {
			v.clearQueue()
			return false
		}
		if err := v.ctxCheckEvery(); err != nil {
			v.clearQueue()
			return false
		}
		pid := v.popQueue()
		v.inQueue[pid] = false
		v.evals++
		sc.changed = v.evalPrim(pid, sc.changed[:0])
		for _, id := range sc.changed {
			v.events++
			v.fanout(id)
		}
	}
	return true
}
