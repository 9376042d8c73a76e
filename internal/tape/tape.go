// Package tape compiles an elaborated, levelized design once into a flat
// evaluation tape the verifier sweeps instead of re-deriving evaluation
// structure on every run.
//
// The tape is the classic interpreter-to-template lowering applied to the
// §2.9 relaxation: per primitive, a checking plan decided at compile time
// and a flat span of its input connections; per net, a preallocated
// initial waveform slot (the §2.9 step-1 seed, already interned) so a run
// seeds by copying handles instead of re-rendering assertions and
// re-hashing 80 000 waveforms.  Every primitive is evaluated by
// eval.PrimA, the evaluator the memo-free reference engine uses, so the
// two engines share one set of §2.4.2 truth tables.
//
// A Program also owns the run-to-run persistent state: the waveform
// interner, the evaluation memo and the negative cache of clean constraint
// sites.  All three are keyed on exact live content (parameters, resolved
// directives, wire delays, interned input handles), so a parameter edit
// never needs an invalidation walk — stale entries are simply never hit —
// and a warm re-run of an unchanged design is served almost entirely from
// the tables.  Reports are bit-identical to the memo-free reference
// engine: evaluation is the same function, the sweep order is the
// confluent wavefront schedule, and the caches only ever return what
// evaluation would recompute.
//
// The Program hangs off the design's engine-cache slot
// (netlist.Design.EngineCache); structural edits clear it via
// RebuildFanout, numeric edits keep it and are caught by Refresh.
package tape

import (
	"sync"
	"sync/atomic"

	"scaldtv/internal/assertion"
	"scaldtv/internal/eval"
	"scaldtv/internal/netlist"
	"scaldtv/internal/values"
)

// CheckPlan classifies what the checking phase (§2.9 step 3) must do at a
// primitive, decided once at compile time.
type CheckPlan uint8

const (
	// PlanNone: nothing can ever be checked here (single-input gates,
	// muxes without storage) — the checking sweep skips the site outright.
	PlanNone CheckPlan = iota
	// PlanSite: a checker primitive (set-up/hold, min-pulse).
	PlanSite
	// PlanDirective: a multi-input gate that may carry &A/&H stability
	// directives; a cheap head scan decides at run time whether any input
	// is actually marked.
	PlanDirective
	// PlanStorage: a storage element subject to the clock-defined rule.
	PlanStorage
)

// Seeds is the immutable §2.9 step-1 seed image of the design under one
// environment (period, skews, assertions, driver presence).  Refresh swaps
// the whole value atomically when the environment changes, so in-flight
// runs keep a consistent snapshot.
type Seeds struct {
	// Initial and InitialID hold each net's seed waveform and its interned
	// handle (from the Program's interner).  Verifiers share the slices
	// read-only and copy-on-write before any mutation.
	Initial   []values.Waveform
	InitialID []uint64
	// Pinned marks nets pinned to a clock assertion (§2.9).
	Pinned []bool
	// Undefined is the sorted cross-reference listing of undriven,
	// unasserted base names (§2.5).
	Undefined []string
	// AssertNets lists the nets the assertion cross-check must visit
	// (Assert != nil and driven), in ascending net order — the checking
	// phase iterates these instead of every net.
	AssertNets []netlist.NetID

	sig uint64 // envSig of the design state this image was built from
}

// Program is a design compiled to a flat evaluation tape plus the
// persistent evaluation state that outlives individual runs.  It holds no
// *Design: every method takes the design, so a Diff-equal edited design
// can adopt the same program.
//
// A Program is safe for concurrent use by any number of runs.
type Program struct {
	// Lev is the cached levelization the tape was compiled from.
	Lev *netlist.Levelization

	// Plans holds one checking plan per primitive, indexed by PrimID.
	Plans []CheckPlan

	// ConnNet and ConnDirs flatten every primitive's input connections in
	// evaluation-key order (ports outer, bits inner): the source net and
	// the pin's own directive override (empty when the incoming signal's
	// directives govern).  ConnSpan[pid] is the primitive's [start, end)
	// range.  The warm-slot match walks this struct-of-arrays table — a
	// tight scan over two parallel slices — instead of the netlist's
	// nested port structure.
	ConnNet  []netlist.NetID
	ConnDirs []assertion.Directives
	ConnSpan [][2]int32

	// Wired-OR driver tables (netlist.Design.WiredDrivers): drivers of
	// each multiply-driven net in driver order, and the deterministic slot
	// of each (net, driver) pair.  Nil maps on designs without wired-OR.
	Wired     map[netlist.NetID][]netlist.PrimID
	WiredSlot map[[2]int32]int

	// Persistent evaluation state.  Intern and Evals are the verifier's
	// usual interner and memo, owned here so they survive across runs;
	// Sites is the negative cache of constraint sites whose full check
	// produced no violations and no margins, keyed like the evaluation
	// memo plus the checker intervals.
	Intern *values.Interner
	Evals  *eval.Cache
	Sites  *NegCache

	// Scratch pools the verifier's per-run tables (one slot per net or
	// primitive — megabytes on large designs), so a warm run reuses the
	// previous run's allocations instead of clearing fresh ones.  The
	// pooled values are opaque to the tape; the verifier validates their
	// dimensions against the design before adopting them.
	Scratch sync.Pool

	mu    sync.Mutex // serializes Refresh rebuilds
	seeds atomic.Pointer[Seeds]
	slots atomic.Pointer[SlotTable]
}

// SlotInput identifies one input bit of a memoized evaluation as the
// evaluator sees it: the interned handle of the incoming waveform and the
// directive string governing the bit (the pin directives if present, else
// the signal's own).
type SlotInput struct {
	ID   uint64
	Dirs assertion.Directives
}

// SlotVar is one memoized evaluation: outputs keyed by the inputs they
// were computed from.  While the program's environment signature is
// unchanged (Refresh swaps the table otherwise), matching inputs imply a
// bit-identical evaluation.  For a checker primitive, Outs is nil and the
// variant records that the full constraint check of those inputs produced
// no violations.
type SlotVar struct {
	In   []SlotInput
	Outs []eval.Signal // interned outputs; nil for a clean checker site
	IDs  []uint64      // IDs[i] is the interned handle of Outs[i].Wave
}

// Slot is a primitive's warm slot: its last few distinct evaluations.
// Relaxation visits a primitive once per wavefront sweep with a short
// deterministic cycle of input states (seed-fed, then successively
// converged), so holding the last MaxSlotVars states makes a warm rerun
// hit on every sweep — no key building, hashing or locking — after a
// single warm-up run repopulates the cycle.  A Slot is immutable once
// published; publishing copies the surviving variants.
type Slot struct {
	Vars []SlotVar
}

// MaxSlotVars bounds the variants kept per slot; the oldest is evicted
// beyond it.  Relaxations needing more states per primitive fall back to
// the keyed memo, which has no horizon.
const MaxSlotVars = 4

// SlotTable holds one warm slot per primitive, indexed by PrimID.  Loads
// and stores are lock-free; a whole table is discarded when the design's
// environment signature changes, so in-flight runs holding the old table
// never see slots from a different parameter generation.
type SlotTable struct{ s []atomic.Pointer[Slot] }

// NewSlotTable returns an empty warm-slot table for n primitives.
func NewSlotTable(n int) *SlotTable { return &SlotTable{s: make([]atomic.Pointer[Slot], n)} }

// Load returns the primitive's current slot, or nil.
func (t *SlotTable) Load(pid netlist.PrimID) *Slot { return t.s[pid].Load() }

// Store publishes the primitive's slot (last writer wins).
func (t *SlotTable) Store(pid netlist.PrimID, sl *Slot) { t.s[pid].Store(sl) }

// Slots returns the current warm-slot table.  Callers capture it once per
// run: Refresh swaps in a fresh table when the environment changes, and a
// run must keep reading (and writing) the generation it validated.
func (p *Program) Slots() *SlotTable { return p.slots.Load() }

// For returns the design's compiled program, compiling and publishing it
// on first use.  The warm path is two atomic loads and a type assertion —
// no allocation — so every verification run can call it unconditionally.
// Concurrent first calls may both compile; either result is valid and one
// wins the (idempotent) publish.
func For(d *netlist.Design) (*Program, error) {
	if p, ok := d.EngineCache().(*Program); ok {
		return p, nil
	}
	p, err := Compile(d)
	if err != nil {
		return nil, err
	}
	d.StoreEngineCache(p)
	return p, nil
}

// Seeds returns the current seed image.
func (p *Program) Seeds() *Seeds { return p.seeds.Load() }
