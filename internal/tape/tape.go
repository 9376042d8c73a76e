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
// eval.Prim, the evaluator the memo-free reference engine uses, so the
// two engines share one set of §2.4.2 truth tables.
//
// A Program also owns the run-to-run persistent state: the waveform
// interner, the evaluation memo and the negative cache of clean constraint
// sites.  One key builder (AppendKey) feeds both caches from exact live
// content (parameters, resolved directives, wire delays, interned input
// handles) and no instance identity, so structurally identical instances
// share entries, a parameter edit never needs an invalidation walk —
// stale entries are simply never hit — and a warm re-run of an unchanged
// design is served almost entirely from the tables.  Reports are
// bit-identical to the memo-free reference engine: evaluation is the same
// function, the sweep order is the confluent wavefront schedule, and the
// caches only ever return what evaluation would recompute.
//
// The Program hangs off the design's engine-cache slot
// (netlist.Design.EngineCache); structural edits clear it via
// RebuildFanout, numeric edits keep it and are caught by Refresh.
package tape

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"scaldtv/internal/assertion"
	"scaldtv/internal/eval"
	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
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

	// ConnNet, ConnInvert and ConnDirs flatten every primitive's input
	// connections in port order (ports outer, bits inner): the source net,
	// the complement rail and the pin's own directive override (empty when
	// the incoming signal's directives govern).  ConnSpan[pid] is the
	// primitive's [start, end) range.  AppendKey walks this
	// struct-of-arrays table — a tight scan over parallel slices — instead
	// of the netlist's nested port structure.
	ConnNet    []netlist.NetID
	ConnInvert []bool
	ConnDirs   []assertion.Directives
	ConnSpan   [][2]int32

	// Wired-OR driver tables (netlist.Design.WiredDrivers): drivers of
	// each multiply-driven net in driver order, and the deterministic slot
	// of each (net, driver) pair.  Nil maps on designs without wired-OR.
	Wired     map[netlist.NetID][]netlist.PrimID
	WiredSlot map[[2]int32]int

	// Persistent evaluation state.  Intern and Evals are the verifier's
	// usual interner and memo, owned here so they survive across runs;
	// Sites is the negative cache of constraint sites whose full check
	// produced no violations and no margins.  AppendKey builds both
	// caches' keys.
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
}

// AppendKey appends the memo key of evaluating primitive pid in the given
// signal state (sigs, with ids[n] the interned handle of net n's
// waveform) to buf and returns the extended slice.  The key covers
// everything eval.Prim reads:
//
//   - the primitive's kind, width and delay parameters, and the period;
//   - its connection count, which with kind and width fixes the port
//     shape (Design.Check);
//   - per input connection, in ConnSpan order: the complement rail, the
//     resolved directive head and remainder (a pin directive starts a
//     fresh string, otherwise the incoming signal's continues), the
//     interconnection delay as resolved under that head, and the interned
//     handle of the input waveform.
//
// No primitive or net identity enters the key, so structurally identical
// instances fed equal signals share one entry — nearly every memo hit of
// a cold run is an entry another instance stored.  Parameters and wire
// delays are read live from d, so an in-place edit needs no invalidation.
//
// With site true it builds the negative site cache's key instead: the
// memo key extended with the checker intervals, which evaluation does not
// read.  That covers everything the checkers read through eval.ConnWave
// and eval.ConnDirective; names and the case label only appear in
// non-empty outcomes, which are never cached.
func (p *Program) AppendKey(buf []byte, d *netlist.Design, pid netlist.PrimID, sigs []eval.Signal, ids []uint64, site bool) []byte {
	pr := &d.Prims[pid]
	buf = append(buf, byte(pr.Kind))
	buf = binary.AppendUvarint(buf, uint64(pr.Width))
	buf = appendTime(buf, d.Period)
	buf = appendRange(buf, pr.Delay)
	buf = appendRange(buf, pr.SelectDelay)
	if pr.RF != nil {
		buf = append(buf, 1)
		buf = appendRange(buf, pr.RF.Rise)
		buf = appendRange(buf, pr.RF.Fall)
	} else {
		buf = append(buf, 0)
	}
	span := p.ConnSpan[pid]
	buf = binary.AppendUvarint(buf, uint64(span[1]-span[0]))
	for k := span[0]; k < span[1]; k++ {
		n := p.ConnNet[k]
		dirs := p.ConnDirs[k]
		if dirs.Empty() {
			dirs = sigs[n].Dirs
		}
		head, rest := dirs.Head()
		flags := byte(0)
		if p.ConnInvert[k] {
			flags = 1
		}
		buf = append(buf, flags, byte(head))
		buf = binary.AppendUvarint(buf, uint64(len(rest)))
		buf = append(buf, string(rest)...)
		buf = appendRange(buf, d.WireDelay(n, head))
		buf = binary.AppendUvarint(buf, ids[n])
	}
	if site {
		buf = appendTime(buf, pr.Setup)
		buf = appendTime(buf, pr.Hold)
		buf = appendTime(buf, pr.MinHigh)
		buf = appendTime(buf, pr.MinLow)
	}
	return buf
}

func appendTime(buf []byte, t tick.Time) []byte {
	return binary.AppendVarint(buf, int64(t))
}

func appendRange(buf []byte, r tick.Range) []byte {
	return appendTime(appendTime(buf, r.Min), r.Max)
}

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
