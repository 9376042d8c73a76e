package verify

import (
	"fmt"
	"math/rand"
	"testing"

	"scaldtv/internal/gen"
	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
)

// TestIntraExamples checks the intra-case wavefront (the compiled tape)
// against Reference on the generator's example-style topologies — plain
// and variable-cycle designs with multiple declared cases — at Workers 1,
// 2 and 8.
func TestIntraExamples(t *testing.T) {
	cfgs := map[string]gen.Config{
		"plain":    {Chips: 51, Cases: 2, Inject: 1},
		"varcycle": {Chips: 51, VariableCycle: true, Cases: 2},
	}
	for name, cfg := range cfgs {
		d, _, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base, err := Reference(d, Options{Workers: 1, KeepWaves: true, Margins: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 8} {
			res, err := Run(d, Options{Workers: w, KeepWaves: true, Margins: true})
			if err != nil {
				t.Fatal(err)
			}
			sameReports(t, fmt.Sprintf("%s workers=%d", name, w), base, res)
		}
	}
}

// TestIntraReverify: the wavefront resumes a retained fixed point —
// Reverify after random parameter edits stays bit-identical to a
// from-scratch Reference run of the edited design.
func TestIntraReverify(t *testing.T) {
	d, _, err := gen.Generate(gen.Config{Chips: 34, Cases: 2, Inject: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 1, KeepWaves: true, Margins: true}
	V := NewVerifier(d, opts)
	if _, err := V.Verify(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 5; step++ {
		ch, desc := randomEdit(t, d, rng)
		inc, err := V.Reverify(ch)
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, desc, err)
		}
		if !inc.Stats.Incremental {
			t.Fatalf("step %d (%s): fell back to a full run", step, desc)
		}
		scratch, err := Reference(d, opts)
		if err != nil {
			t.Fatalf("step %d (%s): scratch: %v", step, desc, err)
		}
		sameReports(t, fmt.Sprintf("step %d (%s)", step, desc), scratch, inc)
	}
}

// TestIntraWavefrontStats: the levelization counters describe the
// design's levelization on every tape run, and stay zero on Reference,
// which drains a FIFO.
func TestIntraWavefrontStats(t *testing.T) {
	d, _, err := gen.Generate(gen.Config{Chips: 51, Cases: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reference(d, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Levels != 0 || ref.Stats.SCCs != 0 || ref.Stats.Sweeps != 0 {
		t.Errorf("Reference run reports wavefront stats: %+v", ref.Stats)
	}
	for _, w := range []int{1, 2} {
		res, err := Run(d, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		lev := d.Levelization()
		st := res.Stats
		if st.Levels != len(lev.Levels) || st.SCCs != len(lev.Comps) ||
			st.FeedbackSCCs != lev.Feedback || st.Sweeps == 0 {
			t.Errorf("workers=%d: wavefront stats = %+v, levelization has %d levels / %d comps / %d feedback",
				w, st, len(lev.Levels), len(lev.Comps), lev.Feedback)
		}
	}
}

// TestIntraConvergenceCap: pass-cap exhaustion is reported under the
// wavefront too (the cap is checked after each level) and agrees with
// Reference, whose FIFO checks it per evaluation.
func TestIntraConvergenceCap(t *testing.T) {
	d := buildFig25(t)
	for name, run := range map[string]func(*netlist.Design, Options) (*Result, error){"tape": Run, "reference": Reference} {
		res, err := run(d, Options{MaxPasses: 2})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, v := range res.Violations {
			if v.Kind == ConvergenceViolation {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: pass cap exhaustion should be reported", name)
		}
	}
}

// TestQueueBoundedCapacity: the FIFO worklist's backing array stays
// bounded by the outstanding entries, not the total number of pops — the
// [1:] re-slice it replaced pinned the array head and regrew forever.
func TestQueueBoundedCapacity(t *testing.T) {
	b := netlist.NewBuilder("queue-bound")
	b.SetPeriod(50 * tick.NS)
	b.SetDefaultWire(tick.Range{})
	in := b.Net("IN .S0-50")
	prev := in
	const nPrims = 8
	for i := 0; i < nPrims; i++ {
		o := b.Net(fmt.Sprintf("N%d", i))
		b.Buf(fmt.Sprintf("B%d", i), tick.R(1, 2), []netlist.NetID{o}, netlist.Conns(prev))
		prev = o
	}
	d := b.MustBuild()
	v, _, err := initVerifier(d, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A long pop-heavy workload: keep a couple of entries outstanding
	// while popping many thousands of times.
	for round := 0; round < 100000; round++ {
		v.enqueue(netlist.PrimID(round % nPrims))
		v.enqueue(netlist.PrimID((round + 1) % nPrims))
		p := v.popQueue()
		v.inQueue[p] = false
	}
	if got := cap(v.queue); got > 1024 {
		t.Errorf("queue backing array grew to %d entries; want bounded by outstanding work", got)
	}
	for v.queueLen() > 0 {
		p := v.popQueue()
		v.inQueue[p] = false
	}
	if v.queueLen() != 0 || v.qhead != 0 || len(v.queue) != 0 {
		t.Errorf("drained queue not reset: len=%d qhead=%d", len(v.queue), v.qhead)
	}
}
