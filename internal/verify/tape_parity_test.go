package verify

import (
	"fmt"
	"sync"
	"testing"

	"scaldtv/internal/gen"
	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
)

// tapeParityDesigns returns the designs the tape parity checks sweep: the
// hand-built multi-case circuit (violations, margins, muxed paths) and a
// generated Mark IIA-style design with cases and injected failures (wired
// fanout, registers, latches at scale).
func tapeParityDesigns(t *testing.T) map[string]*netlist.Design {
	t.Helper()
	d, _, err := gen.Generate(gen.Config{Chips: 102, Cases: 4, Inject: 1})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*netlist.Design{
		"multicase": buildMultiCase(t, 8),
		"generated": d,
	}
}

// TestTapeParityMatrix: the compiled tape and Reference must produce
// identical reports — violations, margins, kept waveforms,
// cross-reference — for every Workers setting, with and without the
// margin collection that bypasses the negative site cache.  Run with
// -race: the matrix exercises the shared memo tables and scratch pool
// concurrently.
func TestTapeParityMatrix(t *testing.T) {
	for name, d := range tapeParityDesigns(t) {
		t.Run(name, func(t *testing.T) {
			for _, margins := range []bool{true, false} {
				base, err := Reference(d, Options{Workers: 1, KeepWaves: true, Margins: margins})
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 2, 8} {
					res, err := Run(d, Options{Workers: w, KeepWaves: true, Margins: margins})
					if err != nil {
						t.Fatal(err)
					}
					sameReports(t, fmt.Sprintf("reference vs tape w=%d margins=%v", w, margins), base, res)
				}
			}
		})
	}
}

// TestTapeRepeatedRunsIdentical: repeated tape runs of one design share a
// program whose memo tables and scratch pool carry state between runs;
// every run must still report exactly Reference's answer.  The second and
// later runs exercise the fully warm path (memo hits, pooled tables,
// adopted seed image), and without margins the negative site cache too.
// The memo only ever returns what evaluation would compute, so it cannot
// steer the schedule either: every run's work counters equal the cold
// first run's.
func TestTapeRepeatedRunsIdentical(t *testing.T) {
	for name, d := range tapeParityDesigns(t) {
		t.Run(name, func(t *testing.T) {
			for _, margins := range []bool{true, false} {
				opts := Options{Workers: 1, KeepWaves: true, Margins: margins}
				want, err := Reference(d, opts)
				if err != nil {
					t.Fatal(err)
				}
				var cold *Result
				for i := 0; i < 4; i++ {
					got, err := Run(d, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameReports(t, fmt.Sprintf("margins=%v warm run %d", margins, i), want, got)
					if cold == nil {
						cold = got
						continue
					}
					for ci := range got.Cases {
						if got.Cases[ci].Events != cold.Cases[ci].Events || got.Cases[ci].PrimEvals != cold.Cases[ci].PrimEvals {
							t.Errorf("margins=%v warm run %d case %d: work counters %+v, cold run %+v",
								margins, i, ci, got.Cases[ci], cold.Cases[ci])
						}
					}
					if got.Stats.Sweeps != cold.Stats.Sweeps {
						t.Errorf("margins=%v warm run %d: %d sweeps, cold run %d", margins, i, got.Stats.Sweeps, cold.Stats.Sweeps)
					}
				}
			}
		})
	}
}

// TestTapeSweepStressRace hammers one shared compiled program from many
// concurrent verification runs — each itself fanning out case workers,
// half of them without margins so they read and fill the negative site
// cache — and checks every run lands on Reference's report.  Under -race
// this is the concurrency safety net for the scratch pool and the shared
// memo tables.
func TestTapeSweepStressRace(t *testing.T) {
	for name, d := range tapeParityDesigns(t) {
		t.Run(name, func(t *testing.T) {
			want := map[bool]*Result{}
			for _, margins := range []bool{true, false} {
				res, err := Reference(d, Options{Workers: 1, KeepWaves: true, Margins: margins})
				if err != nil {
					t.Fatal(err)
				}
				want[margins] = res
			}
			const runs = 8
			results := make([]*Result, runs)
			errs := make([]error, runs)
			var wg sync.WaitGroup
			for i := 0; i < runs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					opts := Options{Workers: 1 + i%3, KeepWaves: true, Margins: i%2 == 0}
					results[i], errs[i] = Run(d, opts)
				}(i)
			}
			wg.Wait()
			for i := 0; i < runs; i++ {
				if errs[i] != nil {
					t.Fatalf("concurrent run %d: %v", i, errs[i])
				}
				sameReports(t, fmt.Sprintf("concurrent run %d", i), want[i%2 == 0], results[i])
			}
		})
	}
}

// TestInPlaceEditsMatchReference: after a warm run, in-place edits to a
// wire override, a primitive delay and a checker interval reach neither
// the seed image nor any invalidation step — only the memo and site keys,
// which read them live, keep the warm program exact.  After each edit a
// warm Run and a Reverify of a retained session must equal Reference.
func TestInPlaceEditsMatchReference(t *testing.T) {
	for _, margins := range []bool{false, true} {
		t.Run(fmt.Sprintf("margins=%v", margins), func(t *testing.T) {
			d := buildMultiCase(t, 4)
			opts := Options{Workers: 1, KeepWaves: true, Margins: margins}
			if _, err := Run(d, opts); err != nil {
				t.Fatal(err)
			}
			V := NewVerifier(d, opts)
			if _, err := V.Verify(); err != nil {
				t.Fatal(err)
			}
			d1, ok := d.NetByName("D1")
			if !ok {
				t.Fatal("net D1 not found")
			}
			delayB := findPrim(t, d, "DELAY B")
			chk := findPrim(t, d, "REG CHK")
			steps := []struct {
				name string
				edit func() netlist.Changes
			}{
				{"wire D1", func() netlist.Changes {
					w := tick.R(2, 5)
					d.Nets[d1].Wire = &w
					return netlist.Changes{Nets: []netlist.NetID{d1}}
				}},
				{"delay DELAY B", func() netlist.Changes {
					d.Prims[delayB].Delay = tick.R(18, 21)
					return netlist.Changes{Prims: []netlist.PrimID{delayB}}
				}},
				{"setup REG CHK", func() netlist.Changes {
					d.Prims[chk].Setup += 5 * tick.NS
					return netlist.Changes{Prims: []netlist.PrimID{chk}}
				}},
			}
			for _, st := range steps {
				ch := st.edit()
				want, err := Reference(d, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(d, opts)
				if err != nil {
					t.Fatal(err)
				}
				sameReports(t, st.name+": warm run", want, got)
				inc, err := V.Reverify(ch)
				if err != nil {
					t.Fatal(err)
				}
				sameReports(t, st.name+": reverify", want, inc)
			}
		})
	}
}
