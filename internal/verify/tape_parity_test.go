package verify

import (
	"fmt"
	"sync"
	"testing"

	"scaldtv/internal/gen"
	"scaldtv/internal/netlist"
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
// -race: the matrix exercises the shared slot table and scratch pool
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
// program whose memo tables, warm slots and scratch pool carry state
// between runs; every run must still report exactly Reference's answer.
// The second and later runs exercise the fully warm path (slot hits,
// pooled tables, adopted seed image).  The memo only ever returns what
// evaluation would compute, so it cannot steer the schedule either: every
// run's work counters equal the cold first run's.
func TestTapeRepeatedRunsIdentical(t *testing.T) {
	for name, d := range tapeParityDesigns(t) {
		t.Run(name, func(t *testing.T) {
			want, err := Reference(d, Options{Workers: 1, KeepWaves: true, Margins: true})
			if err != nil {
				t.Fatal(err)
			}
			var cold *Result
			for i := 0; i < 4; i++ {
				got, err := Run(d, Options{Workers: 1, KeepWaves: true, Margins: true})
				if err != nil {
					t.Fatal(err)
				}
				sameReports(t, fmt.Sprintf("warm run %d", i), want, got)
				if cold == nil {
					cold = got
					continue
				}
				for ci := range got.Cases {
					if got.Cases[ci].Events != cold.Cases[ci].Events || got.Cases[ci].PrimEvals != cold.Cases[ci].PrimEvals {
						t.Errorf("warm run %d case %d: work counters %+v, cold run %+v",
							i, ci, got.Cases[ci], cold.Cases[ci])
					}
				}
				if got.Stats.Sweeps != cold.Stats.Sweeps {
					t.Errorf("warm run %d: %d sweeps, cold run %d", i, got.Stats.Sweeps, cold.Stats.Sweeps)
				}
			}
		})
	}
}

// TestTapeSweepStressRace hammers one shared compiled program from many
// concurrent verification runs — each itself fanning out case workers —
// and checks every run lands on Reference's report.  Under -race this is the concurrency safety net for the slot
// table's lock-free publishes, the scratch pool and the shared memo
// tables.
func TestTapeSweepStressRace(t *testing.T) {
	for name, d := range tapeParityDesigns(t) {
		t.Run(name, func(t *testing.T) {
			want, err := Reference(d, Options{Workers: 1, KeepWaves: true, Margins: true})
			if err != nil {
				t.Fatal(err)
			}
			const runs = 8
			results := make([]*Result, runs)
			errs := make([]error, runs)
			var wg sync.WaitGroup
			for i := 0; i < runs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					opts := Options{Workers: 1 + i%3, KeepWaves: true, Margins: true}
					results[i], errs[i] = Run(d, opts)
				}(i)
			}
			wg.Wait()
			for i := 0; i < runs; i++ {
				if errs[i] != nil {
					t.Fatalf("concurrent run %d: %v", i, errs[i])
				}
				sameReports(t, fmt.Sprintf("concurrent run %d", i), want, results[i])
			}
		})
	}
}
