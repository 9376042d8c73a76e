package scaldtv

import (
	"bytes"
	"testing"

	"scaldtv/internal/gen"
	"scaldtv/internal/report"
	"scaldtv/internal/verify"
)

// FuzzTapeDifferential fuzzes the engine-vs-oracle equivalence over the
// generated design family: for any design shape and worker count, the
// compiled evaluation tape (with its persistent memos and pooled run
// state) must render a JSON report byte-identical to the Reference
// engine's.  The fuzzer steers the generator's structural knobs —
// pipeline size, datapath width, decode depth, injected failures, case
// analysis, variable-length cycles, feedback fraction — plus the case
// parallelism, so a wrong gate table, a stale memo hit or a pool reuse
// bug shows up as a report diff.
func FuzzTapeDifferential(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint8(0), uint8(0), false, uint8(0), uint8(1))
	f.Add(uint8(12), uint8(1), uint8(2), uint8(1), false, uint8(0), uint8(2))
	f.Add(uint8(25), uint8(2), uint8(3), uint8(2), true, uint8(2), uint8(1))
	f.Add(uint8(40), uint8(0), uint8(4), uint8(3), false, uint8(5), uint8(2))
	f.Add(uint8(8), uint8(3), uint8(1), uint8(0), true, uint8(9), uint8(8))
	f.Fuzz(func(t *testing.T, chips, inject, cases, depth uint8, varCycle bool, feedback, workers uint8) {
		cfg := gen.Config{
			Chips:         1 + int(chips)%60,
			Inject:        int(inject) % 4,
			Cases:         int(cases) % 5,
			Depth:         int(depth) % 5,
			VariableCycle: varCycle,
			Width:         8,
			Feedback:      float64(feedback%10) / 10,
		}
		d, _, err := gen.Generate(cfg)
		if err != nil {
			t.Skip() // an unbuildable shape is the generator's concern
		}
		opts := verify.Options{Workers: 1 + int(workers)%8, KeepWaves: true, Margins: true}
		tapeRes, err := verify.Run(d, opts)
		if err != nil {
			t.Fatalf("tape run: %v", err)
		}
		refRes, err := verify.Reference(d, opts)
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		tj, err := report.JSON(tapeRes)
		if err != nil {
			t.Fatalf("tape json: %v", err)
		}
		rj, err := report.JSON(refRes)
		if err != nil {
			t.Fatalf("reference json: %v", err)
		}
		if !bytes.Equal(tj, rj) {
			t.Fatalf("tape and reference reports differ for %+v %+v:\ntape:      %s\nreference: %s",
				cfg, opts, tj, rj)
		}
	})
}
