package gen

import (
	"fmt"
	"testing"

	"scaldtv/internal/verify"
)

// The knob defaults must be invisible: spelling out the historical shape
// (32-bit datapath, two decode levels, no feedback) produces byte-for-byte
// the same source as leaving the knobs zero, so every existing golden,
// test and benchmark keeps its exact workload.
func TestKnobDefaultsMatchLegacyShape(t *testing.T) {
	plain := Source(Config{Chips: 102, Cases: 2, Inject: 1})
	spelled := Source(Config{Chips: 102, Cases: 2, Inject: 1, Width: 32, Depth: 2})
	if plain != spelled {
		t.Fatal("Width=32/Depth=2 must reproduce the default source exactly")
	}
}

// Every knob setting must still produce a design that compiles and
// verifies cleanly — wider and narrower datapaths, deeper decode chains,
// and combinational feedback loops that have to relax to a fixed point.
func TestKnobVariantsVerifyClean(t *testing.T) {
	cfgs := []Config{
		{Chips: 3 * chipsPerStage, Width: 8},
		{Chips: 3 * chipsPerStage, Width: 16},
		{Chips: 3 * chipsPerStage, Width: 64},
		{Chips: 3 * chipsPerStage, Depth: 5},
		{Chips: 3 * chipsPerStage, Feedback: 1.0},
		{Chips: 6 * chipsPerStage, Width: 48, Depth: 4, Feedback: 0.5},
	}
	for _, cfg := range cfgs {
		cfg := cfg
		name := fmt.Sprintf("w%d_d%d_fb%.2f", cfg.Width, cfg.Depth, cfg.Feedback)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d, rep, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Primitives == 0 {
				t.Fatal("empty design")
			}
			res, err := verify.Run(d, verify.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations[:min(len(res.Violations), 5)] {
				t.Errorf("violation: %v", v)
			}
		})
	}
}

// The feedback knob must manufacture genuine combinational cycles: the
// levelization has to report feedback SCCs, and both the Reference FIFO
// and the tape's wavefront sweep must relax them to the same clean report.
func TestFeedbackKnobCreatesRelaxableSCCs(t *testing.T) {
	d, _, err := Generate(Config{Chips: 4 * chipsPerStage, Feedback: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	lev := d.Levelization()
	if lev.Feedback == 0 {
		t.Fatal("Feedback=0.75 produced no feedback SCCs")
	}
	serial, err := verify.Reference(d, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wave, err := verify.Run(d, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Errors() || wave.Errors() {
		t.Fatalf("feedback loops must converge cleanly: serial=%v wavefront=%v",
			serial.Violations, wave.Violations)
	}
	if len(serial.Violations) != len(wave.Violations) {
		t.Fatalf("schedules disagree: %d vs %d violations",
			len(serial.Violations), len(wave.Violations))
	}
}
