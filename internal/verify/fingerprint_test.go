package verify

import (
	"testing"

	"scaldtv/internal/gen"
)

// TestFingerprintAcrossOptions locks which options key a verification
// outcome: execution-only options (Workers, KeepWaves, Margins) are left
// out, because the report is bit-identical across them, and the pass cap
// is mixed in.
func TestFingerprintAcrossOptions(t *testing.T) {
	d1, _, err := gen.Generate(gen.Config{Chips: 34, Cases: 2, Inject: 1})
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := gen.Generate(gen.Config{Chips: 34, Cases: 2, Inject: 1})
	if err != nil {
		t.Fatal(err)
	}
	save := Options{KeepWaves: true, Margins: true, Workers: 1}
	load := Options{Workers: 8}
	if Fingerprint(d1, save) != Fingerprint(d2, load) {
		t.Error("execution-only option changes must not change the verification fingerprint")
	}
	if Fingerprint(d1, save) == Fingerprint(d1, Options{MaxPasses: 7}) {
		t.Error("MaxPasses must be part of the verification fingerprint")
	}
}
