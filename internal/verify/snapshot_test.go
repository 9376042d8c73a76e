package verify

import (
	"fmt"
	"math/rand"
	"testing"

	"scaldtv/internal/gen"
	"scaldtv/internal/netlist"
)

// The snapshot property under test: marshal → unmarshal → Restore on an
// independently elaborated copy of the design yields a session whose
// result and whose every subsequent Reverify are bit-identical to the
// live session the snapshot was taken from — for every worker count —
// and to a from-scratch run of the edited design (Reference, for the
// intra row).  Running the restored session
// against a separate *Design instance proves the snapshot smuggles no
// process-local state.

func TestSnapshotRoundTrip(t *testing.T) {
	type cfgCase struct {
		name string
		cfg  gen.Config
		ref  bool // compare against Reference instead of Run
	}
	cfgs := []cfgCase{
		{"plain", gen.Config{Chips: 34, Cases: 2, Inject: 1}, false},
		{"varcycle", gen.Config{Chips: 51, VariableCycle: true, Cases: 2}, false},
		{"intra", gen.Config{Chips: 34, Cases: 2, Inject: 1}, true},
	}
	const steps = 3
	for _, workers := range []int{1, 2, 8} {
		for ci, c := range cfgs {
			c, workers, ci := c, workers, ci
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				t.Parallel()
				d1, _, err := gen.Generate(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				d2, _, err := gen.Generate(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{Workers: workers, KeepWaves: true, Margins: true}
				scratchRun := Run
				if c.ref {
					scratchRun = Reference
				}
				V1 := NewVerifier(d1, opts)
				res1, err := V1.Verify()
				if err != nil {
					t.Fatal(err)
				}

				snap, err := V1.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				data, err := snap.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				decoded, err := UnmarshalSnapshot(data)
				if err != nil {
					t.Fatal(err)
				}
				V2, err := Restore(d2, opts, decoded)
				if err != nil {
					t.Fatal(err)
				}
				if !V2.Result().Stats.Cached {
					t.Error("restored result not marked cached")
				}
				sameReports(t, "restore", res1, V2.Result())

				// Identically seeded edit sequences on the two design
				// instances produce identical edits; both sessions must
				// reverify to identical reports, and match scratch.
				rng1 := rand.New(rand.NewSource(int64(100*ci + workers)))
				rng2 := rand.New(rand.NewSource(int64(100*ci + workers)))
				for step := 0; step < steps; step++ {
					ch1, desc := randomEdit(t, d1, rng1)
					ch2, _ := randomEdit(t, d2, rng2)
					r1, err := V1.Reverify(ch1)
					if err != nil {
						t.Fatalf("step %d (%s): live: %v", step, desc, err)
					}
					r2, err := V2.Reverify(ch2)
					if err != nil {
						t.Fatalf("step %d (%s): restored: %v", step, desc, err)
					}
					if !r2.Stats.Incremental {
						t.Fatalf("step %d (%s): restored session fell back to a full run", step, desc)
					}
					sameReports(t, fmt.Sprintf("step %d (%s) live vs restored", step, desc), r1, r2)
					scratch, err := scratchRun(d2, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameReports(t, fmt.Sprintf("step %d (%s) restored vs scratch", step, desc), scratch, r2)
				}
			})
		}
	}
}

// TestSnapshotAcrossOptions locks that a snapshot taken under one
// execution configuration restores under another: the fixed point is
// engine-independent, so only report-relevant options are part of the
// store key.
func TestSnapshotAcrossOptions(t *testing.T) {
	d1, _, err := gen.Generate(gen.Config{Chips: 34, Cases: 2, Inject: 1})
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := gen.Generate(gen.Config{Chips: 34, Cases: 2, Inject: 1})
	if err != nil {
		t.Fatal(err)
	}
	save := Options{KeepWaves: true, Margins: true, Workers: 1}
	load := Options{KeepWaves: true, Margins: true, Workers: 8}
	V1 := NewVerifier(d1, save)
	res1, err := V1.Verify()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := V1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	V2, err := Restore(d2, load, decoded)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "cross-options restore", res1, V2.Result())
	if Fingerprint(d1, save) != Fingerprint(d2, load) {
		t.Error("execution-only option changes must not change the verification fingerprint")
	}
	if Fingerprint(d1, save) == Fingerprint(d1, Options{MaxPasses: 7}) {
		t.Error("MaxPasses must be part of the verification fingerprint")
	}
}

// TestSnapshotRefusesNonConverged locks that a run that hit the pass cap
// cannot be persisted: its waveforms are not a fixed point.
func TestSnapshotRefusesNonConverged(t *testing.T) {
	d, _, err := gen.Generate(gen.Config{Chips: 34})
	if err != nil {
		t.Fatal(err)
	}
	V := NewVerifier(d, Options{MaxPasses: 1})
	res, err := V.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 || res.Violations[0].Kind != ConvergenceViolation {
		t.Fatal("expected a convergence violation under MaxPasses=1")
	}
	if _, err := V.Snapshot(); err == nil {
		t.Error("Snapshot accepted a non-converged result")
	}
}

// TestSnapshotRestoreRejects exercises the decode- and restore-time
// validation paths: wrong magic, wrong version, truncation, and a
// snapshot of a different design.
func TestSnapshotRestoreRejects(t *testing.T) {
	d, _, err := gen.Generate(gen.Config{Chips: 34, Cases: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{KeepWaves: true}
	V := NewVerifier(d, opts)
	if _, err := V.Verify(); err != nil {
		t.Fatal(err)
	}
	snap, err := V.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := UnmarshalSnapshot([]byte("not a snapshot")); err == nil {
		t.Error("decoded garbage")
	}
	bad := append([]byte(nil), data...)
	bad[len(snapshotMagic)] = 99 // version field
	if _, err := UnmarshalSnapshot(bad); err == nil {
		t.Error("decoded unknown version")
	}
	for _, cut := range []int{len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, err := UnmarshalSnapshot(data[:cut]); err == nil {
			t.Errorf("decoded truncation at %d bytes", cut)
		}
	}
	if _, err := UnmarshalSnapshot(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("decoded trailing bytes")
	}

	other, _, err := gen.Generate(gen.Config{Chips: 51})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(other, opts, snap); err == nil {
		t.Error("restored a snapshot onto a different design")
	}
	if netlist.Fingerprint(other) == snap.DesignFP {
		t.Error("fingerprint collision between distinct designs")
	}
}
