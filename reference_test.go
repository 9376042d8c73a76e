package scaldtv

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scaldtv/internal/verify"
)

// TestReferenceParityExamples is the engine-vs-oracle contract on every
// example design: under each delay model the goldens use, the compiled
// tape's JSON report (Run) equals the Reference engine's byte for byte, at
// Workers 1, 2 and 8.
func TestReferenceParityExamples(t *testing.T) {
	designs, err := filepath.Glob(filepath.Join("examples", "*", "*.scald"))
	if err != nil {
		t.Fatal(err)
	}
	if len(designs) == 0 {
		t.Fatal("no .scald designs under examples/")
	}
	models := []DelayModel{MinMaxDelays{}, StatisticalDelays{}, AnalyticDelays{}}
	for _, path := range designs {
		name := strings.TrimSuffix(filepath.Base(path), ".scald")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			d, err := Compile(string(src) + "\n" + Library)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range models {
				ref, err := verify.Reference(d, Options{Workers: 1, Delays: m})
				if err != nil {
					t.Fatalf("%s: reference: %v", m.Name(), err)
				}
				want, err := JSONReport(ref)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 2, 8} {
					res, err := Verify(d, Options{Workers: w, Delays: m})
					if err != nil {
						t.Fatalf("%s workers=%d: %v", m.Name(), w, err)
					}
					got, err := JSONReport(res)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s workers=%d: tape report differs from Reference\n--- tape ---\n%s\n--- reference ---\n%s",
							m.Name(), w, got, want)
					}
				}
			}
		})
	}
}

// TestUpdateGateKindSwap edits the hazard example's AND clock gate into a
// CHG gate.  netlist.Diff treats the same-shape swap as a parameter edit,
// so the session keeps its compiled tape; evaluation must follow the
// gate's new kind, and the incremental report must equal a scratch run and
// Reference, at every worker count.
func TestUpdateGateKindSwap(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("examples", "hazard", "hazard.scald"))
	if err != nil {
		t.Fatal(err)
	}
	const from, to = `and "CLOCK GATE"`, `chg "CLOCK GATE"`
	if !bytes.Contains(src, []byte(from)) {
		t.Fatalf("hazard example has no %s", from)
	}
	edited := strings.Replace(string(src), from, to, 1)
	for _, w := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			d, err := Compile(string(src))
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Workers: w, KeepWaves: true}
			V := NewVerifier(d, opts)
			if _, err := V.Verify(); err != nil {
				t.Fatal(err)
			}
			nd, err := Compile(edited)
			if err != nil {
				t.Fatal(err)
			}
			inc, incremental, err := V.Update(nd)
			if err != nil {
				t.Fatal(err)
			}
			if !incremental {
				t.Fatal("same-shape gate swap did not take the incremental path")
			}
			got, err := JSONReport(inc)
			if err != nil {
				t.Fatal(err)
			}
			for name, run := range map[string]func(*Design, Options) (*Result, error){
				"scratch": Verify, "reference": verify.Reference,
			} {
				sd, err := Compile(edited)
				if err != nil {
					t.Fatal(err)
				}
				res, err := run(sd, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := JSONReport(res)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("incremental report differs from %s\n--- incremental ---\n%s\n--- %s ---\n%s",
						name, got, name, want)
				}
			}
		})
	}
}
