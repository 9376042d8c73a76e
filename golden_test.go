package scaldtv

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

const fig25Source = `
design "FIG 2-5"
period 50ns
clockunit 6.25ns
defaultwire 0ns 2ns
skew precision -1ns 1ns
` + Library + `
mux2 "ADR MUX" delay=(1.2,3.3) seldelay=(0.3,1.2) ("CLK .P0-4" &Z, "READ ADR .S4-9"<0:3>, "W ADR .S0-6"<0:3>) -> (ADR<0:3>)
wire ADR 0ns 6ns
and "WE GATE" delay=(1.0,2.9) (-"CK .P2-3 L" &H, -"WRITE .S0-6 L") -> (WE)
use "16W RAM 10145A" RAM1 SIZE=32 (I="W DATA .S0-6"<0:31>, A=ADR<0:3>, WE=WE, CS="CS SEL .S0-8", DO=DO)
use "REG 10176" OUTREG SIZE=32 (CK="CLK .P0-4", I=DO, Q=Q<0:31>)
`

// TestGoldenFig25Listings locks the exact text of the Fig 3-10 timing
// summary and Fig 3-11 error listing for the register-file example, so a
// semantic regression anywhere in the pipeline shows up as a diff.
func TestGoldenFig25Listings(t *testing.T) {
	res, err := VerifySource(fig25Source, Options{KeepWaves: true})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(TimingSummary(res, 0))
	sb.WriteString("\n")
	sb.WriteString(ErrorListing(res))
	sb.WriteString("\n")
	sb.WriteString(CrossReference(res))
	got := sb.String()

	path := filepath.Join("testdata", "fig25_listing.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run go test -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestGoldenWaveArt locks the ASCII timing diagram of the same circuit.
func TestGoldenWaveArt(t *testing.T) {
	res, err := VerifySource(fig25Source, Options{KeepWaves: true})
	if err != nil {
		t.Fatal(err)
	}
	got := WaveArt(res, 0, 72)
	path := filepath.Join("testdata", "fig25_waveart.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run go test -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("wave art differs from golden file %s\n--- got ---\n%s", path, got)
	}
}

// TestGoldenExamples locks the full listing output (timing summary per
// case, error listing, cross reference) of every .scald design under
// examples/.  The CI golden job runs exactly this test after smoke-running
// the scaldtv binary over the same designs.  report.Summary is excluded:
// it contains wall-clock times.
func TestGoldenExamples(t *testing.T) {
	designs, err := filepath.Glob(filepath.Join("examples", "*", "*.scald"))
	if err != nil {
		t.Fatal(err)
	}
	if len(designs) == 0 {
		t.Fatal("no .scald designs under examples/")
	}
	for _, path := range designs {
		name := strings.TrimSuffix(filepath.Base(path), ".scald")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The library is appended unconditionally, matching scaldtv -lib;
			// designs that don't use its macros are unaffected.
			res, err := VerifySource(string(src)+"\n"+Library, Options{KeepWaves: true})
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for ci := range res.Cases {
				sb.WriteString(TimingSummary(res, ci))
				sb.WriteString("\n")
			}
			sb.WriteString(ErrorListing(res))
			sb.WriteString("\n")
			sb.WriteString(CrossReference(res))
			got := sb.String()

			golden := filepath.Join("testdata", "examples", name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("golden file missing (run go test -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s differs from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
					path, golden, got, want)
			}
		})
	}
}

// TestGoldenExplore locks the case-exploration listing on the two
// examples that bracket the feature: caseanalysis, where the explorer
// rediscovers the designer's hand-written split, and hazard, where the
// poisoned site is a real timing error no split can discharge.  The CI
// explore job diffs exactly these files.
func TestGoldenExplore(t *testing.T) {
	for _, name := range []string{"caseanalysis", "hazard"} {
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("examples", name, name+".scald"))
			if err != nil {
				t.Fatal(err)
			}
			res, err := VerifySource(string(src)+"\n"+Library, Options{Explore: true})
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			sb.WriteString(ErrorListing(res))
			sb.WriteString("\n")
			sb.WriteString(ExploreListing(res))
			got := sb.String()

			golden := filepath.Join("testdata", "explore", name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("golden file missing (run go test -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("explore listing differs from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
					golden, got, want)
			}
		})
	}
}

// TestGoldenStatistical locks the statistical delay-analysis listing on
// the self-timed example (the design whose margins the worst-case model
// reports as tight; the quadrature model prices them).
func TestGoldenStatistical(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("examples", "selftimed", "selftimed.scald"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := VerifySource(string(src)+"\n"+Library, Options{Delays: DelayStatistical})
	if err != nil {
		t.Fatal(err)
	}
	got := StatListing(res)
	golden := filepath.Join("testdata", "explore", "selftimed_statistical.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run go test -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("statistical listing differs from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

func TestJSONReport(t *testing.T) {
	res, err := VerifySource(fig25Source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := JSONReport(res)
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	for _, want := range []string{
		`"schema": 1`,
		`"design": "FIG 2-5"`,
		`"case_labels"`,
		`"pass": false`,
		`"kind": "SETUP TIME VIOLATED"`,
		`"margin_ns": -1`,
		`"required_ns": 3.5`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %q:\n%s", want, s)
		}
	}
}

func TestLintAPI(t *testing.T) {
	d, err := Compile(fig25Source)
	if err != nil {
		t.Fatal(err)
	}
	findings := Lint(d)
	// The register file's Q output is unread in this fragment: expect the
	// dangling-output warning but no comb-loop errors.
	for _, f := range findings {
		if f.Rule == "comb-loop" {
			t.Errorf("unexpected comb loop: %v", f)
		}
	}
}
