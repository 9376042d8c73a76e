package scaldtv

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONReportByteDeterminism locks the contract the scaldtvd service
// depends on: the JSON report is byte-identical for every case-worker
// count, for every example design.  (The report deliberately carries no
// event or timing counters, which are schedule-dependent.)
// TestReferenceParityExamples holds the same reports to verify.Reference.
func TestJSONReportByteDeterminism(t *testing.T) {
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
			text := string(src) + "\n" + Library
			var baseline []byte
			for _, cfg := range []Options{
				{Workers: 1},
				{Workers: 2},
				{Workers: 8},
			} {
				res, err := VerifySource(text, cfg)
				if err != nil {
					t.Fatal(err)
				}
				out, err := JSONReport(res)
				if err != nil {
					t.Fatal(err)
				}
				if baseline == nil {
					baseline = out
					if !bytes.Contains(out, []byte(`"schema": 1`)) {
						t.Fatalf("report missing schema version:\n%s", out)
					}
					continue
				}
				if !bytes.Equal(out, baseline) {
					t.Errorf("JSON for %+v differs from Workers=1 baseline\n--- got ---\n%s\n--- want ---\n%s",
						cfg, out, baseline)
				}
			}
		})
	}
}

// TestExploreJSONByteDeterminism extends the byte-determinism contract
// to the two report sections this schema version added: the case
// exploration (candidate ranking, chosen splits and minimal case set)
// and the statistical delay analysis.  Exploration probes reuse the
// engine's retained fixed point and the statistical pass integrates on
// a fixed grid, so neither may depend on worker counts.
func TestExploreJSONByteDeterminism(t *testing.T) {
	subjects := []struct {
		name    string
		example string
		opts    Options
	}{
		{"explore-caseanalysis", "caseanalysis", Options{Explore: true}},
		{"explore-hazard", "hazard", Options{Explore: true}},
		{"statistical-selftimed", "selftimed", Options{Delays: DelayStatistical}},
	}
	for _, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("examples", sub.example, sub.example+".scald"))
			if err != nil {
				t.Fatal(err)
			}
			text := string(src) + "\n" + Library
			var baseline []byte
			for _, cfg := range []Options{
				{Workers: 1},
				{Workers: 2},
				{Workers: 8},
			} {
				cfg.Explore = sub.opts.Explore
				cfg.Delays = sub.opts.Delays
				res, err := VerifySource(text, cfg)
				if err != nil {
					t.Fatal(err)
				}
				out, err := JSONReport(res)
				if err != nil {
					t.Fatal(err)
				}
				if baseline == nil {
					baseline = out
					if !bytes.Contains(out, []byte(`"schema": 1`)) {
						t.Fatalf("report missing schema version:\n%s", out)
					}
					want := []byte(`"exploration"`)
					if sub.opts.Delays == DelayStatistical {
						want = []byte(`"delay_model": "statistical"`)
					}
					if !bytes.Contains(out, want) {
						t.Fatalf("report missing %s section:\n%s", want, out)
					}
					continue
				}
				if !bytes.Equal(out, baseline) {
					t.Errorf("JSON for %+v differs from Workers=1 baseline\n--- got ---\n%s\n--- want ---\n%s",
						cfg, out, baseline)
				}
			}
		})
	}
}
