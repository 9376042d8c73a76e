package main

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"
)

// smokeConfig runs a workload on a few-stage design for a handful of
// ops, with every check on.
func smokeConfig(t *testing.T, trace bool, ops int) config {
	return config{Seed: 1, Seconds: 0.001, Trace: trace, MinOps: ops, TmpDir: t.TempDir(), small: true}
}

// layerSpans are the spans each workload must record in a traced run.
var layerSpans = map[string][]string{
	"cold_1k":      {"op", "hdl.parse", "expand.expand", "netlist.levelize", "tape.compile", "verify.run", "report.json"},
	"edit_10k":     {"op", "hdl.parse", "expand.expand", "verify.update", "report.json"},
	"service_mix":  {"op"},
	"delay_models": {"op", "hdl.parse", "expand.expand", "verify.run", "verify.surface_eval", "report.json"},
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, rec, err := runWorkload(w, smokeConfig(t, trace, 5), func(string) {})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 5 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", w.name, trace, m.Name, v)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, m.Name, v.Value)
				}
			}
			if !trace {
				continue
			}
			seen := map[string]bool{}
			for _, o := range rec.ops {
				for _, sp := range o.spans {
					seen[sp.Name] = true
					if sp.End < sp.Start {
						t.Errorf("%s: span %s ends before it starts", w.name, sp.Name)
					}
				}
			}
			for _, name := range layerSpans[w.name] {
				if !seen[name] {
					t.Errorf("%s: no %s span in the traced run", w.name, name)
				}
			}
		}
	}
}

// TestCorruptReportCounted flips one byte of every report before its
// check and requires the benchmark to count the ops as failed.
func TestCorruptReportCounted(t *testing.T) {
	for _, w := range workloads {
		cfg := smokeConfig(t, false, 7)
		cfg.corrupt = true
		res, _, err := runWorkload(w, cfg, func(string) {})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted reports not counted: correct=%v failed=%d", w.name, res.Correct, res.Failed)
		}
	}
}

// TestBenchmarkJSON keeps the checked-in BENCHMARK.json equal to what
// -spec prints from the workload and metric tables.
func TestBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with go run . -spec > ../BENCHMARK.json")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(n=4) on small samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestOpLatency(t *testing.T) {
	ms := time.Millisecond
	one := []sample{{lat: 3 * ms}, {lat: 1 * ms}, {lat: 2 * ms}}
	if got := opLatency(one); got != 2 {
		t.Errorf("one kind: %v, want the median 2", got)
	}
	two := []sample{{lat: 8 * ms, kind: "a"}, {lat: 30 * ms, kind: "b"}, {lat: 12 * ms, kind: "a"}, {lat: 50 * ms, kind: "b"}}
	if got := opLatency(two); math.Abs(got-20) > 1e-9 {
		t.Errorf("two kinds: %v, want the geometric mean 20 of the medians 10 and 40", got)
	}
}

func TestVerdict(t *testing.T) {
	lat := endToEnd[0] // lower is better, bound 0.24
	base := []float64{10, 10.1, 9.9, 10, 10.05}
	if v := verdict(lat, base, []float64{10.5, 10.4, 10.6, 10.5, 10.55}); v != "ok" {
		t.Errorf("5%% slower: %s, want ok", v)
	}
	if v := verdict(lat, base, []float64{13, 13.1, 12.9, 13, 13.05}); v != "regressed" {
		t.Errorf("30%% slower: %s, want regressed", v)
	}
	thr := metric{Name: "throughput", Better: "higher", Bound: 0.2}
	if v := verdict(thr, base, []float64{7, 7.1, 6.9, 7, 7.05}); v != "regressed" {
		t.Errorf("30%% lower throughput: %s, want regressed", v)
	}
	if v := verdict(lat, base, []float64{5, 10, 20, 8, 15}); v != "unresolved" {
		t.Errorf("wide spread: %s, want unresolved", v)
	}
}
