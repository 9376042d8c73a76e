package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords loads the untraced runs of an -out file, grouped by
// workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method), the definition the benchmark's spread is judged
// by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// verdict judges set b against the baseline set a for one metric:
// "regressed" when b's median is worse than a's by more than the bound,
// "unresolved" when either set spreads wider than the bound (unless every
// run of b beats every run of a), else "ok".
func verdict(m metric, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := mb/ma - 1
	if m.Better == "higher" {
		worse = 1 - mb/ma
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		if allBetter(m, a, b) {
			return "ok"
		}
		return "unresolved"
	}
	if worse > m.Bound {
		return "regressed"
	}
	return "ok"
}

func allBetter(m metric, a, b []float64) bool {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, their ratio, the bound, the wider spread and the verdict.  It
// reports whether every row is ok.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-13s %-17s %-6s %6s %14s %14s %8s %6s %7s  %s\n",
		"workload", "metric", "unit", "runs", "median A", "median B", "B/A", "bound", "spread", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra[m.Name], rb[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(m, va, vb)
			ok = ok && v == "ok"
			fmt.Fprintf(w, "%-13s %-17s %-6s %3d/%-3d %14.4f %14.4f %8.4f %6.2f %7.4f  %s\n",
				wl.name, m.Name, m.Unit, len(va), len(vb), median(va), median(vb), median(vb)/median(va),
				m.Bound, max(spread(va), spread(vb)), v)
		}
	}
	return ok, nil
}
