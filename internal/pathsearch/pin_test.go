package pathsearch

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"scaldtv/internal/expand"
	"scaldtv/internal/gen"
	"scaldtv/internal/hdl"
	"scaldtv/internal/lib"
	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.txt")

// corpusDesign is one design the path analyses are pinned and
// cross-checked on.
type corpusDesign struct {
	name string
	d    *netlist.Design
}

// paramChains builds a parametric design of independent two-stage paths
// sharing the load/temp parameters, each ending in a set-up/hold
// checker.
func paramChains(chains int) string {
	var sb strings.Builder
	sb.WriteString(`design PARAMWIDE
period 50ns
clockunit 6.25ns
defaultwire 0ns 0ns
param load = 1.0 range 0.5 3.5
param temp = 1.0 range 0.8 1.2
`)
	for i := 0; i < chains; i++ {
		fmt.Fprintf(&sb, "and G%d delay=(1.0+0.5*load, 3.0+4.0*load+1.0*temp) (\"EN .S0-7\", \"D0 .S0-7\") -> (A%d)\n", i, i)
		fmt.Fprintf(&sb, "buf B%d delay=(0.5+0.25*temp, 2.0+1.5*temp) (A%d) -> (Q%d)\n", i, i, i)
		fmt.Fprintf(&sb, "setuphold CK%d setup=4.0 hold=1.0 (Q%d, \"MCK .P4-6\")\n", i, i)
	}
	return sb.String()
}

// corpus lists every example (pipeline and registerfile with the
// component library appended, as they need it), three generated shapes
// — cases with an injected slow path, feedback loops, and a
// variable-length cycle — and a 64-chain parametric design.
func corpus(t *testing.T) []corpusDesign {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.scald"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example designs: %v", err)
	}
	type source struct{ name, src string }
	var srcs []source
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(p), ".scald")
		src := string(b)
		if name == "pipeline" || name == "registerfile" {
			src += "\n" + lib.Prelude
		}
		srcs = append(srcs, source{"example/" + name, src})
	}
	srcs = append(srcs,
		source{"gen/chips=340/inject=1/cases=2", gen.Source(gen.Config{Chips: 340, Inject: 1, Cases: 2})},
		source{"gen/chips=102/feedback=0.3/depth=3", gen.Source(gen.Config{Chips: 102, Feedback: 0.3, Depth: 3})},
		source{"gen/chips=102/variablecycle/cases=2", gen.Source(gen.Config{Chips: 102, VariableCycle: true, Cases: 2})},
		source{"param/chains=64", paramChains(64)},
	)
	out := make([]corpusDesign, 0, len(srcs))
	for _, s := range srcs {
		f, err := hdl.Parse(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		d, _, err := expand.Expand(f)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		out = append(out, corpusDesign{s.name, d})
	}
	return out
}

// sortedKeys returns a map's labels in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func hashEndpoints(w io.Writer, eps []Endpoint) {
	eps = append([]Endpoint(nil), eps...)
	sort.Slice(eps, func(i, j int) bool {
		a, b := eps[i], eps[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Min != b.Min {
			return a.Min < b.Min
		}
		return a.Max < b.Max
	})
	for _, e := range eps {
		fmt.Fprintf(w, "%s\x00%s\x00%d\x00%d\n", e.From, e.To, e.Min, e.Max)
	}
}

func hashDist(w io.Writer, d Dist) {
	fmt.Fprintf(w, "%d %d %d", d.Start, d.Step, len(d.P))
	for _, p := range d.P {
		fmt.Fprintf(w, " %x", math.Float64bits(p))
	}
	fmt.Fprintln(w)
}

func hashDists(w io.Writer, sites map[string]SiteDist) {
	for _, label := range sortedKeys(sites) {
		sd := sites[label]
		fmt.Fprintf(w, "%s\x00%s\x00%s\x00%d\x00%d\n", label, sd.To, sd.From, sd.WCMin, sd.WCMax)
		hashDist(w, sd.Late)
		hashDist(w, sd.Early)
	}
}

// hashTermSet writes a term set in canonical order: by path class, then
// constant.
func hashTermSet(w io.Writer, ts []Term, exact bool) {
	ts = append([]Term(nil), ts...)
	sort.Slice(ts, func(i, j int) bool {
		if ki, kj := ts[i].key(), ts[j].key(); ki != kj {
			return ki < kj
		}
		return ts[i].Const < ts[j].Const
	})
	fmt.Fprintf(w, "%v %d", exact, len(ts))
	for _, t := range ts {
		fmt.Fprintf(w, " %d:%s", t.Const, t.key())
	}
	fmt.Fprintln(w)
}

func hashTerms(w io.Writer, sites map[string]*SiteTerms) {
	for _, label := range sortedKeys(sites) {
		st := sites[label]
		fmt.Fprintf(w, "%s\x00%s\n", label, st.To)
		hashTermSet(w, st.Late, st.LateExact)
		hashTermSet(w, st.Early, st.EarlyExact)
	}
}

// TestPathFingerprintPin requires every path analysis to reproduce the
// checked-in fingerprint table at full precision: the worst-case
// endpoints, the selftimed module delay, every site's arrival
// distributions down to the float bits, and every site's term sets with
// their exact flags.  Regenerate with -update only for an intended
// change to the analyses.
func TestPathFingerprintPin(t *testing.T) {
	golden := filepath.Join("testdata", "fingerprints.txt")
	var sb strings.Builder
	sb.WriteString("# design loops endpoints sites analyze dist terms\n")
	for _, cd := range corpus(t) {
		a, err := Analyze(cd.d)
		if err != nil {
			t.Fatalf("%s: %v", cd.name, err)
		}
		dists, _, err := AnalyzeDist(cd.d, 0)
		if err != nil {
			t.Fatalf("%s: %v", cd.name, err)
		}
		terms, _ := AnalyzeAnalytic(cd.d, 0)
		ha, hd, ht := fnv.New64a(), fnv.New64a(), fnv.New64a()
		hashEndpoints(ha, a.Endpoints)
		hashDists(hd, dists)
		hashTerms(ht, terms)
		fmt.Fprintf(&sb, "%s %d %d %d/%d %016x %016x %016x\n", cd.name, len(a.CombLoops), len(a.Endpoints),
			len(dists), len(terms), ha.Sum64(), hd.Sum64(), ht.Sum64())
		if cd.name == "example/selftimed" {
			lat, err := ModuleDelay(cd.d, []string{"A OP", "B OP"}, []string{"SUM"})
			if err != nil {
				t.Fatalf("%s: %v", cd.name, err)
			}
			fmt.Fprintf(&sb, "%s/module %d %d\n", cd.name, lat.Min, lat.Max)
		}
	}
	got := sb.String()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("fingerprint table missing (run go test -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("path analyses differ from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestAnalysesAgree extends TestAnalyzeDistChain's cross-check to the
// corpus and to all three instances: at every end pin whose term sets
// are exact, the late term set evaluated at the parameter defaults is
// the longest worst-case arrival over all starts and the distribution's
// WCMax, and the early term set is the shortest.
func TestAnalysesAgree(t *testing.T) {
	for _, cd := range corpus(t) {
		a, err := Analyze(cd.d)
		if err != nil {
			t.Fatalf("%s: %v", cd.name, err)
		}
		dists, _, err := AnalyzeDist(cd.d, 0)
		if err != nil {
			t.Fatalf("%s: %v", cd.name, err)
		}
		terms, _ := AnalyzeAnalytic(cd.d, 0)
		wc := map[string]tick.Range{}
		for _, e := range a.Endpoints {
			r, ok := wc[e.To]
			if !ok {
				r = tick.Range{Min: e.Min, Max: e.Max}
			}
			wc[e.To] = tick.Range{Min: min(r.Min, e.Min), Max: max(r.Max, e.Max)}
		}
		if len(wc) != len(dists) || len(wc) != len(terms) {
			t.Errorf("%s: %d worst-case end pins, %d distributions, %d term sets", cd.name, len(wc), len(dists), len(terms))
		}
		defs := cd.d.ParamDefaults()
		checked := 0
		for _, label := range sortedKeys(terms) {
			st := terms[label]
			if !st.LateExact || !st.EarlyExact {
				continue
			}
			checked++
			late, _ := EvalTerms(st.Late, cd.d.DelayFns, true, defs)
			early, _ := EvalTerms(st.Early, cd.d.DelayFns, false, defs)
			if r := wc[label]; late != r.Max || early != r.Min {
				t.Errorf("%s %s: terms give %v/%v, Analyze %v/%v", cd.name, label, early, late, r.Min, r.Max)
			}
			if sd := dists[label]; late != sd.WCMax {
				t.Errorf("%s %s: late terms give %v, the distribution's WCMax is %v", cd.name, label, late, sd.WCMax)
			}
		}
		if checked == 0 {
			t.Errorf("%s: no end pin with exact term sets", cd.name)
		}
	}
}
