package expand_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scaldtv/internal/assertion"
	"scaldtv/internal/expand"
	"scaldtv/internal/gen"
	"scaldtv/internal/hdl"
	"scaldtv/internal/lib"
	"scaldtv/internal/netlist"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.txt")

// pinDesign is one source whose elaborated netlist the fingerprint table
// pins.
type pinDesign struct {
	name, src string
}

// shapeConfig mirrors the benchmark's cold-design shapes: inject 0-3 slow
// paths, decode depth 2 or 3, feedback on none or 5% of stages.
func shapeConfig(chips, shape int) gen.Config {
	return gen.Config{Chips: chips, Inject: shape % 4, Depth: 2 + shape/4%2, Feedback: 0.05 * float64(shape/8), Cases: 2}
}

// pinDesigns lists every example (with the component library appended,
// as scaldtv -lib does), the 16 generator shapes at 51 chips, and one
// 1003-chip design.
func pinDesigns(t testing.TB) []pinDesign {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.scald"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example designs: %v", err)
	}
	var out []pinDesign
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name := "example/" + strings.TrimSuffix(filepath.Base(p), ".scald")
		out = append(out, pinDesign{name, string(src) + "\n" + lib.Prelude})
	}
	for s := 0; s < 16; s++ {
		out = append(out, pinDesign{fmt.Sprintf("shape%02d/chips=51", s), gen.Source(shapeConfig(51, s))})
	}
	out = append(out, pinDesign{"gen/chips=1003", gen.Source(gen.Config{Chips: 1003, Inject: 1, Cases: 2})})
	return out
}

func expandSource(t testing.TB, src string) *netlist.Design {
	t.Helper()
	f, err := hdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := expand.Expand(f)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestExpandFingerprintPin requires the elaborated netlists to match the
// checked-in fingerprint table exactly: net and primitive order, every
// name and assertion spelling, port names and connectivity.  Regenerate
// with -update only for an intended change to elaboration.
func TestExpandFingerprintPin(t *testing.T) {
	golden := filepath.Join("testdata", "fingerprints.txt")
	var sb strings.Builder
	sb.WriteString("# design nets prims fingerprint\n")
	for _, pd := range pinDesigns(t) {
		d := expandSource(t, pd.src)
		fmt.Fprintf(&sb, "%s %d %d %016x\n", pd.name, len(d.Nets), len(d.Prims), netlist.Fingerprint(d))
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
		t.Errorf("elaborated netlists differ from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// checkNetInvariant reports the first net whose Base or assertion differs
// from a fresh parse of its full name.  The expander builds vector bits
// from an already-parsed base and a shared *Assertion instead of
// re-parsing each bit name; this is the equivalence that shortcut relies
// on.
func checkNetInvariant(d *netlist.Design) error {
	for i := range d.Nets {
		n := &d.Nets[i]
		sig, err := assertion.Parse(n.Name)
		if err != nil {
			return fmt.Errorf("net %d %q does not parse: %v", i, n.Name, err)
		}
		if n.Base != sig.Base {
			return fmt.Errorf("net %d %q: Base %q, parse gives %q", i, n.Name, n.Base, sig.Base)
		}
		if got, want := n.Assert.String(), sig.Assert.String(); got != want {
			return fmt.Errorf("net %d %q: assertion %q, parse gives %q", i, n.Name, got, want)
		}
		if (n.Assert == nil) != (sig.Assert == nil) {
			return fmt.Errorf("net %d %q: assertion presence differs from parse", i, n.Name)
		}
	}
	return nil
}

func TestExpandNetInvariant(t *testing.T) {
	for _, pd := range pinDesigns(t) {
		if err := checkNetInvariant(expandSource(t, pd.src)); err != nil {
			t.Errorf("%s: %v", pd.name, err)
		}
	}
}
