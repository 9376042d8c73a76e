package expand_test

import (
	"testing"

	"scaldtv/internal/expand"
	"scaldtv/internal/gen"
	"scaldtv/internal/hdl"
	"scaldtv/internal/serr"
)

// FuzzExpand feeds arbitrary HDL through the reader and the macro
// expander.  Whatever the source, Expand must not panic and must return
// either a design or a structured *serr.Error; a design it returns must
// satisfy the per-net invariant (Base and assertion as a fresh parse of
// the net's full name gives them).  The seeds are the example designs
// and small generated Mark IIA shapes; testdata/fuzz/FuzzExpand adds
// hand-written vector and assertion edge cases.
func FuzzExpand(f *testing.F) {
	for _, pd := range pinDesigns(f) {
		if len(pd.src) < 64<<10 {
			f.Add(pd.src)
		}
	}
	for _, cfg := range []gen.Config{
		{Chips: 17},
		{Chips: 17, Inject: 1, Cases: 2},
		{Chips: 34, Depth: 3, Feedback: 0.5, Width: 8},
		{Chips: 17, VariableCycle: true, Cases: 2, Width: 16},
	} {
		f.Add(gen.Source(cfg))
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := hdl.Parse(src)
		if err != nil {
			return
		}
		d, _, err := expand.Expand(file)
		if err != nil {
			if _, ok := err.(*serr.Error); !ok {
				t.Fatalf("Expand returned %T, want *serr.Error: %v", err, err)
			}
			return
		}
		if d == nil {
			t.Fatal("Expand returned neither a design nor an error")
		}
		if err := checkNetInvariant(d); err != nil {
			t.Fatal(err)
		}
	})
}
