package scaldtv

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scaldtv/internal/store"
)

// TestStoreParityExamples is the acceptance contract of the persistent
// verification store: for every example design and every execution
// configuration, the report served from the store (exact hit), the
// report re-rendered from a restored session, and the report of a
// warm-started re-verification are all byte-identical to a cold run.
func TestStoreParityExamples(t *testing.T) {
	designs, err := filepath.Glob(filepath.Join("examples", "*", "*.scald"))
	if err != nil {
		t.Fatal(err)
	}
	if len(designs) == 0 {
		t.Fatal("no .scald designs under examples/")
	}
	ctx := context.Background()
	for _, path := range designs {
		name := strings.TrimSuffix(filepath.Base(path), ".scald")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			text := string(src) + "\n" + Library
			res, err := VerifySource(text, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			baseline, err := JSONReport(res)
			if err != nil {
				t.Fatal(err)
			}

			st, err := store.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			seed, err := Compile(text)
			if err != nil {
				t.Fatal(err)
			}
			first, err := store.Verify(ctx, st, seed, text, Options{Workers: 1}, true)
			if err != nil {
				t.Fatal(err)
			}
			if first.Provenance != store.Cold {
				t.Fatalf("seeding run provenance %q, want cold", first.Provenance)
			}
			if !bytes.Equal(first.Report, baseline) {
				t.Fatal("store-mediated cold report differs from the plain engine report")
			}

			for i, opts := range []Options{
				{Workers: 1},
				{Workers: 2},
				{Workers: 8},
			} {
				// Exact hit with a restored session: the store key ignores
				// execution options, so every worker configuration hits the
				// seeded entry; the re-rendered report must not drift.
				d, err := Compile(text)
				if err != nil {
					t.Fatal(err)
				}
				oc, err := store.Verify(ctx, st, d, text, opts, true)
				if err != nil {
					t.Fatal(err)
				}
				if oc.Provenance != store.Cached || oc.V == nil {
					t.Fatalf("opts %+v: provenance %q (V=%v), want a cached restore", opts, oc.Provenance, oc.V != nil)
				}
				if !bytes.Equal(oc.Report, baseline) {
					t.Errorf("opts %+v: cached report differs from cold", opts)
				}
				rendered, err := JSONReport(oc.Res)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rendered, baseline) {
					t.Errorf("opts %+v: restored session re-renders a different report\n--- got ---\n%s\n--- want ---\n%s",
						opts, rendered, baseline)
				}

				// Warm start: a distinct pass cap gives a distinct
				// verification key over the same structure, forcing the
				// nearest-snapshot path.  The design is unchanged and
				// converged, so the report must still match cold bytes.
				warmOpts := opts
				warmOpts.MaxPasses = 100000 + i
				dw, err := Compile(text)
				if err != nil {
					t.Fatal(err)
				}
				wc, err := store.Verify(ctx, st, dw, text, warmOpts, true)
				if err != nil {
					t.Fatal(err)
				}
				if wc.Provenance != store.Warm {
					t.Fatalf("opts %+v: provenance %q, want warm", warmOpts, wc.Provenance)
				}
				if !bytes.Equal(wc.Report, baseline) {
					t.Errorf("opts %+v: warm report differs from cold", warmOpts)
				}
			}

			// Stateless exact hit: stored bytes, no session.
			d, err := Compile(text)
			if err != nil {
				t.Fatal(err)
			}
			oc, err := store.Verify(ctx, st, d, text, Options{Workers: 1}, false)
			if err != nil {
				t.Fatal(err)
			}
			if oc.Provenance != store.Cached || oc.V != nil {
				t.Fatalf("stateless hit provenance %q (V=%v)", oc.Provenance, oc.V != nil)
			}
			if !bytes.Equal(oc.Report, baseline) {
				t.Error("stateless cached report differs from cold")
			}
		})
	}
}
