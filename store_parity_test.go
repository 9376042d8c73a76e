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
// verification store: for every example design, every delay model and
// every execution configuration, the report served from the store (exact
// hit) and the report re-rendered from the retained session of a cached
// request are byte-identical to a cold run.
func TestStoreParityExamples(t *testing.T) {
	designs, err := filepath.Glob(filepath.Join("examples", "*", "*.scald"))
	if err != nil {
		t.Fatal(err)
	}
	if len(designs) == 0 {
		t.Fatal("no .scald designs under examples/")
	}
	type model struct {
		name   string
		delays DelayModel
	}
	models := []model{
		{"worstcase", nil},
		{"statistical", StatisticalDelays{}},
		{"analytic", AnalyticDelays{}},
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
			models := models
			if name == "params" {
				// Off its default point the pinned design differs from the
				// elaborated one.
				models = append(models, model{"analytic-load2", AnalyticDelays{Params: map[string]float64{"load": 2}}})
			}
			for _, m := range models {
				t.Run(m.name, func(t *testing.T) {
					storeParity(t, ctx, text, m.delays)
				})
			}
		})
	}
}

// storeParity runs the store-parity contract for one design source under
// one delay model, on a store of its own.
func storeParity(t *testing.T, ctx context.Context, text string, delays DelayModel) {
	res, err := VerifySource(text, Options{Workers: 1, Delays: delays})
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
	first, err := store.Verify(ctx, st, seed, text, Options{Workers: 1, Delays: delays}, true)
	if err != nil {
		t.Fatal(err)
	}
	if first.Provenance != store.Cold {
		t.Fatalf("seeding run provenance %q, want cold", first.Provenance)
	}
	if !bytes.Equal(first.Report, baseline) {
		t.Fatal("store-mediated cold report differs from the plain engine report")
	}

	for _, opts := range []Options{
		{Workers: 1},
		{Workers: 2},
		{Workers: 8},
	} {
		opts.Delays = delays
		// Exact hit with a retained session: the store key ignores
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
			t.Fatalf("opts %+v: provenance %q (V=%v), want cached with a session", opts, oc.Provenance, oc.V != nil)
		}
		if !bytes.Equal(oc.Report, baseline) {
			t.Errorf("opts %+v: cached report differs from cold", opts)
		}
		rendered, err := JSONReport(oc.Res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rendered, baseline) {
			t.Errorf("opts %+v: retained session re-renders a different report\n--- got ---\n%s\n--- want ---\n%s",
				opts, rendered, baseline)
		}
	}

	// Stateless exact hit: stored bytes, no session.
	d, err := Compile(text)
	if err != nil {
		t.Fatal(err)
	}
	oc, err := store.Verify(ctx, st, d, text, Options{Workers: 1, Delays: delays}, false)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Provenance != store.Cached || oc.V != nil {
		t.Fatalf("stateless hit provenance %q (V=%v)", oc.Provenance, oc.V != nil)
	}
	if !bytes.Equal(oc.Report, baseline) {
		t.Error("stateless cached report differs from cold")
	}
}
