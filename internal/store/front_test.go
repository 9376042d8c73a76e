package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"scaldtv/internal/explore"
	"scaldtv/internal/report"
	"scaldtv/internal/verify"
)

// TestVerifyNilStore: with no store, Verify is a plain run — the
// report of verify.Run and no provenance — and retains a session only
// when asked.
func TestVerifyNilStore(t *testing.T) {
	opts := verify.Options{Workers: 1}
	want := coldReport(t, warmV1, opts)
	for _, retain := range []bool{false, true} {
		d, err := compile(warmV1)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Verify(context.Background(), nil, d, warmV1, opts, retain)
		if err != nil {
			t.Fatal(err)
		}
		if out.Provenance != "" {
			t.Errorf("retain=%v: provenance %q with no store, want none", retain, out.Provenance)
		}
		if (out.V != nil) != retain {
			t.Errorf("retain=%v: session retained = %v", retain, out.V != nil)
		}
		if out.Report != nil {
			t.Errorf("retain=%v: report rendered before anyone asked for it", retain)
		}
		got, err := out.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("retain=%v: report differs from verify.Run's\n--- got ---\n%s\n--- want ---\n%s", retain, got, want)
		}
	}
}

// dirState lists a directory's entries with their sizes and
// modification times.
func dirState(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, de := range ents {
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s %d %d", de.Name(), info.Size(), info.ModTime().UnixNano()))
	}
	sort.Strings(lines)
	return fmt.Sprint(lines)
}

// TestVerifyExploreLeavesStore: an exploration run goes to the
// exploration engine, never reads or writes the store, retains no
// session, and the probes miss for it.
func TestVerifyExploreLeavesStore(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d, err := compile(warmV1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(ctx, st, d, warmV1, verify.Options{Workers: 1}, false); err != nil {
		t.Fatal(err)
	}
	before := dirState(t, st.Dir())

	opts := verify.Options{Workers: 1, Explore: true}
	res, err := explore.Run(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, retain := range []bool{false, true} {
		out, err := Verify(ctx, st, d, warmV1, opts, retain)
		if err != nil {
			t.Fatal(err)
		}
		if out.Provenance != "" || out.V != nil {
			t.Errorf("retain=%v: explore run has provenance %q, session %v; want neither", retain, out.Provenance, out.V != nil)
		}
		got, err := out.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("retain=%v: explore report differs from the exploration engine's", retain)
		}
	}
	if after := dirState(t, st.Dir()); after != before {
		t.Errorf("explore runs changed the store directory\nbefore: %s\nafter:  %s", before, after)
	}
	if _, ok := st.ServeReportSource(warmV1, opts); ok {
		t.Error("source probe answered an explore run")
	}
	if _, ok := st.ServeReport(d, opts); ok {
		t.Error("design probe answered an explore run")
	}
}

// TestUpdate: Update re-verifies a retained session incrementally, with
// or without a store, and with one saves the new fixed point so the
// edited source is then answered from the store.
func TestUpdate(t *testing.T) {
	opts := verify.Options{Workers: 1}
	srcV2 := replaceOnce(t, warmV1, `"B1" delay=(1,2)`, `"B1" delay=(1,4)`)
	want := coldReport(t, srcV2, opts)
	ctx := context.Background()
	dir := t.TempDir()
	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Store{nil, st} {
		d1, err := compile(warmV1)
		if err != nil {
			t.Fatal(err)
		}
		first, err := Verify(ctx, s, d1, warmV1, opts, true)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := compile(srcV2)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Update(ctx, s, first.V, d2, srcV2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Incremental || out.V != first.V || out.Provenance != "" {
			t.Errorf("store=%v: update incremental=%v, same session=%v, provenance %q",
				s != nil, out.Incremental, out.V == first.V, out.Provenance)
		}
		got, err := out.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("store=%v: updated report differs from a cold run of the edit", s != nil)
		}
	}
	rep, ok := st.ServeReportSource(srcV2, opts)
	if !ok {
		t.Fatal("Update did not save the edited design's fixed point")
	}
	if !bytes.Equal(rep, want) {
		t.Error("saved report differs from a cold run of the edit")
	}
}

// TestProbesNilSafe: a nil store is a valid store that holds nothing.
func TestProbesNilSafe(t *testing.T) {
	var st *Store
	opts := verify.Options{}
	if _, ok := st.ServeReportSource(warmV1, opts); ok {
		t.Error("nil store answered the source probe")
	}
	d, err := compile(warmV1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.ServeReport(d, opts); ok {
		t.Error("nil store answered the design probe")
	}
}

// TestAnalyticWarmKey: under the analytic model a warm start looks only
// at entries verified at the request's parameter point, the only ones
// Restore accepts.  An edit at the stored point warm-starts; a new point
// finds no entry to recompile and runs cold; every report matches a
// plain run.
func TestAnalyticWarmKey(t *testing.T) {
	data, err := os.ReadFile("../../examples/params/params.scald")
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	edited := strings.Replace(src, "setup=4.0", "setup=4.5", 1)
	at := func(load float64) verify.Options {
		return verify.Options{Workers: 1, Delays: verify.AnalyticDelays{Params: map[string]float64{"load": load}}}
	}
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		name string
		src  string
		opts verify.Options
		want Provenance
	}{
		{"first", src, at(1.5), Cold},
		{"edit at the stored point", edited, at(1.5), Warm},
		{"new point", edited, at(2.5), Cold},
	} {
		d, err := compile(step.src)
		if err != nil {
			t.Fatal(err)
		}
		_, found := st.Nearest(warmKey(d, step.opts))
		if found != (step.want == Warm) {
			t.Errorf("%s: nearest entry found = %v", step.name, found)
		}
		out, err := Verify(context.Background(), st, d, step.src, step.opts, false)
		if err != nil {
			t.Fatal(err)
		}
		if out.Provenance != step.want {
			t.Errorf("%s: provenance %q, want %q", step.name, out.Provenance, step.want)
		}
		got, err := out.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, coldReport(t, step.src, step.opts)) {
			t.Errorf("%s: report differs from a plain run", step.name)
		}
	}
}
