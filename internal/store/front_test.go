package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

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

// TestVerifyRequestKinds: a stateless miss runs without retaining a
// session and writes exactly one version-2 blob; a retained request
// for the stored design runs, answers cached with the stored bytes and
// a live Verifier, and leaves the blob as it was.
func TestVerifyRequestKinds(t *testing.T) {
	opts := verify.Options{Workers: 1}
	ctx := context.Background()
	dir := t.TempDir()
	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := compile(warmV1)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := Verify(ctx, st, d, warmV1, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Provenance != Cold || miss.V != nil {
		t.Errorf("stateless miss: provenance %q, session %v; want cold with none", miss.Provenance, miss.V != nil)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != blobName(verify.Fingerprint(d, opts), SourceKey(warmV1, opts)) {
		t.Fatalf("stateless miss wrote %v, want the one entry's blob", ents)
	}
	path := filepath.Join(dir, ents[0].Name())
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(blob[len(blobMagic):]); v != 2 {
		t.Errorf("blob version %d, want 2", v)
	}
	stored, ok := st.Get(verify.Fingerprint(d, opts))
	if !ok {
		t.Fatal("the stateless miss saved no readable entry")
	}

	// Pin the blob's time, so a rewrite would show even within one
	// filesystem tick.
	hourAgo := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, hourAgo, hourAgo); err != nil {
		t.Fatal(err)
	}
	before := dirState(t, dir)
	d2, err := compile(warmV1)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := Verify(ctx, st, d2, warmV1, opts, true)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Provenance != Cached || hit.V == nil || hit.Res == nil || hit.V.Result() != hit.Res {
		t.Fatalf("retained hit: provenance %q, session %v; want cached with a live session", hit.Provenance, hit.V != nil)
	}
	if !bytes.Equal(hit.Report, stored.Report) {
		t.Error("retained hit does not answer with the stored bytes")
	}
	if after := dirState(t, dir); after != before {
		t.Errorf("retained hit rewrote the store\nbefore: %s\nafter:  %s", before, after)
	}

	// The session is live: an edit re-verifies incrementally, and an
	// edit back to the stored design leaves its blob alone too.
	srcV2 := replaceOnce(t, warmV1, `"B1" delay=(1,2)`, `"B1" delay=(1,4)`)
	d3, err := compile(srcV2)
	if err != nil {
		t.Fatal(err)
	}
	up, err := Update(ctx, st, hit.V, d3, srcV2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !up.Incremental {
		t.Error("an edit of the retained hit's session did not re-verify incrementally")
	}
	d4, err := compile(warmV1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Update(ctx, st, hit.V, d4, warmV1, opts); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(len(blob)) || !info.ModTime().Equal(hourAgo) {
		t.Errorf("an update back to the stored design rewrote its blob (size %d, modified %v)", info.Size(), info.ModTime())
	}
}

// TestVerifySkipsNonConverged: a run stopped at its pass cap is not a
// fixed point, so the store neither saves it nor answers a repeat of it.
func TestVerifySkipsNonConverged(t *testing.T) {
	opts := verify.Options{Workers: 1, MaxPasses: 1}
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, retain := range []bool{false, true, false} {
		d, err := compile(warmV1)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Verify(context.Background(), st, d, warmV1, opts, retain)
		if err != nil {
			t.Fatal(err)
		}
		if out.Res == nil || out.Res.Converged() {
			t.Fatal("expected a convergence violation under MaxPasses=1")
		}
		if out.Provenance != Cold || out.Report != nil {
			t.Errorf("retain=%v: provenance %q, report rendered %v; want cold, unrendered", retain, out.Provenance, out.Report != nil)
		}
		if n := st.Len(); n != 0 {
			t.Errorf("retain=%v: the store saved %d non-converged entries", retain, n)
		}
	}
}
