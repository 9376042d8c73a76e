package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scaldtv"
	"scaldtv/internal/store"
)

// lineWriter forwards each Write to a channel so the test can wait for
// watch output deterministically instead of sleeping.
type lineWriter struct{ ch chan string }

func (w *lineWriter) Write(p []byte) (int, error) {
	w.ch <- string(p)
	return len(p), nil
}

// save replaces path's content the way editors save — write a sibling
// file, then rename it over path — so the watcher's 2 ms poll can never
// read a half-written file.  A zero mod keeps the write's own timestamp.
func save(t *testing.T, path, text string, mod time.Time) {
	t.Helper()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	if !mod.IsZero() {
		if err := os.Chtimes(tmp, mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

const watchV1 = `design WATCHED
period 50ns
clockunit 1ns
defaultwire 0ns 0ns
buf "B1" delay=(1,2) ("IN .S5-45") -> (MID)
reg "R1" delay=(1,3) ("CK .P40-45", MID) -> (Q)
setuphold "CHK" setup=2.5 hold=1.5 (MID, "CK .P40-45")
`

// TestWatchIncremental drives watch through three saves: the initial
// full verification, a delay edit (parameter-only, must reverify
// incrementally) and an added instance (structural, must fall back to a
// full run).
func TestWatchIncremental(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.scald")
	base := time.Now()
	save(t, path, watchV1, base)

	out := &lineWriter{ch: make(chan string, 16)}
	done := make(chan error, 1)
	go func() {
		done <- watch(path, false, scaldtv.Options{Workers: 1}, nil, out, 2*time.Millisecond, 3)
	}()
	next := func(what string) string {
		t.Helper()
		select {
		case line := <-out.ch:
			return line
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
			return ""
		}
	}

	if line := next("initial pass"); !strings.Contains(line, "(full)") {
		t.Fatalf("initial pass not a full run: %q", line)
	}

	// Parameter-only edit: B1 slows down.
	save(t, path, strings.Replace(watchV1, `"B1" delay=(1,2)`, `"B1" delay=(1,4)`, 1), base.Add(time.Second))
	if line := next("incremental pass"); !strings.Contains(line, "incremental") {
		t.Fatalf("delay edit did not reverify incrementally: %q", line)
	}

	// Structural edit: a new instance appears.
	save(t, path, strings.Replace(watchV1, `"B1" delay=(1,2)`, `"B1" delay=(1,4)`, 1)+
		"buf \"B2\" delay=(1,2) (Q) -> (Q2)\n", base.Add(2*time.Second))
	if line := next("structural pass"); !strings.Contains(line, "(full)") {
		t.Fatalf("structural edit did not fall back to a full run: %q", line)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestWatchCompileError checks that a broken save is reported without
// ending the watch, and that the next good save still reverifies.
func TestWatchCompileError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.scald")
	base := time.Now()
	if err := os.WriteFile(path, []byte(watchV1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, base, base); err != nil {
		t.Fatal(err)
	}

	out := &lineWriter{ch: make(chan string, 16)}
	done := make(chan error, 1)
	go func() {
		done <- watch(path, false, scaldtv.Options{Workers: 1}, nil, out, 2*time.Millisecond, 2)
	}()
	next := func() string {
		select {
		case line := <-out.ch:
			return line
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for watch output")
			return ""
		}
	}
	if line := next(); !strings.Contains(line, "(full)") {
		t.Fatalf("initial pass not a full run: %q", line)
	}

	save(t, path, "design BROKEN\nnot valid hdl\n", base.Add(time.Second))
	if line := next(); !strings.Contains(line, "watch:") || strings.Contains(line, "violation(s)") {
		t.Fatalf("broken save not reported as an error: %q", line)
	}

	fixed := strings.Replace(watchV1, "setup=2.5", "setup=3.5", 1)
	save(t, path, fixed, base.Add(2*time.Second))
	if line := next(); !strings.Contains(line, "incremental") {
		t.Fatalf("save after a broken one did not reverify incrementally: %q", line)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestWatchSameTimestampEdit is the missed-edit regression test: an
// editor that rewrites the file with equal-length content within one
// filesystem timestamp tick (same mtime, same size) must still trigger
// a re-verification.  The old (mtime, size) change detector missed this
// save forever; content hashing catches it.
func TestWatchSameTimestampEdit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.scald")
	base := time.Now()
	// Both revisions carry the identical pinned timestamp.
	save(t, path, watchV1, base)

	out := &lineWriter{ch: make(chan string, 16)}
	done := make(chan error, 1)
	go func() {
		done <- watch(path, false, scaldtv.Options{Workers: 1}, nil, out, 2*time.Millisecond, 2)
	}()
	next := func(what string) string {
		t.Helper()
		select {
		case line := <-out.ch:
			return line
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
			return ""
		}
	}
	if line := next("initial pass"); !strings.Contains(line, "(full)") {
		t.Fatalf("initial pass not a full run: %q", line)
	}

	// Same byte length, same pinned mtime: only the content differs.
	edited := strings.Replace(watchV1, "setup=2.5", "setup=3.5", 1)
	if len(edited) != len(watchV1) {
		t.Fatal("fixture edit is not length-preserving")
	}
	save(t, path, edited, base)
	if line := next("same-timestamp edit"); !strings.Contains(line, "incremental") {
		t.Fatalf("equal-length same-mtime save was missed or not incremental: %q", line)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestWatchStorePersistence: with -store, the watch fixed point survives
// a restart — the second watch's first pass is answered from the store,
// and an edit after the restart still reverifies incrementally (warm).
func TestWatchStorePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.scald")
	if err := os.WriteFile(path, []byte(watchV1), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(filepath.Join(dir, "cache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := scaldtv.Options{Workers: 1}

	run := func(maxUpdates int) chan string {
		out := &lineWriter{ch: make(chan string, 16)}
		done := make(chan error, 1)
		go func() {
			done <- watch(path, false, opts, st, out, 2*time.Millisecond, maxUpdates)
		}()
		t.Cleanup(func() {
			if err := <-done; err != nil {
				t.Error(err)
			}
		})
		return out.ch
	}
	next := func(ch chan string, what string) string {
		t.Helper()
		select {
		case line := <-ch:
			return line
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
			return ""
		}
	}

	ch1 := run(1)
	if line := next(ch1, "first watch"); !strings.Contains(line, "(full)") {
		t.Fatalf("first-ever pass not a full run: %q", line)
	}

	// "Restart": a fresh watch over the same store answers from it.
	ch2 := run(2)
	if line := next(ch2, "restarted watch"); !strings.Contains(line, "(cached)") {
		t.Fatalf("restarted watch did not hit the store: %q", line)
	}
	edited := strings.Replace(watchV1, `"B1" delay=(1,2)`, `"B1" delay=(1,4)`, 1)
	save(t, path, edited, time.Time{})
	if line := next(ch2, "post-restart edit"); !strings.Contains(line, "incremental") {
		t.Fatalf("edit after restart did not reverify incrementally: %q", line)
	}

	// A third watch over the edited design is again a store hit.
	ch3 := run(1)
	if line := next(ch3, "second restart"); !strings.Contains(line, "(cached)") {
		t.Fatalf("second restart did not hit the store: %q", line)
	}
}

// TestWatchMissingFile: a path that never existed is an immediate error.
func TestWatchMissingFile(t *testing.T) {
	err := watch(filepath.Join(t.TempDir(), "absent.scald"), false, scaldtv.Options{}, nil, os.Stderr, time.Millisecond, 1)
	if err == nil {
		t.Fatal("watch of a missing file did not fail")
	}
}
