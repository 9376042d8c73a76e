package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"time"

	"scaldtv"
	"scaldtv/internal/store"
)

// watch re-verifies the design at path each time the file changes,
// retaining converged waveforms between runs so parameter-only edits
// (delays, checker intervals, wire overrides, assertion windows)
// reverify just the dirty cone.  Structural edits fall back to a full
// run transparently.
//
// Changes are detected by polling and hashing the file content every
// poll interval.  A content hash — not (mtime, size) — is what decides
// whether anything changed: editors that save an equal-length revision
// within the filesystem's timestamp granularity would otherwise be
// missed, and a touch without an edit would otherwise re-verify.
//
// With a non-nil store, the first pass says whether the store already
// held the design's report (cached) and every converged pass saves its
// report, so a restarted watch, or any other caller, finds the designs
// it verified.  With opts.Explore every pass explores afresh:
// exploration retains no session to update.
//
// maxUpdates > 0 bounds the number of successful verification passes
// before returning (used by tests); 0 watches until the process is
// killed.
func watch(path string, lib bool, opts scaldtv.Options, st *store.Store, out io.Writer, poll time.Duration, maxUpdates int) error {
	var (
		V       *scaldtv.Verifier
		lastSum [sha256.Size]byte
		passes  int
	)
	for first := true; ; first = false {
		if !first {
			time.Sleep(poll)
		}
		src, err := os.ReadFile(path)
		if err != nil {
			if first {
				return err
			}
			// The file may be mid-save (editors replace atomically by
			// rename); report once and keep polling.
			fmt.Fprintf(out, "watch: %s: %v\n", path, err)
			continue
		}
		sum := sha256.Sum256(src)
		if !first && sum == lastSum {
			continue
		}
		lastSum = sum

		text := string(src)
		if lib {
			text += "\n" + scaldtv.Library
		}
		design, err := scaldtv.Compile(text)
		if err != nil {
			// A broken intermediate state is normal while editing; keep
			// the retained verifier so the next good save still
			// reverifies incrementally against the last clean design.
			fmt.Fprintf(out, "watch: %s: %v\n", path, err)
			continue
		}

		// Verify and Update persist the report before they return,
		// so anything reacting to the output line (tests, scripts)
		// observes the updated store.
		ctx := context.Background()
		start := time.Now()
		var oc *store.Outcome
		if V == nil {
			oc, err = store.Verify(ctx, st, design, text, opts, true)
		} else {
			oc, err = store.Update(ctx, st, V, design, text, opts)
		}
		if err != nil {
			fmt.Fprintf(out, "watch: %s: %v\n", path, err)
			V = nil
			continue
		}
		elapsed := time.Since(start).Round(time.Microsecond)
		V = oc.V
		res := oc.Res
		switch {
		case oc.Provenance == store.Cached:
			fmt.Fprintf(out, "watch: %s: %d violation(s) in %v (cached)\n",
				path, len(res.Violations), elapsed)
		case oc.Incremental:
			fmt.Fprintf(out, "watch: %s: %d violation(s) in %v (incremental: %d dirty instance(s), %d reused waveform(s))\n",
				path, len(res.Violations), elapsed, res.Stats.DirtyPrims, res.Stats.ReusedWaves)
		default:
			fmt.Fprintf(out, "watch: %s: %d violation(s) in %v (full)\n",
				path, len(res.Violations), elapsed)
		}
		passes++
		if maxUpdates > 0 && passes >= maxUpdates {
			return nil
		}
	}
}
