package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"scaldtv/internal/netlist"
	"scaldtv/internal/report"
	"scaldtv/internal/verify"
)

// A self-contained design (no component library) with a checker, so
// reports carry violations whose byte-exact reproduction matters.
const warmV1 = `design WARMED
period 50ns
clockunit 1ns
defaultwire 0ns 0ns
buf "B1" delay=(1,2) ("IN .S5-45") -> (MID)
reg "R1" delay=(1,3) ("CK .P40-45", MID) -> (Q)
setuphold "CHK" setup=2.5 hold=1.5 (MID, "CK .P40-45")
`

func coldReport(t *testing.T, src string, opts verify.Options) []byte {
	t.Helper()
	d, err := compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := verify.Run(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := report.JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestVerifyCachedParity(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := verify.Options{Workers: 1, KeepWaves: true}
	baseline := coldReport(t, warmV1, opts)
	ctx := context.Background()

	d1, err := compile(warmV1)
	if err != nil {
		t.Fatal(err)
	}
	out1, err := Verify(ctx, st, d1, warmV1, opts, true)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Provenance != Cold {
		t.Fatalf("first verify provenance %q, want cold", out1.Provenance)
	}
	if !bytes.Equal(out1.Report, baseline) {
		t.Error("cold report differs from plain engine report")
	}

	// Stateless second run: served from the store, byte-identical, no
	// engine state.
	d2, err := compile(warmV1)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := Verify(ctx, st, d2, warmV1, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Provenance != Cached || out2.V != nil {
		t.Fatalf("second verify provenance %q (V=%v), want cached with no session", out2.Provenance, out2.V)
	}
	if !bytes.Equal(out2.Report, baseline) {
		t.Error("cached report differs from cold report")
	}

	// Retained third run under a different execution configuration: the
	// store key ignores Workers, the restored session's
	// re-rendered report is still byte-identical.
	d3, err := compile(warmV1)
	if err != nil {
		t.Fatal(err)
	}
	out3, err := Verify(ctx, st, d3, warmV1, verify.Options{Workers: 8, KeepWaves: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	if out3.Provenance != Cached || out3.V == nil || out3.Res == nil {
		t.Fatalf("third verify provenance %q, want cached with a restored session", out3.Provenance)
	}
	if !out3.Res.Stats.Cached {
		t.Error("restored result not marked cached")
	}
	rendered, err := report.JSON(out3.Res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rendered, baseline) {
		t.Errorf("re-rendered restored report differs from cold report\n--- got ---\n%s\n--- want ---\n%s", rendered, baseline)
	}
}

func TestVerifyWarmStart(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := verify.Options{Workers: 1}
	ctx := context.Background()

	d1, err := compile(warmV1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(ctx, st, d1, warmV1, opts, false); err != nil {
		t.Fatal(err)
	}

	// Parameter edit: same structure, one slower delay.  Must warm-start
	// and reverify only the diff cone.
	srcV2 := replaceOnce(t, warmV1, `"B1" delay=(1,2)`, `"B1" delay=(1,4)`)
	d2, err := compile(srcV2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Verify(ctx, st, d2, srcV2, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Provenance != Warm || !out.Incremental {
		t.Fatalf("parameter edit verified %q (incremental=%v), want warm incremental", out.Provenance, out.Incremental)
	}
	if want := coldReport(t, srcV2, opts); !bytes.Equal(out.Report, want) {
		t.Errorf("warm report differs from cold report\n--- got ---\n%s\n--- want ---\n%s", out.Report, want)
	}

	// The warm outcome was saved: repeating the edited design is now an
	// exact hit.
	d2b, err := compile(srcV2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Verify(ctx, st, d2b, srcV2, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if again.Provenance != Cached {
		t.Errorf("repeat of the edited design verified %q, want cached", again.Provenance)
	}

	// Structural edit: a new instance.  No stored structure matches, so
	// this must run cold — and still agree with the plain engine.
	srcV3 := srcV2 + "buf \"B2\" delay=(1,2) (Q) -> (Q2)\n"
	d3, err := compile(srcV3)
	if err != nil {
		t.Fatal(err)
	}
	out3, err := Verify(ctx, st, d3, srcV3, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if out3.Provenance != Cold {
		t.Errorf("structural edit verified %q, want cold", out3.Provenance)
	}
	if want := coldReport(t, srcV3, opts); !bytes.Equal(out3.Report, want) {
		t.Error("post-structural-edit report differs from cold report")
	}
}

func replaceOnce(t *testing.T, s, old, new string) string {
	t.Helper()
	out := bytes.Replace([]byte(s), []byte(old), []byte(new), 1)
	if bytes.Equal(out, []byte(s)) {
		t.Fatalf("fixture does not contain %q", old)
	}
	return string(out)
}

// TestVerifyCorruptStateFallsBack locks the degradation contract: a blob
// whose snapshot section does not restore serves stateless hits from its
// (checksummed) report but degrades every stateful path to a full
// verify — never an error, never a wrong report.
func TestVerifyCorruptStateFallsBack(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := verify.Options{Workers: 1}
	ctx := context.Background()
	baseline := coldReport(t, warmV1, opts)

	d, err := compile(warmV1)
	if err != nil {
		t.Fatal(err)
	}
	// A blob with a valid report but garbage state (e.g. a future
	// snapshot version).
	if err := st.Put(&Entry{
		Key:      verify.Fingerprint(d, opts),
		StructFP: netlist.StructuralFingerprint(d),
		SrcKey:   SourceKey(warmV1, opts),
		Source:   warmV1,
		Report:   baseline,
		State:    []byte("SCTVSNAP then junk"),
	}); err != nil {
		t.Fatal(err)
	}

	out, err := Verify(ctx, st, d, warmV1, opts, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.Provenance != Cold {
		t.Errorf("corrupt state verified %q, want cold fallback", out.Provenance)
	}
	if !bytes.Equal(out.Report, baseline) {
		t.Error("fallback report differs from cold report")
	}
	if out.V == nil || out.V.Result() == nil {
		t.Error("fallback produced no live session")
	}
}

// TestVerifyCorruptBlobFallsBack: whole-file corruption (truncation,
// bit flips) reads as a miss everywhere, so even stateless verifies run
// cold and re-verify correctly.
func TestVerifyCorruptBlobFallsBack(t *testing.T) {
	opts := verify.Options{Workers: 1}
	ctx := context.Background()
	baseline := coldReport(t, warmV1, opts)

	for _, c := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/3] }},
		{"flipped", func(b []byte) []byte {
			m := append([]byte(nil), b...)
			m[len(m)/2] ^= 1
			return m
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			d, err := compile(warmV1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Verify(ctx, st, d, warmV1, opts, false); err != nil {
				t.Fatal(err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil || len(ents) != 1 {
				t.Fatalf("expected one blob, got %d (%v)", len(ents), err)
			}
			path := filepath.Join(dir, ents[0].Name())
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.mut(blob), 0o644); err != nil {
				t.Fatal(err)
			}
			d2, err := compile(warmV1)
			if err != nil {
				t.Fatal(err)
			}
			out, err := Verify(ctx, st, d2, warmV1, opts, false)
			if err != nil {
				t.Fatal(err)
			}
			if out.Provenance != Cold {
				t.Errorf("corrupt blob verified %q, want cold", out.Provenance)
			}
			if !bytes.Equal(out.Report, baseline) {
				t.Error("fallback report differs from cold report")
			}
		})
	}
}
