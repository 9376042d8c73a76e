package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"scaldtv/internal/expand"
	"scaldtv/internal/hdl"
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

func compile(src string) (*netlist.Design, error) {
	f, err := hdl.Parse(src)
	if err != nil {
		return nil, err
	}
	d, _, err := expand.Expand(f)
	return d, err
}

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
	// store key ignores Workers, and the live session's re-rendered
	// report is still byte-identical.
	d3, err := compile(warmV1)
	if err != nil {
		t.Fatal(err)
	}
	out3, err := Verify(ctx, st, d3, warmV1, verify.Options{Workers: 8, KeepWaves: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	if out3.Provenance != Cached || out3.V == nil || out3.Res == nil {
		t.Fatalf("third verify provenance %q, want cached with a live session", out3.Provenance)
	}
	rendered, err := report.JSON(out3.Res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rendered, baseline) {
		t.Errorf("re-rendered retained report differs from cold report\n--- got ---\n%s\n--- want ---\n%s", rendered, baseline)
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
