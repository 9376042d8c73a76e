package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scaldtv/internal/store"
)

// runCLI runs the command and returns its exit status and output.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// fig41 is the Fig 4-1 circuit: a register fed back through its own hold
// multiplexer under a skewed clock, whose false hold error -autocorr
// suppresses by splicing a CORR delay into the feedback branch.
const fig41 = `design "FIG 4-1"
period 50ns
clockunit 1ns
defaultwire 0ns 0ns
skew precision 0ns 0ns
buf "CK BUF" delay=(0,5) ("CK .P20-30") -> ("BUF CK")
mux2 "HOLD MUX" delay=(1,2) ("LOAD .S0-50", Q, "NEW DATA .S0-50") -> (D)
reg "REG" delay=(1,2) ("BUF CK", D) -> (Q)
setuphold "REG CHK" setup=2.0 hold=1.5 (D, "BUF CK")
`

// TestAutoCorrSkipsStore: a run that -autocorr changed verifies a
// design its source text no longer describes, so it must not be saved
// under that text — a later plain run of the same text would be
// answered with the spliced design's report.  Under -json the
// insertion notes go to stderr and stdout stays one JSON document.
func TestAutoCorrSkipsStore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fig41.scald")
	if err := os.WriteFile(path, []byte(fig41), 0o644); err != nil {
		t.Fatal(err)
	}
	cache := filepath.Join(dir, "cache")

	code, stdout, stderr := runCLI(t, "-autocorr", "-json", "-store", cache, path)
	if code != 0 {
		t.Fatalf("-autocorr run exit %d, want 0 (the hold error is false): %s", code, stderr)
	}
	if !json.Valid([]byte(stdout)) {
		t.Errorf("-autocorr -json stdout is not one JSON document:\n%s", stdout)
	}
	if !strings.Contains(stderr, "autocorr: inserted") {
		t.Errorf("insertion notes missing from stderr:\n%s", stderr)
	}
	st, err := store.Open(cache, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Len(); n != 0 {
		t.Errorf("-autocorr run wrote %d store entries, want 0", n)
	}

	// The unedited text keeps its real verdict, through the same store.
	code, stdout, stderr = runCLI(t, "-json", "-store", cache, path)
	if code != 1 || !strings.Contains(stdout, `"pass": false`) {
		t.Errorf("plain run of the Fig 4-1 text: exit %d, want 1 with the hold violation:\n%s", code, stdout)
	}
	if !strings.Contains(stderr, "store: cold") {
		t.Errorf("plain run after -autocorr was not cold: %q", stderr)
	}
}

// TestStoreDelayModels: the CLI answers every run but -explore from the
// store, under any delay model: a repeated -delays=statistical run is
// cached with identical output, and an -explore run neither reads nor
// writes the store.
func TestStoreDelayModels(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join("..", "..", "examples", "selftimed", "selftimed.scald")
	cache := filepath.Join(dir, "cache")
	args := []string{"-lib", "-json", "-delays=statistical", "-store", cache, path}

	_, cold, stderr := runCLI(t, args...)
	if !strings.Contains(stderr, "store: cold") {
		t.Fatalf("first statistical run: stderr %q, want store: cold", stderr)
	}
	if !strings.Contains(cold, `"site_probs"`) {
		t.Fatalf("statistical report carries no site probabilities:\n%s", cold)
	}
	_, cached, stderr := runCLI(t, args...)
	if !strings.Contains(stderr, "store: cached") {
		t.Errorf("repeat statistical run: stderr %q, want store: cached", stderr)
	}
	if cached != cold {
		t.Errorf("cached statistical output differs from cold\n--- cold ---\n%s\n--- cached ---\n%s", cold, cached)
	}

	before, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, out, stderr := runCLI(t, "-lib", "-json", "-explore", "-store", cache, path)
		if strings.Contains(stderr, "store:") {
			t.Errorf("-explore run %d touched the store: %q", i, stderr)
		}
		if !strings.Contains(out, `"exploration"`) {
			t.Errorf("-explore run %d carries no exploration section", i)
		}
	}
	after, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Errorf("-explore changed the store: %d entries before, %d after", len(before), len(after))
	}
}

// TestStatsTimesFrontEnd: -stats fills Table 3-1's reading and pass-2
// rows from the CLI's own parse and expansion, and the listing rows from
// the listings it renders.  Pass 1 runs inside pass 2 and stays 0.
func TestStatsTimesFrontEnd(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "registerfile", "registerfile.scald")
	code, stdout, stderr := runCLI(t, "-lib", "-stats", "-xref", path)
	if code != 0 && code != 1 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	row := func(label string) string {
		for _, line := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), label) {
				return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), label))
			}
		}
		t.Fatalf("no %q row in:\n%s", label, stdout)
		return ""
	}
	for _, label := range []string{"reading input files", "pass 2 (full expansion)", "cross reference listings"} {
		if got := row(label); got == "0s" {
			t.Errorf("Table 3-1 row %q reads 0s", label)
		}
	}
	if got := row("pass 1 (macros, synonyms)"); got != "0s" {
		t.Errorf("pass 1 row reads %s, want 0s: the census runs inside pass 2", got)
	}
}
