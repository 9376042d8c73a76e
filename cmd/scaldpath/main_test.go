package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scaldtv/internal/gen"
)

// TestStatListsLoops: like the worst-case listing, the -stat listing
// closes with the nets on combinational loops, so end pins fed only
// through a loop do not drop out of it without a word.
func TestStatListsLoops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fb.scald")
	src := gen.Source(gen.Config{Chips: 102, Feedback: 0.3, Depth: 3})
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "\n  combinational loops through: [S0 FBN1 S0 FBN2 S1 FBN1 S1 FBN2]\n"
	for _, args := range [][]string{{path}, {"-stat", path}} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("scaldpath %v: exit %d: %s", args[:len(args)-1], code, stderr.String())
		}
		if !strings.HasSuffix(stdout.String(), want) {
			t.Errorf("scaldpath %v: listing does not end with the loop nets:\n%s", args[:len(args)-1], stdout.String())
		}
	}
}
