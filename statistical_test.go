package scaldtv

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scaldtv/internal/pathsearch"
)

// TestStatisticalSiteProbSemantics locks the two ends of the
// -delays=statistical pricing model from the HDL surface down.
//
// A violated constraint fed by a SHALLOW path (one wide-range buffer)
// must price as real risk: the truncated normal still has visible mass
// within |slack| of its data-sheet limit, so P(VIOLATE) > 0 and the
// listing marks the row AT RISK.
//
// A violated constraint fed by a DEEP path must price at ~0 even though
// the worst-case verdict is a hard violation: hitting the interval bound
// needs every component at its 3σ corner simultaneously, and the
// convolved tail within a few ns of that bound carries ~1e-10 of mass.
// That pessimism gap is the reason the mode exists (§1.4.1.2) — this
// test keeps it a documented behavior, not a silent surprise.
func TestStatisticalSiteProbSemantics(t *testing.T) {
	shallow := `design SHALLOW
period 50ns
clockunit 6.25ns
defaultwire 0ns 0ns
buf B1 delay=(5.0,47.0) ("GO .S0-1") -> (D)
setuphold CHK setup=2.0 hold=1.0 (D, "MCK .P0-4")
`
	var deep strings.Builder
	deep.WriteString("design DEEP\nperiod 50ns\nclockunit 6.25ns\ndefaultwire 0ns 0ns\n")
	prev := `"GO .S0-1"`
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&deep, "buf B%d delay=(1.0,4.0) (%s) -> (N%d)\n", i, prev, i)
		prev = fmt.Sprintf("N%d", i)
	}
	fmt.Fprintf(&deep, "setuphold CHK setup=2.0 hold=1.0 (%s, \"MCK .P0-4\")\n", prev)

	t.Run("shallow-at-risk", func(t *testing.T) {
		res, err := VerifySource(shallow, Options{Delays: DelayStatistical})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) == 0 {
			t.Fatal("the shallow design must be violated at the worst-case corner")
		}
		if len(res.SiteProbs) != 2 {
			t.Fatalf("SiteProbs = %d rows, want 2 (set-up and hold)", len(res.SiteProbs))
		}
		for _, p := range res.SiteProbs {
			if p.SlackNS >= 0 {
				t.Errorf("%s %s: slack %.1f ns, want negative", p.Kind, p.Prim, p.SlackNS)
			}
			if p.Prob <= 0 || p.Prob >= 0.5 {
				t.Errorf("%s %s: P = %v, want small but strictly positive", p.Kind, p.Prim, p.Prob)
			}
		}
		if l := StatListing(res); !strings.Contains(l, "<< AT RISK") {
			t.Errorf("listing does not mark the shallow violated site AT RISK:\n%s", l)
		}
	})

	t.Run("deep-prices-to-zero", func(t *testing.T) {
		res, err := VerifySource(deep.String(), Options{Delays: DelayStatistical})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) == 0 {
			t.Fatal("the deep design must be violated at the worst-case corner")
		}
		if len(res.SiteProbs) == 0 {
			t.Fatal("the violated deep site is missing from SiteProbs")
		}
		for _, p := range res.SiteProbs {
			if p.SlackNS >= 0 {
				t.Errorf("%s %s: slack %.1f ns, want negative", p.Kind, p.Prim, p.SlackNS)
			}
			if p.Prob != 0 {
				t.Errorf("%s %s: P = %v, want 0 — a 12-component tail cannot reach its interval bound", p.Kind, p.Prim, p.Prob)
			}
		}
		if l := StatListing(res); strings.Contains(l, "<< AT RISK") {
			t.Errorf("deep-path rows must not be marked AT RISK:\n%s", l)
		}
	})
}

// hugeRangeSource is a two-primitive design whose buffer delay spans 0
// to the given number of nanoseconds: on the 195 ps quadrature grid its
// arrival distribution needs far more points than the support cap.
const hugeRangeSource = `design HUGE
period 50ns
buf "B" delay=(0.0,%s) ("IN .S0-25") -> ("X")
setuphold "CHK" setup=1.0 hold=1.0 ("X", "CK .P20-30")
`

// TestStatisticalSupportCap: a delay range far wider than the quadrature
// grid is a Limit error, returned at once, not an allocation that
// exhausts memory (1e9 ns) or takes seconds (1e7 ns).  Worst-case mode
// still answers the same design.
func TestStatisticalSupportCap(t *testing.T) {
	for _, width := range []string{"1000000000.0", "10000000.0"} {
		src := fmt.Sprintf(hugeRangeSource, width)
		start := time.Now()
		_, err := VerifySource(src, Options{Delays: StatisticalDelays{}})
		if el := time.Since(start); el > time.Second {
			t.Errorf("delay (0, %s): took %v", width, el)
		}
		if !errors.Is(err, ErrLimit) {
			t.Errorf("delay (0, %s): err = %v, want a Limit error", width, err)
		}
		if _, err := VerifySource(src, Options{}); err != nil {
			t.Errorf("delay (0, %s): worst-case verify: %v", width, err)
		}
	}
}

// TestStatCriticalStartAgrees: scaldpath -stat and -delays=statistical
// price with one model, so the critical start -stat lists for a site's
// binding pin is the CRITICAL FROM of the statistical report.
func TestStatCriticalStartAgrees(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("examples", "selftimed", "selftimed.scald"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Verify(d, Options{Delays: StatisticalDelays{}})
	if err != nil {
		t.Fatal(err)
	}
	sites, loops, err := pathsearch.AnalyzeDist(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	listing := pathsearch.StatString(sites, loops, 3)
	byPrim := pathsearch.ByPrim(sites)
	if len(res.SiteProbs) == 0 {
		t.Fatal("no statistical site rows")
	}
	for _, sp := range res.SiteProbs {
		pins := byPrim[sp.Prim]
		if len(pins) != 1 {
			t.Fatalf("%s: %d end pins, want 1", sp.Prim, len(pins))
		}
		if pins[0].From != sp.From {
			t.Errorf("%s: -stat critical start %q, -delays=statistical CRITICAL FROM %q", sp.Prim, pins[0].From, sp.From)
		}
		if !strings.Contains(listing, sp.From) || !strings.Contains(listing, pins[0].To) {
			t.Errorf("-stat listing lacks %s → %s:\n%s", sp.From, pins[0].To, listing)
		}
	}
}
