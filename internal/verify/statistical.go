package verify

import (
	"math"

	"scaldtv/internal/pathsearch"
	"scaldtv/internal/tick"
)

// Statistical delay mode (Options.Delays is StatisticalDelays): a
// deterministic post-pass over a finished worst-case verification.  The
// relaxation itself still runs on min/max intervals — so violations,
// margins and waveforms are exactly the worst-case ones — and the
// post-pass re-reads every collected constraint margin through the
// quadrature arrival distributions of internal/pathsearch.AnalyzeDist:
// each component delay becomes a truncated normal over its data-sheet
// range, paths convolve, reconvergence takes the max/min, and the margin
// becomes the probability that the constraint is violated.
//
// The quadrature is fixed-grid (period/256) with no RNG, so SiteProbs —
// and the JSON report built on them — are byte-identical across Workers
// settings and between Run and Reference, exactly like the worst-case
// report.

// fillSiteProbs computes Result.SiteProbs from the collected margins and
// the design's arrival-time distributions.  Margins whose checker has no
// combinational path ending at it (clock-only sites, assertion
// cross-checks) carry no arrival distribution and are skipped.  grid is
// the quadrature step (StatisticalDelays.Grid; 0 = period/256).  A
// design whose arrival distributions outgrow the quadrature's support
// cap is a Limit error.
func (V *Verifier) fillSiteProbs(res *Result, grid tick.Time) error {
	sites, _, err := pathsearch.AnalyzeDist(V.d, grid)
	if err != nil || len(sites) == 0 {
		return err
	}
	byPrim := pathsearch.ByPrim(sites)
	probs := make([]SiteProb, 0, len(res.Margins))
	for _, m := range res.Margins {
		pins := byPrim[m.Prim]
		if len(pins) == 0 {
			continue
		}
		sp := SiteProb{
			Kind:    m.Kind,
			Case:    m.Case,
			Prim:    m.Prim,
			Data:    m.Data,
			Clock:   m.Clock,
			SlackNS: m.Slack().NS(),
		}
		slack := m.Slack()
		if m.Kind == HoldViolation {
			// Early-arrival hazard: the data path beats the hold window
			// when it arrives sooner than the worst-case earliest arrival
			// minus the slack.  Ties in WCMin resolve to the first pin in
			// the label-sorted order.
			best := pins[0]
			for _, p := range pins[1:] {
				if p.WCMin < best.WCMin {
					best = p
				}
			}
			sp.From = best.From
			sp.Prob = roundProb(best.Early.CDF(best.WCMin - slack - 1))
		} else {
			// Late-arrival hazard (set-up, enable, pulse width,
			// directives): the deadline sits slack beyond the worst-case
			// latest arrival.
			best := pins[0]
			for _, p := range pins[1:] {
				if p.WCMax > best.WCMax {
					best = p
				}
			}
			sp.From = best.From
			sp.Prob = roundProb(1 - best.Late.CDF(best.WCMax+slack))
		}
		probs = append(probs, sp)
	}
	if len(probs) > 0 {
		res.SiteProbs = probs
	}
	return nil
}

// roundProb clamps to [0,1] and rounds to 1e-6 — the report precision,
// coarse enough to absorb float summation orderings.
func roundProb(p float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return math.Round(p*1e6) / 1e6
}
