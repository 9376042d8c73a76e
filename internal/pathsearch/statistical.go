package pathsearch

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"scaldtv/internal/tick"
)

// Probability-based path listing in the style of DIGSIM (§1.4.1.2,
// §4.2.4 — the paper's future-work direction), read off the same
// quadrature distributions that price sites under -delays=statistical:
// each end pin's latest arrival from AnalyzeDist, at its mean and at the
// Φ(k) quantile — the arrival a normal distribution reaches k standard
// deviations above its mean.  Along a long path of independent delays
// that quantile sits far below the sum of the maxima, the reason a "real
// design usually could be made to run faster than the minimum/maximum
// system will predict" (§1.4.1.1).  Delays that are instead fully
// correlated (one production run, §4.2.4) all sit at their maxima
// together: that is the worst-case listing Analyze already gives.

// Quantile is the earliest grid time by which the distribution has
// accumulated probability p (its last point when p exceeds the mass).
func (d Dist) Quantile(p float64) tick.Time {
	f := 0.0
	for i, q := range d.P {
		f += q
		if f >= p || i == len(d.P)-1 {
			return d.Start + tick.Time(i)*d.Step
		}
	}
	return d.Start
}

// Arrival is the site's latest arrival k standard deviations out: the
// Φ(k) quantile of Late.
func (sd SiteDist) Arrival(k float64) tick.Time { return sd.Late.Quantile(normCDF(k, 0, 1)) }

// StatErrors returns the sites of AnalyzeDist whose Φ(k) arrival exceeds
// the budget, latest first.
func StatErrors(sites map[string]SiteDist, budget tick.Time, k float64) []SiteDist {
	var out []SiteDist
	for _, sd := range statOrder(sites, k) {
		if sd.Arrival(k) > budget {
			out = append(out, sd)
		}
	}
	return out
}

// StatString renders the statistical critical-path table: per end pin
// its critical start, mean latest arrival and Φ(k) arrival, then the
// combinational loop nets AnalyzeDist reported, as Analysis.String does.
func StatString(sites map[string]SiteDist, loops []string, k float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "STATISTICAL PATHS (quadrature, independent delays, %gσ shown)\n\n", k)
	rows := statOrder(sites, k)
	for i, sd := range rows {
		if i >= 20 {
			fmt.Fprintf(&sb, "  … %d more\n", len(rows)-i)
			break
		}
		fmt.Fprintf(&sb, "  %-30s → %-34s mean %8s  %gσ %8s ns\n",
			sd.From, sd.To, tick.Time(math.Round(sd.Late.Mean())), k, sd.Arrival(k))
	}
	sb.WriteString(loopsLine(loops))
	return sb.String()
}

// statOrder lists the sites by Φ(k) arrival, latest first, then by start
// and end pin.
func statOrder(sites map[string]SiteDist, k float64) []SiteDist {
	out := make([]SiteDist, 0, len(sites))
	for _, sd := range sites {
		out = append(out, sd)
	}
	sort.Slice(out, func(i, j int) bool {
		if ai, aj := out[i].Arrival(k), out[j].Arrival(k); ai != aj {
			return ai > aj
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}
