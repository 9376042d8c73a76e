// Package report renders the Timing Verifier's output listings in the
// style of the paper: the timing summary showing each signal's value over
// the cycle (Fig 3-10), the constraint-error listing (Fig 3-11), and the
// cross-reference listing of undefined signals (§2.5).
package report

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
	"scaldtv/internal/verify"
)

// WaveString renders a waveform the way the paper's listings do: a
// sequence of "value time" pairs, each giving the value and the time (in
// ns) at which it begins, after incorporating any carried skew.
func WaveString(w values.Waveform) string {
	inc := w.IncorporateSkew()
	var sb strings.Builder
	var pos tick.Time
	for i, s := range inc.Segs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s %s", s.V, pos)
		pos += s.W
	}
	return sb.String()
}

var bitSuffix = regexp.MustCompile(`^(.*)<(\d+)>(.*)$`)

// group is a set of vector bits sharing one waveform.
type group struct {
	name string
	wave values.Waveform
}

// groupSignals collapses vector bits with identical waveforms into
// "BASE<lo:hi>" rows, preserving the order of first appearance.
func groupSignals(d *netlist.Design, waves []values.Waveform) []group {
	type vecKey struct {
		base, suffix string
	}
	type vecAcc struct {
		lo, hi int
		wave   values.Waveform
		mixed  bool
		order  int
	}
	var scalars []group
	vecs := map[vecKey]*vecAcc{}
	var vecOrder []vecKey
	order := 0
	for i := range d.Nets {
		n := &d.Nets[i]
		m := bitSuffix.FindStringSubmatch(n.Name)
		if m == nil {
			scalars = append(scalars, group{name: n.Name, wave: waves[i]})
			order++
			continue
		}
		key := vecKey{m[1], m[3]}
		bit := 0
		fmt.Sscanf(m[2], "%d", &bit)
		if acc, ok := vecs[key]; ok {
			if bit < acc.lo {
				acc.lo = bit
			}
			if bit > acc.hi {
				acc.hi = bit
			}
			if !acc.wave.Equal(waves[i]) {
				acc.mixed = true
			}
			continue
		}
		vecs[key] = &vecAcc{lo: bit, hi: bit, wave: waves[i], order: order}
		vecOrder = append(vecOrder, key)
		order++
	}
	var out []group
	out = append(out, scalars...)
	for _, key := range vecOrder {
		acc := vecs[key]
		name := fmt.Sprintf("%s<%d:%d>%s", key.base, acc.lo, acc.hi, key.suffix)
		if acc.mixed {
			name += " (bits differ; bit 0 shown)"
		}
		out = append(out, group{name: name, wave: acc.wave})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// TimingSummary renders the Fig 3-10 listing for one verified case: every
// signal's value over the cycle time, vector bits with identical timing
// collapsed into one row.  The case must have been run with
// Options.KeepWaves.
func TimingSummary(res *verify.Result, caseIdx int) string {
	if caseIdx < 0 || caseIdx >= len(res.Cases) || res.Cases[caseIdx].Waves == nil {
		return "timing summary unavailable: run the verifier with KeepWaves\n"
	}
	cr := res.Cases[caseIdx]
	var sb strings.Builder
	fmt.Fprintf(&sb, "TIMING SUMMARY — design %s, cycle %s ns", res.Design.Name, res.Design.Period)
	if cr.Label != "" {
		fmt.Fprintf(&sb, ", case %s", cr.Label)
	}
	sb.WriteString("\n\n")
	groups := groupSignals(res.Design, cr.Waves)
	width := 0
	for _, g := range groups {
		if len(g.name) > width {
			width = len(g.name)
		}
	}
	for _, g := range groups {
		fmt.Fprintf(&sb, "  %-*s  %s\n", width, g.name, WaveString(g.wave))
	}
	return sb.String()
}

// ErrorListing renders the Fig 3-11 error listing: each violation with its
// required and observed intervals and the values seen on the checker's
// data and clock inputs.
func ErrorListing(res *verify.Result) string {
	var sb strings.Builder
	sb.WriteString("SETUP, HOLD AND MINIMUM PULSE WIDTH ERRORS\n\n")
	if len(res.Violations) == 0 {
		sb.WriteString("  no timing errors detected\n")
		return sb.String()
	}
	for i, v := range res.Violations {
		if i > 0 {
			sb.WriteString("\n")
		}
		fmt.Fprintf(&sb, "  %s — %s\n", v.Prim, v.Kind)
		if v.Case != "" {
			fmt.Fprintf(&sb, "    CASE        %s\n", v.Case)
		}
		switch v.Kind {
		case verify.SetupViolation:
			fmt.Fprintf(&sb, "    SETUP TIME  %s ns specified, %s ns available (missed by %s ns)\n",
				v.Required, v.Actual, v.Required-v.Actual)
		case verify.HoldViolation:
			fmt.Fprintf(&sb, "    HOLD TIME   %s ns specified, %s ns available (missed by %s ns)\n",
				v.Required, v.Actual, v.Required-v.Actual)
		case verify.MinPulseHighViolation, verify.MinPulseLowViolation:
			fmt.Fprintf(&sb, "    PULSE WIDTH %s ns specified, %s ns guaranteed\n", v.Required, v.Actual)
		}
		if v.Data != "" {
			fmt.Fprintf(&sb, "    DATA INPUT  = %-24s %s\n", v.Data, WaveString(v.DataWave))
		}
		if v.Clock != "" {
			fmt.Fprintf(&sb, "    CK INPUT    = %-24s %s\n", v.Clock, WaveString(v.ClockWave))
		}
		if v.Detail != "" {
			fmt.Fprintf(&sb, "    NOTE        %s\n", v.Detail)
		}
	}
	return sb.String()
}

// CrossReference renders the listing of signals that are used but neither
// generated nor asserted, which the Verifier takes to be always stable and
// brings to the designer's attention once (§2.5).
func CrossReference(res *verify.Result) string {
	var sb strings.Builder
	sb.WriteString("SIGNALS WITH NO ASSERTION AND NO DRIVER (taken always stable)\n\n")
	if len(res.Undefined) == 0 {
		sb.WriteString("  none\n")
		return sb.String()
	}
	for _, name := range res.Undefined {
		fmt.Fprintf(&sb, "  %s\n", name)
	}
	return sb.String()
}

// Summary renders a one-paragraph run overview with the Table 3-1 style
// execution statistics.
func Summary(res *verify.Result) string {
	s := res.Stats
	var sb strings.Builder
	fmt.Fprintf(&sb, "design %s: %d primitives, %d signal bits, %d case(s)\n",
		res.Design.Name, s.Primitives, s.Nets, s.Cases)
	fmt.Fprintf(&sb, "  events processed     %d\n", s.Events)
	fmt.Fprintf(&sb, "  primitive evals      %d\n", s.PrimEvals)
	fmt.Fprintf(&sb, "  build time           %v\n", s.BuildTime)
	fmt.Fprintf(&sb, "  tape compile time    %v\n", s.TapeCompileTime)
	fmt.Fprintf(&sb, "  verify time          %v\n", s.VerifyTime)
	fmt.Fprintf(&sb, "  check time           %v\n", s.CheckTime)
	fmt.Fprintf(&sb, "  case wall time       %v (%d worker(s))\n", s.WallTime, s.Workers)
	if s.CacheHits+s.CacheMisses > 0 {
		fmt.Fprintf(&sb, "  eval cache           %d hits / %d misses, %d waveforms interned\n",
			s.CacheHits, s.CacheMisses, s.Interned)
	}
	if s.Incremental {
		fmt.Fprintf(&sb, "  incremental          %d dirty instances, %d dirty signals, %d reused waveforms\n",
			s.DirtyPrims, s.DirtyNets, s.ReusedWaves)
		fmt.Fprintf(&sb, "  reverify wall time   %v\n", s.ReverifyTime)
	}
	if ms := res.MarginSurface; ms != nil {
		line := "analytic"
		if b := BindingString(ms.Params); b != "" {
			line += " (" + b + ")"
		}
		fmt.Fprintf(&sb, "  delay model          %s\n", line)
	} else if len(res.SiteProbs) > 0 {
		fmt.Fprintf(&sb, "  delay model          statistical\n")
	}
	fmt.Fprintf(&sb, "  violations           %d\n", len(res.Violations))
	fmt.Fprintf(&sb, "  undefined signals    %d\n", len(res.Undefined))
	return sb.String()
}
