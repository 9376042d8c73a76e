// Package explore implements automatic case exploration (-explore): it
// finds the control-signal splits that discharge U/C-poisoned constraint
// sites, replacing the designer's hand-written case directives of §2.7
// with a search.
//
// The paper leaves case selection to the designer: when a constraint site
// is reached by unknown (U) or spuriously-changing (C) values, a human
// picks the control signals to split on and re-runs.  This engine runs
// that loop mechanically:
//
//  1. Verify the design with its declared cases stripped and collect the
//     violations whose observed waveforms carry U or C — the poisoned
//     sites that case analysis exists to discharge.  Real worst-case
//     timing errors (clean waveforms, negative slack) are left alone: no
//     case split can fix those.
//  2. Rank candidate control signals — undriven, unpinned nets whose
//     assertion leaves their value open — by how many poisoned sites
//     their structural forward cone (netlist.ForwardCone) reaches.  A
//     split can only discharge sites it feeds.
//  3. Probe the top candidates with S→0 and S→1 splits.  Each probe is
//     one incremental case evaluation (verify.Verifier.EvalCase) resumed
//     from the retained fixed point, tape-accelerated: only the
//     candidate's cone re-relaxes, so a probe costs a small fraction of a
//     full verification.
//  4. Cover the poisoned sites with a greedy set cover over the probe
//     outcomes, tie-broken on declared net order, then prune the cover to
//     irredundancy: a split whose removal discharges no fewer sites is
//     dropped.  The emitted case set — the binary product of the
//     surviving splits, spelled exactly like parser case directives — is
//     therefore minimal: dropping any one split re-poisons some site.
//  5. Re-verify the design under the emitted case set (a full run, warm
//     on the design's engine cache) and attach the exploration report.
//
// Every step is deterministic — structural ranking, declared-order
// tie-breaks, and probe outcomes that verify guarantees bit-identical
// across Workers settings — so the explore report is byte-identical
// across all engine configurations.
package explore

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"scaldtv/internal/assertion"
	"scaldtv/internal/netlist"
	"scaldtv/internal/values"
	"scaldtv/internal/verify"
)

const (
	// maxSplits caps the cover at 2^maxSplits emitted cases — beyond
	// four nested splits the designer should restructure, not enumerate.
	maxSplits = 4
	// maxProbed caps the candidates probed per run; candidates ranked
	// beyond the cap are reported with Probes == 0 and counted in
	// Exploration.Skipped, never silently dropped.
	maxProbed = 24
)

// Run explores the design and returns the verification result under the
// discovered minimal case set, with Result.Exploration filled.
func Run(d *netlist.Design, opts verify.Options) (*verify.Result, error) {
	return RunContext(context.Background(), d, opts)
}

// RunContext is Run with cooperative cancellation.
func RunContext(ctx context.Context, d *netlist.Design, opts verify.Options) (*verify.Result, error) {
	start := time.Now()

	// Probe options: the search needs violations only, not waveforms,
	// margins or the statistical post-pass — those belong to the final
	// run the caller sees.
	popts := opts
	popts.Explore = false
	popts.KeepWaves = false
	popts.Margins = false
	popts.Delays = verify.DelayWorstCase
	fopts := opts
	fopts.Explore = false

	// Declared cases are stripped for the base run: the engine discovers
	// its own splits, and on designs that already carry hand-written case
	// directives the discovered set can be compared against them.
	base := d.WithCases(nil)
	V := verify.NewVerifier(base, popts)
	bres, err := V.VerifyContext(ctx)
	if err != nil {
		return nil, err
	}

	ex := &verify.Exploration{Minimal: true}
	sites, anchors := poisonedSites(d, bres)
	ex.Sites = sites

	probes := 0
	var chosen []int // candidate indexes, declared order
	var cands []candidate
	// EvalCase probes are only valid from a true fixed point.
	if len(sites) > 0 && bres.Converged() {
		cands = rankCandidates(d, anchors)
		if len(cands) > maxProbed {
			for _, c := range cands[maxProbed:] {
				if c.sites > 0 {
					ex.Skipped++
				}
			}
		}

		// Probe phase: each candidate's two single-split branches, each
		// an incremental relaxation from the retained fixed point.
		siteKeys := make(map[string]int, len(sites))
		for i, s := range sites {
			siteKeys[s.Key()] = i
		}
		for ci := range cands {
			if ci >= maxProbed || cands[ci].sites == 0 {
				continue
			}
			c := &cands[ci]
			discharged := make([]bool, len(sites))
			for i := range discharged {
				discharged[i] = true
			}
			for _, val := range []values.Value{values.V0, values.V1} {
				cr, err := V.EvalCase(splitCase([]split{{c.base, val}}))
				if err != nil {
					return nil, fmt.Errorf("explore: probing %q: %w", c.base, err)
				}
				c.probes++
				probes++
				for _, viol := range cr.Violations {
					if i, ok := siteKeys[violationKey(viol)]; ok {
						discharged[i] = false
					}
				}
			}
			for i, ok := range discharged {
				if ok {
					c.discharges = append(c.discharges, i)
				}
			}
		}

		// Greedy set cover: each round picks the candidate discharging
		// the most still-poisoned sites, iterating in declared net order
		// so ties break on declaration order, not rank.
		decl := make([]int, len(cands))
		for i := range decl {
			decl[i] = i
		}
		sort.Slice(decl, func(i, j int) bool {
			return cands[decl[i]].nets[0] < cands[decl[j]].nets[0]
		})
		covered := make([]bool, len(sites))
		for len(chosen) < maxSplits {
			best, bestGain := -1, 0
			for _, ci := range decl {
				if cands[ci].chosen {
					continue
				}
				gain := 0
				for _, si := range cands[ci].discharges {
					if !covered[si] {
						gain++
					}
				}
				if gain > bestGain {
					best, bestGain = ci, gain
				}
			}
			if best < 0 {
				break
			}
			cands[best].chosen = true
			chosen = append(chosen, best)
			for _, si := range cands[best].discharges {
				covered[si] = true
			}
		}
		// Declared order for products and reports.
		sort.Slice(chosen, func(i, j int) bool {
			return cands[chosen[i]].nets[0] < cands[chosen[j]].nets[0]
		})

		// Irredundancy prune: drop any split whose removal still
		// discharges every covered site, re-probing the reduced product
		// each time.  What survives is minimal by construction.
		target := jointDischarged(V, cands, chosen, sites, siteKeys, &probes)
		for i := 0; i < len(chosen); {
			reduced := append(append([]int(nil), chosen[:i]...), chosen[i+1:]...)
			if covers(jointDischarged(V, cands, reduced, sites, siteKeys, &probes), target) {
				cands[chosen[i]].chosen = false
				chosen = reduced
				target = jointDischarged(V, cands, chosen, sites, siteKeys, &probes)
				i = 0
				continue
			}
			i++
		}
	}

	// Final run: the design under the emitted case set (or its own
	// declared cases when the search found nothing to split on).
	fd := d
	var caseSet []netlist.Case
	if len(chosen) > 0 {
		caseSet = productCases(cands, chosen)
		fd = d.WithCases(caseSet)
	}
	final, err := verify.RunContext(ctx, fd, fopts)
	if err != nil {
		return nil, err
	}

	// Report: discharge is judged against the final run — ground truth,
	// not the probes.
	finalKeys := make(map[string]bool, len(final.Violations))
	for _, viol := range final.Violations {
		finalKeys[violationKey(viol)] = true
	}
	for i := range ex.Sites {
		ex.Sites[i].Discharged = !finalKeys[ex.Sites[i].Key()]
	}
	for _, ci := range chosen {
		c := &cands[ci]
		ex.Chosen = append(ex.Chosen, c.base)
		for si := range ex.Sites {
			if anchorIn(anchors[si], c.cone) {
				ex.Sites[si].By = append(ex.Sites[si].By, c.base)
			}
		}
	}
	for _, c := range cands {
		ec := verify.ExploreCandidate{
			Base:       c.base,
			Sites:      c.sites,
			ConePrims:  c.cone.PrimCount,
			ConeNets:   c.cone.NetCount,
			Probes:     c.probes,
			Discharges: c.discharges,
			Chosen:     c.chosen,
		}
		for _, id := range c.nets {
			ec.Nets = append(ec.Nets, d.Nets[id].Name)
		}
		ex.Candidates = append(ex.Candidates, ec)
	}
	for _, cs := range caseSet {
		ex.CaseSet = append(ex.CaseSet, cs.Label)
	}
	ex.Residual = len(final.Violations)

	final.Exploration = ex
	final.Stats.ExploreCandidates = len(cands)
	final.Stats.ExploreProbes = probes
	final.Stats.ExploreTime = time.Since(start)
	return final, nil
}

// candidate is one control-signal base under consideration.
type candidate struct {
	base       string
	nets       []netlist.NetID
	cone       netlist.Cone
	sites      int // poisoned sites inside the cone
	probes     int
	discharges []int
	chosen     bool
}

// split is one S→v assignment.
type split struct {
	base string
	val  values.Value
}

// splitCase spells a case the way the parser does: "BASE = v" labels
// joined with ", ", so emitted sets read back as case directives.
func splitCase(splits []split) netlist.Case {
	var c netlist.Case
	var labels []string
	for _, s := range splits {
		v := 0
		if s.val == values.V1 {
			v = 1
		}
		labels = append(labels, fmt.Sprintf("%s = %d", s.base, v))
		c.Assignments = append(c.Assignments, netlist.CaseAssign{Base: s.base, Value: s.val})
	}
	c.Label = strings.Join(labels, ", ")
	return c
}

// productCases enumerates the binary product of the chosen splits, first
// declared base varying slowest — the order a designer would write.
func productCases(cands []candidate, chosen []int) []netlist.Case {
	n := len(chosen)
	out := make([]netlist.Case, 0, 1<<n)
	for bits := 0; bits < 1<<n; bits++ {
		splits := make([]split, n)
		for i, ci := range chosen {
			v := values.V0
			if bits&(1<<(n-1-i)) != 0 {
				v = values.V1
			}
			splits[i] = split{cands[ci].base, v}
		}
		out = append(out, splitCase(splits))
	}
	return out
}

// jointDischarged probes the product of the given splits and reports
// which sites none of the product cases violate.
func jointDischarged(V *verify.Verifier, cands []candidate, chosen []int,
	sites []verify.ExploredSite, siteKeys map[string]int, probes *int) []bool {
	discharged := make([]bool, len(sites))
	if len(chosen) == 0 {
		return discharged
	}
	for i := range discharged {
		discharged[i] = true
	}
	for _, c := range productCases(cands, chosen) {
		cr, err := V.EvalCase(c)
		if err != nil {
			// A failing probe discharges nothing; the caller's cover
			// keeps the larger set, which stays sound.
			return make([]bool, len(sites))
		}
		*probes++
		for _, viol := range cr.Violations {
			if i, ok := siteKeys[violationKey(viol)]; ok {
				discharged[i] = false
			}
		}
	}
	return discharged
}

// covers reports a ⊇ b.
func covers(a, b []bool) bool {
	for i := range b {
		if b[i] && !a[i] {
			return false
		}
	}
	return true
}

// anchor locates a violation site in the design for cone-membership
// tests: a checker primitive, or the asserted net of an assertion
// cross-check.
type anchor struct {
	prim netlist.PrimID
	net  netlist.NetID
	kind int // 0 prim, 1 net, -1 unresolved
}

func anchorIn(a anchor, c netlist.Cone) bool {
	switch a.kind {
	case 0:
		return c.Prims[a.prim]
	case 1:
		return c.Nets[a.net]
	}
	return false
}

// violationKey identifies a constraint site independent of case label and
// edge time — the identity under which a violation counts as discharged.
func violationKey(v verify.Violation) string {
	return v.Kind.String() + "|" + v.Prim + "|" + v.Data + "|" + v.Clock
}

// poisonedSites collects the distinct U/C-poisoned constraint sites of a
// base run, in violation-report order, with their design anchors.
func poisonedSites(d *netlist.Design, res *verify.Result) ([]verify.ExploredSite, []anchor) {
	primByName := make(map[string]netlist.PrimID, len(d.Prims))
	for i := range d.Prims {
		primByName[d.Prims[i].Name] = netlist.PrimID(i)
	}
	seen := make(map[string]bool)
	var sites []verify.ExploredSite
	var anchors []anchor
	for _, v := range res.Violations {
		if v.Kind == verify.ConvergenceViolation || !poisoned(v) {
			continue
		}
		s := verify.ExploredSite{Kind: v.Kind, Prim: v.Prim, Data: v.Data, Clock: v.Clock}
		if seen[s.Key()] {
			continue
		}
		seen[s.Key()] = true
		a := anchor{kind: -1}
		if strings.HasPrefix(v.Prim, "assertion ") {
			if id, ok := d.NetByName(v.Data); ok {
				a = anchor{net: id, kind: 1}
			}
		} else if pid, ok := primByName[v.Prim]; ok {
			a = anchor{prim: pid, kind: 0}
		}
		sites = append(sites, s)
		anchors = append(anchors, a)
	}
	return sites, anchors
}

// poisoned reports whether the violation's observed waveforms carry
// unknown or spuriously-changing values — the signature of a missing
// case split, as opposed to a real worst-case timing error.
func poisoned(v verify.Violation) bool {
	if v.Kind == verify.UnknownClockViolation {
		return true
	}
	return hasUC(v.DataWave) || hasUC(v.ClockWave)
}

func hasUC(w values.Waveform) bool {
	for _, s := range w.Segs {
		if s.V == values.VU || s.V == values.VC {
			return true
		}
	}
	return false
}

// rankCandidates lists the splittable control signals — undriven,
// unpinned nets whose assertion leaves the value open (none or STABLE) —
// grouped by base in declared net order, ranked by how many poisoned
// sites their forward cone reaches (descending), declaration order
// breaking ties.
func rankCandidates(d *netlist.Design, anchors []anchor) []candidate {
	var cands []candidate
	index := make(map[string]int)
	for i := range d.Nets {
		n := &d.Nets[i]
		if n.Driver != netlist.NoDriver {
			continue
		}
		if n.Assert != nil && n.Assert.Kind != assertion.None && n.Assert.Kind != assertion.Stable {
			continue
		}
		ci, ok := index[n.Base]
		if !ok {
			ci = len(cands)
			index[n.Base] = ci
			cands = append(cands, candidate{base: n.Base})
		}
		cands[ci].nets = append(cands[ci].nets, netlist.NetID(i))
	}
	for ci := range cands {
		c := &cands[ci]
		c.cone = d.ForwardCone(netlist.Changes{Nets: c.nets})
		for _, a := range anchors {
			if anchorIn(a, c.cone) {
				c.sites++
			}
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].sites != cands[j].sites {
			return cands[i].sites > cands[j].sites
		}
		return cands[i].nets[0] < cands[j].nets[0]
	})
	return cands
}
