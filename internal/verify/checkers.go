package verify

import (
	"encoding/binary"
	"fmt"

	"scaldtv/internal/assertion"
	"scaldtv/internal/eval"
	"scaldtv/internal/netlist"
	"scaldtv/internal/tape"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
)

// check runs every constraint checker against the relaxed waveforms
// (§2.9 step 3): the set-up/hold and minimum-pulse-width primitives, the
// &A/&H directive stability rules, and the designer assertions on
// generated signals.  When a Verifier retains this case (v.sites is
// non-nil) each site's outcome is memoized for incremental rechecks.
func (v *verifier) check(caseLabel string) []Violation {
	var out []Violation
	for pi := range v.d.Prims {
		mark := len(v.margins)
		viol := v.checkSite(netlist.PrimID(pi), caseLabel)
		if v.sites != nil {
			v.sites[pi] = siteChecks{viols: viol, margins: append([]Margin(nil), v.margins[mark:]...)}
		}
		out = append(out, viol...)
	}
	out = append(out, v.checkAssertions(caseLabel)...)
	return out
}

// checkSite evaluates the constraint rules anchored at one primitive.
// On the compiled tape the site is routed through its precompiled plan
// and the program's negative cache; Reference always runs the full check.
// Both paths produce identical violations and margins.
func (v *verifier) checkSite(pi netlist.PrimID, caseLabel string) []Violation {
	if v.prog == nil {
		return v.checkSiteFull(pi, caseLabel)
	}
	return v.tapeCheckSite(pi, caseLabel)
}

// tapeCheckSite is the tape's checking path.  PlanNone sites are skipped
// outright; PlanDirective sites first scan the resolved directive heads —
// a gate none of whose inputs carries &A/&H has nothing to check, exactly
// the case checkSiteFull's window loop degenerates to.  Every remaining
// site consults its warm slot, then the negative cache: a site key — the
// evaluation-memo key of everything the check reads, plus the checker
// intervals — recorded as clean means the full check returned no
// violations and no margins, so it is skipped.  Margins runs bypass both
// entirely (margins are recorded even for passing constraints, so no
// outcome is empty).
func (v *verifier) tapeCheckSite(pi netlist.PrimID, caseLabel string) []Violation {
	p := &v.d.Prims[pi]
	switch v.prog.Plans[pi] {
	case tape.PlanNone:
		return nil
	case tape.PlanDirective:
		marked := false
	scan:
		for bit := 0; bit < p.Width; bit++ {
			for _, port := range p.In {
				if eval.ConnDirective(port.Bits[bit], v.get).ChecksStability() {
					marked = true
					break scan
				}
			}
		}
		if !marked {
			return nil
		}
	}
	if v.opts.Margins {
		return v.checkSiteFull(pi, caseLabel)
	}
	// Warm slot first: a clean-site variant (Outs == nil) records that the
	// full check of these exact inputs was clean under the current
	// environment generation — skipped with a handle walk, no key build,
	// no lock.
	if v.slotLookup(pi, true) != nil {
		return nil
	}
	sc := v.sc()
	sc.keyBuf = appendSiteKey(sc.keyBuf[:0], v.d, p, sc.get, sc.wid)
	if v.prog.Sites.Known(sc.keyBuf) {
		v.publishSlot(pi, nil, nil)
		return nil
	}
	mark := len(v.margins)
	out := v.checkSiteFull(pi, caseLabel)
	if out == nil && len(v.margins) == mark {
		v.prog.Sites.Add(sc.keyBuf)
		v.publishSlot(pi, nil, nil)
	}
	return out
}

// appendSiteKey builds a constraint site's negative-cache key: the
// evaluation-memo key (kind, width, period, delay parameters, and per
// input connection the complement rail, resolved directives, wire delay
// and interned waveform handle — everything the checking functions read
// through ConnWave and ConnDirective) extended with the checker
// intervals, which the evaluator does not read.  Names and the case label
// are deliberately absent: they only appear in non-empty outcomes, which
// are never cached.
func appendSiteKey(buf []byte, d *netlist.Design, p *netlist.Prim, get eval.Getter, wid eval.WaveID) []byte {
	buf = eval.AppendKey(buf, d, p, get, wid)
	buf = binary.AppendVarint(buf, int64(p.Setup))
	buf = binary.AppendVarint(buf, int64(p.Hold))
	buf = binary.AppendVarint(buf, int64(p.MinHigh))
	buf = binary.AppendVarint(buf, int64(p.MinLow))
	return buf
}

// checkSiteFull evaluates the constraint rules anchored at one primitive:
// the checker primitives themselves, directive stability on multi-input
// gates, and the clock-defined rule on storage elements.
func (v *verifier) checkSiteFull(pi netlist.PrimID, caseLabel string) []Violation {
	p := &v.d.Prims[pi]
	switch p.Kind {
	case netlist.KSetupHold:
		return v.checkSetupHold(p, caseLabel, false)
	case netlist.KSetupRiseHoldFall:
		return v.checkSetupHold(p, caseLabel, true)
	case netlist.KMinPulse:
		return v.checkMinPulse(p, caseLabel)
	default:
		var out []Violation
		if p.Kind.IsGate() && len(p.In) > 1 {
			out = append(out, v.checkDirectives(p, caseLabel)...)
		}
		if p.Kind.IsStorage() {
			out = append(out, v.checkClockDefined(p, caseLabel)...)
		}
		return out
	}
}

// recheck reproduces check's output after an incremental relaxation: a
// site is re-evaluated only when its parameters were edited or one of
// the nets it reads moved during the pass (including wire-delay edits,
// which change what ConnWave reads without changing the stored
// waveform); every clean site replays its memoized violations and
// margins, preserving check's (prim order, then assertions) contract.
// The assertion cross-checks read design-global state and are cheap, so
// they are always recomputed.
func (v *verifier) recheck(caseLabel string, dirtyPrim []bool) []Violation {
	var out []Violation
	for pi := range v.d.Prims {
		p := &v.d.Prims[pi]
		dirty := dirtyPrim[pi]
		if !dirty {
		scan:
			for _, port := range p.In {
				for _, c := range port.Bits {
					if v.changed[c.Net] {
						dirty = true
						break scan
					}
				}
			}
		}
		if dirty {
			mark := len(v.margins)
			viol := v.checkSite(netlist.PrimID(pi), caseLabel)
			v.sites[pi] = siteChecks{viols: viol, margins: append([]Margin(nil), v.margins[mark:]...)}
		} else {
			v.margins = append(v.margins, v.sites[pi].margins...)
		}
		out = append(out, v.sites[pi].viols...)
	}
	out = append(out, v.checkAssertions(caseLabel)...)
	return out
}

func (v *verifier) get(n netlist.NetID) eval.Signal { return v.sigs[n] }

// dataGroups groups the bits of a checker's data port by waveform, so a
// 32-bit bus with uniform timing produces one message, not 32.
func (v *verifier) dataGroups(p *netlist.Prim, port int) []struct {
	name  string
	extra int
	wave  values.Waveform
} {
	var groups []struct {
		name  string
		extra int
		wave  values.Waveform
	}
	for _, c := range p.In[port].Bits {
		w := eval.ConnWave(v.d, c, v.get)
		if n := len(groups); n > 0 && groups[n-1].wave.Equal(w) {
			groups[n-1].extra++
			continue
		}
		groups = append(groups, struct {
			name  string
			extra int
			wave  values.Waveform
		}{name: v.d.Nets[c.Net].Name, wave: w})
	}
	return groups
}

// checkSetupHold implements both checker primitives of Fig 2-3.  For the
// plain SETUP HOLD CHK, stability is required from setup before each
// rising-edge window of CK until hold after it.  For the SETUP RISE HOLD
// FALL CHK, stability is additionally required throughout the clock's true
// interval, with the hold measured from the falling edge (the form memory
// elements need).
func (v *verifier) checkSetupHold(p *netlist.Prim, caseLabel string, riseFall bool) []Violation {
	ckConn := p.In[1].Bits[0]
	ckWave := eval.ConnWave(v.d, ckConn, v.get)
	ckName := v.d.Nets[ckConn.Net].Name

	if hasUnknown(ckWave) {
		return []Violation{{
			Kind: UnknownClockViolation, Case: caseLabel, Prim: p.Name,
			Clock: ckName, ClockWave: ckWave,
			Detail: "the checker clock input has no defined value",
		}}
	}
	rises := ckWave.RisingEdges()
	if len(rises) == 0 {
		return nil
	}
	falls := ckWave.FallingEdges()

	var out []Violation
	for _, g := range v.dataGroups(p, 0) {
		detail := ""
		if g.extra > 0 {
			detail = fmt.Sprintf("and %d further bits with identical timing", g.extra)
		}
		margin := func(kind ViolationKind, required, actual, at tick.Time) {
			if !v.opts.Margins {
				return
			}
			v.margins = append(v.margins, Margin{
				Kind: kind, Case: caseLabel, Prim: p.Name,
				Data: g.name, Clock: ckName,
				Required: required, Actual: actual, At: tick.Mod(at, v.d.Period),
			})
		}
		report := func(kind ViolationKind, required, actual, at tick.Time, extra string) {
			d := detail
			if extra != "" {
				if d != "" {
					d = extra + "; " + d
				} else {
					d = extra
				}
			}
			out = append(out, Violation{
				Kind: kind, Case: caseLabel, Prim: p.Name,
				Data: g.name, Clock: ckName,
				Required: required, Actual: actual, At: tick.Mod(at, v.d.Period),
				DataWave: g.wave, ClockWave: ckWave, Detail: d,
			})
		}
		for _, e := range rises {
			var fallEnd tick.Time
			hasFall := false
			if riseFall {
				if f, ok := nextFall(e, falls, v.d.Period); ok {
					fallEnd = f
					hasFall = true
				}
			}
			// Set-up: stability reaching back from the earliest possible
			// clocking instant (Fig 3-11 measures to the start of the
			// rise).
			back := g.wave.StableBack(e.Start)
			margin(SetupViolation, p.Setup, back, e.Start)
			if back < p.Setup {
				report(SetupViolation, p.Setup, back, e.Start, "")
			}
			if riseFall && hasFall {
				// Stability through the clock-true interval.
				if !g.wave.StableThroughout(e.Start, fallEnd) {
					report(EnableViolation, fallEnd-e.Start, 0, e.Start,
						"the input must be stable for the entire interval over which the clock is true")
				}
				fwd := g.wave.StableFwd(fallEnd)
				margin(HoldViolation, p.Hold, fwd, fallEnd)
				if fwd < p.Hold {
					report(HoldViolation, p.Hold, fwd, fallEnd, "")
				}
				continue
			}
			// Plain set-up/hold around the rising-edge window.  A negative
			// hold shortens the required window from the edge end.
			holdEnd := e.End + p.Hold
			if p.Hold > 0 {
				fwd := g.wave.StableFwd(e.End)
				margin(HoldViolation, p.Hold, fwd, e.End)
				if fwd < p.Hold {
					report(HoldViolation, p.Hold, fwd, e.End, "")
				} else if !g.wave.StableThroughout(e.Start, e.End) {
					report(EnableViolation, e.End-e.Start, 0, e.Start,
						"the input may change within the clock edge uncertainty window")
				}
			} else if holdEnd > e.Start {
				if !g.wave.StableThroughout(e.Start, holdEnd) {
					report(HoldViolation, p.Hold, g.wave.StableFwd(e.Start)-(holdEnd-e.Start), e.Start, "")
				}
			}
		}
	}
	return out
}

// nextFall finds the end of the first falling-edge window at or after the
// rising edge e, cyclically.
func nextFall(e values.Edge, falls []values.Edge, period tick.Time) (tick.Time, bool) {
	if len(falls) == 0 {
		return 0, false
	}
	best, found := tick.Time(0), false
	for _, f := range falls {
		start := f.Start
		for start < e.End {
			start += period
		}
		end := start + (f.End - f.Start)
		if !found || end < best {
			best, found = end, true
		}
	}
	return best, found
}

// checkMinPulse implements the MIN PULSE WIDTH checker of Fig 2-4,
// operating on the skew-preserving pulse analysis so that pure delay
// uncertainty does not erode pulse widths (§2.8).
func (v *verifier) checkMinPulse(p *netlist.Prim, caseLabel string) []Violation {
	c := p.In[0].Bits[0]
	w := eval.ConnWave(v.d, c, v.get)
	name := v.d.Nets[c.Net].Name
	if hasUnknown(w) {
		return nil // undefined inputs are covered by the cross-reference listing
	}
	var out []Violation
	if p.MinHigh > 0 {
		for _, pulse := range w.HighPulses() {
			if v.opts.Margins {
				v.margins = append(v.margins, Margin{
					Kind: MinPulseHighViolation, Case: caseLabel, Prim: p.Name,
					Data: name, Required: p.MinHigh, Actual: pulse.MinWidth, At: pulse.Start,
				})
			}
			if pulse.MinWidth < p.MinHigh {
				out = append(out, Violation{
					Kind: MinPulseHighViolation, Case: caseLabel, Prim: p.Name,
					Data: name, Required: p.MinHigh, Actual: pulse.MinWidth,
					At: pulse.Start, DataWave: w,
				})
			}
		}
	}
	if p.MinLow > 0 {
		for _, pulse := range w.LowPulses() {
			if v.opts.Margins {
				v.margins = append(v.margins, Margin{
					Kind: MinPulseLowViolation, Case: caseLabel, Prim: p.Name,
					Data: name, Required: p.MinLow, Actual: pulse.MinWidth, At: pulse.Start,
				})
			}
			if pulse.MinWidth < p.MinLow {
				out = append(out, Violation{
					Kind: MinPulseLowViolation, Case: caseLabel, Prim: p.Name,
					Data: name, Required: p.MinLow, Actual: pulse.MinWidth,
					At: pulse.Start, DataWave: w,
				})
			}
		}
	}
	return out
}

// checkDirectives enforces the &A and &H rules (§2.6): every other input
// of the gate must be stable while the directive-marked input is asserted,
// to rule out hazards on gated clocks (Fig 1-5).
func (v *verifier) checkDirectives(p *netlist.Prim, caseLabel string) []Violation {
	var out []Violation
	seen := map[string]bool{}
	for bit := 0; bit < p.Width; bit++ {
		for i, port := range p.In {
			c := port.Bits[bit]
			if !eval.ConnDirective(c, v.get).ChecksStability() {
				continue
			}
			ckWave := eval.ConnWave(v.d, c, v.get)
			ckName := v.d.Nets[c.Net].Name
			windows := ckWave.IncorporateSkew().HighPulses()
			for j, other := range p.In {
				if j == i {
					continue
				}
				oc := other.Bits[bit]
				if eval.ConnDirective(oc, v.get).ChecksStability() {
					continue // two clocks ANDed: each is checked against the rest
				}
				dw := eval.ConnWave(v.d, oc, v.get)
				oName := v.d.Nets[oc.Net].Name
				for _, win := range windows {
					if dw.StableThroughout(win.Start, win.Start+win.MaxWidth) {
						continue
					}
					key := p.Name + "\x00" + oName + "\x00" + ckName
					if seen[key] {
						continue
					}
					seen[key] = true
					out = append(out, Violation{
						Kind: DirectiveViolation, Case: caseLabel, Prim: p.Name,
						Data: oName, Clock: ckName,
						At:       win.Start,
						DataWave: dw, ClockWave: ckWave,
						Detail: "control inputs gated with a clock must be stable while the clock is asserted",
					})
				}
			}
		}
	}
	return out
}

// checkClockDefined flags storage elements whose clock or enable has no
// defined value.
func (v *verifier) checkClockDefined(p *netlist.Prim, caseLabel string) []Violation {
	c := p.In[0].Bits[0]
	w := eval.ConnWave(v.d, c, v.get)
	if !hasUnknown(w) {
		return nil
	}
	return []Violation{{
		Kind: UnknownClockViolation, Case: caseLabel, Prim: p.Name,
		Clock: v.d.Nets[c.Net].Name, ClockWave: w,
		Detail: "the storage element's clock input has no defined value",
	}}
}

// checkAssertions cross-checks generated signals against their designer
// assertions (§2.5.2): once hardware drives an asserted signal, the
// computed timing must honour the assertion the rest of the design was
// verified against.
func (v *verifier) checkAssertions(caseLabel string) []Violation {
	var out []Violation
	reported := map[string]bool{}
	checkNet := func(i int) {
		n := &v.d.Nets[i]
		key := vectorBase(n.Base)
		if n.Assert == nil || n.Driver == netlist.NoDriver || reported[key] {
			return
		}
		id := netlist.NetID(i)
		switch n.Assert.Kind {
		case assertion.Stable:
			computed := v.sigs[id].Wave
			asserted := v.initial[id]
			for _, r := range asserted.Runs() {
				if r.V != values.VS {
					continue
				}
				if !computed.StableThroughout(r.Start, r.End()) {
					reported[key] = true
					out = append(out, Violation{
						Kind: AssertionViolation, Case: caseLabel,
						Prim: "assertion " + n.Assert.String(),
						Data: n.Name, At: tick.Mod(r.Start, v.d.Period),
						DataWave: computed,
						Detail: fmt.Sprintf("asserted stable %s–%s ns but the generated signal may change there",
							tick.Mod(r.Start, v.d.Period), tick.Mod(r.End(), v.d.Period)),
					})
					break
				}
			}
		case assertion.Clock, assertion.PrecisionClock:
			if !v.altOutSet[id] {
				return
			}
			computed := v.altOutW[id]
			if !computed.IncorporateSkew().Equal(v.initial[id].IncorporateSkew()) {
				reported[key] = true
				out = append(out, Violation{
					Kind: AssertionViolation, Case: caseLabel,
					Prim: "assertion " + n.Assert.String(),
					Data: n.Name, DataWave: computed, ClockWave: v.initial[id],
					Detail: "the generated clock does not match its assertion",
				})
			}
		}
	}
	if v.prog != nil {
		// The tape precomputed the candidate list (asserted and driven, in
		// ascending net order — Reference's visit order); the skip
		// conditions inside checkNet still apply, defensively.
		for _, id := range v.prog.Seeds().AssertNets {
			checkNet(int(id))
		}
	} else {
		for i := range v.d.Nets {
			checkNet(i)
		}
	}
	return out
}

// vectorBase strips a trailing bit subscript, so assertion violations are
// reported once per logical vector rather than once per bit.
func vectorBase(base string) string {
	if n := len(base); n > 2 && base[n-1] == '>' {
		for i := n - 2; i >= 0; i-- {
			c := base[i]
			if c == '<' {
				return base[:i]
			}
			if c < '0' || c > '9' {
				break
			}
		}
	}
	return base
}

func hasUnknown(w values.Waveform) bool {
	for _, s := range w.Segs {
		if s.V == values.VU {
			return true
		}
	}
	return false
}
