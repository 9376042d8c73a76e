// Package eval implements the waveform transfer functions of the built-in
// primitives (§2.4): given the input signals of a primitive instance, it
// produces the output signal over one clock period.
//
// Signals carry both their seven-value waveform and the remaining
// evaluation-directive string (§2.6, §2.8): each level of gating consumes
// the first letter of the string governing it and passes the rest along
// with its output value.
package eval

import (
	"fmt"

	"scaldtv/internal/assertion"
	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
)

// Signal is the propagated state of one net: its waveform and the
// evaluation string riding on it (the EVAL STR PTR of Fig 2-7).
type Signal struct {
	Wave values.Waveform
	Dirs assertion.Directives
}

// Getter supplies the current signal of a net.
type Getter func(netlist.NetID) Signal

// procIn is one fully-processed input bit: complemented if the connection
// uses the "-" rail, delayed by its interconnection, with its governing
// directive resolved.
type procIn struct {
	wave values.Waveform
	dir  assertion.Directive  // directive governing this gating level
	rest assertion.Directives // remainder to pass downstream
}

// processConn fetches, complements and wire-delays one input connection.
// A directive written on the pin starts a fresh evaluation string; otherwise
// the string carried by the incoming signal continues.
func processConn(d *netlist.Design, c netlist.Conn, get Getter) procIn {
	sig := get(c.Net)
	dirs := sig.Dirs
	if !c.Directives.Empty() {
		dirs = c.Directives
	}
	head, rest := dirs.Head()
	w := sig.Wave
	if c.Invert {
		w = w.MapUnary(values.Not)
	}
	if wd := d.WireDelay(c.Net, head); !wd.IsZero() {
		w = w.Delay(wd)
	}
	return procIn{wave: w, dir: head, rest: rest}
}

// ConnWave returns the fully-processed waveform seen at an input pin: the
// incoming signal complemented and interconnection-delayed exactly as Prim
// would see it.  The checkers use it so that constraint checking and
// primitive evaluation observe identical signals.
func ConnWave(d *netlist.Design, c netlist.Conn, get Getter) values.Waveform {
	return processConn(d, c, get).wave
}

// ConnDirective returns the evaluation directive governing an input pin:
// the first letter of the pin's own directive string when present,
// otherwise of the string carried by the incoming signal.
func ConnDirective(c netlist.Conn, get Getter) assertion.Directive {
	dirs := get(c.Net).Dirs
	if !c.Directives.Empty() {
		dirs = c.Directives
	}
	head, _ := dirs.Head()
	return head
}

// Prim evaluates a driving primitive, returning one output signal per bit
// of its (single) output port.  Checker primitives return nil.
func Prim(d *netlist.Design, p *netlist.Prim, get Getter) ([]Signal, error) {
	switch {
	case p.Kind.IsChecker():
		return nil, nil
	case p.Kind.IsGate():
		return evalGate(d, p, get)
	case p.Kind.NumSelects() > 0:
		return evalMux(d, p, get)
	case p.Kind == netlist.KReg || p.Kind == netlist.KRegRS:
		return evalRegister(d, p, get)
	case p.Kind == netlist.KLatch || p.Kind == netlist.KLatchRS:
		return evalLatch(d, p, get)
	}
	return nil, fmt.Errorf("eval: primitive %q has unknown kind %v", p.Name, p.Kind)
}

// sameConnSignal reports whether two connections currently observe the
// same processed signal: same rail and directives, same interconnection
// delay, and semantically equal waveforms.  It is the basis of the
// vectored-primitive economy (§3.3.2): most bits of a bus share one
// timing behaviour, so one evaluation serves the whole vector.
func sameConnSignal(d *netlist.Design, a, b netlist.Conn, get Getter) bool {
	if a.Net == b.Net {
		return a.Invert == b.Invert && a.Directives == b.Directives
	}
	if a.Invert != b.Invert || a.Directives != b.Directives {
		return false
	}
	sa, sb := get(a.Net), get(b.Net)
	if sa.Dirs != sb.Dirs {
		return false
	}
	wa, wb := d.DefaultWire, d.DefaultWire
	if w := d.Nets[a.Net].Wire; w != nil {
		wa = *w
	}
	if w := d.Nets[b.Net].Wire; w != nil {
		wb = *w
	}
	if wa != wb {
		return false
	}
	return sa.Wave.Equal(sb.Wave)
}

// samePortBits reports whether every given input port observes identical
// signals at two bit positions.
func samePortBits(d *netlist.Design, p *netlist.Prim, ports []int, bitA, bitB int, get Getter) bool {
	for _, pi := range ports {
		if !sameConnSignal(d, p.In[pi].Bits[bitA], p.In[pi].Bits[bitB], get) {
			return false
		}
	}
	return true
}

// identity returns the value that does not influence the given gate: the
// value a control input is assumed to hold when an &A or &H directive
// asserts that it enables the gate (§2.6).
func identity(k netlist.Kind) values.Value {
	switch k {
	case netlist.KAnd, netlist.KNand:
		return values.V1
	case netlist.KOr, netlist.KNor:
		return values.V0
	case netlist.KXor:
		return values.V0
	}
	return values.VS
}

func gateFold(k netlist.Kind) (func(values.Value, values.Value) values.Value, bool) {
	switch k {
	case netlist.KAnd:
		return values.And, false
	case netlist.KNand:
		return values.And, true
	case netlist.KOr:
		return values.Or, false
	case netlist.KNor:
		return values.Or, true
	case netlist.KXor:
		return values.Xor, false
	}
	return nil, false
}

func evalGate(d *netlist.Design, p *netlist.Prim, get Getter) ([]Signal, error) {
	out := make([]Signal, p.Width)
	allPorts := make([]int, len(p.In))
	for i := range allPorts {
		allPorts[i] = i
	}
	for bit := 0; bit < p.Width; bit++ {
		if bit > 0 && samePortBits(d, p, allPorts, bit, bit-1, get) {
			out[bit] = out[bit-1]
			continue
		}
		ins := make([]procIn, len(p.In))
		for i, port := range p.In {
			ins[i] = processConn(d, port.Bits[bit], get)
		}

		// Directive effects: any Z/H zeroes the gate delay; any A/H marks
		// its input as the clock and replaces the remaining inputs with
		// the gate's identity (they are assumed to enable it).
		delay := p.Delay
		zeroed := false
		anyClock := false
		for _, in := range ins {
			if in.dir.ZeroesGate() {
				delay = tick.Range{}
				zeroed = true
			}
			if in.dir.ChecksStability() {
				anyClock = true
			}
		}

		var w values.Waveform
		var rest assertion.Directives
		switch p.Kind {
		case netlist.KBuf, netlist.KNot:
			w = ins[0].wave
			if p.Kind == netlist.KNot {
				w = w.MapUnary(values.Not)
			}
			rest = ins[0].rest
		case netlist.KChg:
			// The CHANGE function cares only when inputs change, including
			// crisp 0↔1 flips (a parity tree's output moves when any input
			// toggles), so inputs are reduced to their activity first.
			waves := make([]values.Waveform, len(ins))
			for i, in := range ins {
				waves[i] = in.wave.Activity()
			}
			w = values.CombineAll(func(vs []values.Value) values.Value {
				return values.Chg(vs...)
			}, waves...)
			rest = firstRest(ins, false)
		default:
			fold, inv := gateFold(p.Kind)
			if fold == nil {
				return nil, fmt.Errorf("eval: gate %q has unsupported kind %v", p.Name, p.Kind)
			}
			waves := make([]values.Waveform, 0, len(ins))
			for _, in := range ins {
				if anyClock && !in.dir.ChecksStability() {
					waves = append(waves, values.Const(d.Period, identity(p.Kind)))
					continue
				}
				waves = append(waves, in.wave)
			}
			w = values.CombineN(fold, waves...)
			if inv {
				w = w.MapUnary(values.Not)
			}
			rest = firstRest(ins, anyClock)
		}

		switch {
		case p.RF != nil && !zeroed:
			// Direction-dependent delays (§4.2.2): exact for value-known
			// outputs, the conservative envelope otherwise.
			w = w.DelayRF(p.RF.Rise, p.RF.Fall)
		case !delay.IsZero():
			w = w.Delay(delay)
		}
		out[bit] = Signal{Wave: w, Dirs: rest}
	}
	return out, nil
}

// firstRest picks the evaluation string to pass downstream: the remainder
// from the clock-marked input when one exists, otherwise the first
// non-empty remainder.
func firstRest(ins []procIn, preferClock bool) assertion.Directives {
	if preferClock {
		for _, in := range ins {
			if in.dir.ChecksStability() && !in.rest.Empty() {
				return in.rest
			}
		}
	}
	for _, in := range ins {
		if !in.rest.Empty() {
			return in.rest
		}
	}
	return ""
}

func evalMux(d *netlist.Design, p *netlist.Prim, get Getter) ([]Signal, error) {
	ns, nd := p.Kind.NumSelects(), p.Kind.NumMuxData()
	// Select inputs are shared across bits: process once, adding the extra
	// select-path delay (Fig 3-6).
	sels := make([]values.Waveform, ns)
	allConst := true
	for i := 0; i < ns; i++ {
		in := processConn(d, p.In[i].Bits[0], get)
		w := in.wave
		if !p.SelectDelay.IsZero() {
			w = w.Delay(p.SelectDelay)
		}
		sels[i] = w
		if v, ok := w.ConstantValue(); !ok || !v.Const() {
			allConst = false
		}
	}

	dataPorts := make([]int, nd)
	for i := range dataPorts {
		dataPorts[i] = ns + i
	}
	out := make([]Signal, p.Width)
	for bit := 0; bit < p.Width; bit++ {
		if bit > 0 && samePortBits(d, p, dataPorts, bit, bit-1, get) {
			out[bit] = out[bit-1]
			continue
		}
		data := make([]values.Waveform, nd)
		for i := 0; i < nd; i++ {
			data[i] = processConn(d, p.In[ns+i].Bits[bit], get).wave
		}

		var w values.Waveform
		if allConst {
			// Fully-pinned select: the output is exactly the selected
			// input, skew preserved.
			idx := 0
			for i := 0; i < ns; i++ {
				if v, _ := sels[i].ConstantValue(); v == values.V1 {
					idx |= 1 << i
				}
			}
			w = data[idx]
		} else {
			// Pointwise evaluation over the instantaneous select values:
			// where the select field is a known constant the output tracks
			// that one input (a clock driving a select line, §4.1, gives
			// exact per-level windows); where it is STABLE the output is
			// the worst case across consistent candidates; where it is
			// changing the output may change.
			all := append(append([]values.Waveform{}, sels...), data...)
			w = values.CombineAll(func(vs []values.Value) values.Value {
				return muxValue(vs[:ns], vs[ns:])
			}, all...)
			// A crisp select flip switches the output instantaneously
			// between data inputs: mark it unless every candidate pair is
			// the same constant (wider select uncertainty already shows
			// as bands after skew incorporation above).
			for _, s := range sels {
				for _, tr := range s.Transitions() {
					if !tr.From.Const() || !tr.To.Const() || tr.From == tr.To {
						continue
					}
					same := true
					v0 := data[0].At(tr.At)
					for _, dw := range data[1:] {
						if dw.At(tr.At) != v0 {
							same = false
							break
						}
					}
					if !(same && v0.Const()) {
						w = w.Paint(tr.At, tr.At+1, values.VC)
					}
				}
			}
		}
		if !p.Delay.IsZero() {
			w = w.Delay(p.Delay)
		}
		out[bit] = Signal{Wave: w}
	}
	return out, nil
}

// muxValue gives the instantaneous multiplexer output for select-bit
// values sels and data-input values data.
func muxValue(sels, data []values.Value) values.Value {
	idx, known := 0, true
	anyChanging := false
	for i, s := range sels {
		switch {
		case s == values.VU:
			return values.VU
		case s == values.V1:
			idx |= 1 << i
		case s == values.V0:
			// contributes 0
		default:
			known = false
			if s.Changing() {
				anyChanging = true
			}
		}
	}
	if known {
		return data[idx]
	}
	// Candidates consistent with the pinned select bits.
	var cands []values.Value
	for i := range data {
		ok := true
		for j, s := range sels {
			if s.Const() {
				want := s == values.V1
				if ((i>>j)&1 == 1) != want {
					ok = false
					break
				}
			}
		}
		if ok {
			cands = append(cands, data[i])
		}
	}
	if anyChanging {
		same := true
		for _, c := range cands[1:] {
			if c != cands[0] {
				same = false
			}
		}
		if same && len(cands) > 0 && cands[0].Const() {
			return cands[0]
		}
		for _, c := range cands {
			if c == values.VU {
				return values.VU
			}
		}
		return values.VC
	}
	out := cands[0]
	for _, c := range cands[1:] {
		out = values.Either(out, c)
	}
	return out
}

// evalRegister implements the two register models of Fig 2-1.  The output
// changes only within the window [edge.Start+Min, edge.End+Max) after each
// rising clock edge; elsewhere it holds STABLE, or the data input's value
// when that value is a logic constant at the clocking instant.
func evalRegister(d *netlist.Design, p *netlist.Prim, get Getter) ([]Signal, error) {
	ck := processConn(d, p.In[0].Bits[0], get)
	edges := ck.wave.RisingEdges()

	var overlay values.Waveform
	hasRS := p.Kind == netlist.KRegRS
	if hasRS {
		set := processConn(d, p.In[2].Bits[0], get)
		reset := processConn(d, p.In[3].Bits[0], get)
		overlay = values.Combine(set.wave, reset.wave, setResetOverlay).Delay(p.Delay)
	}

	out := make([]Signal, p.Width)
	for bit := 0; bit < p.Width; bit++ {
		if bit > 0 && samePortBits(d, p, []int{1}, bit, bit-1, get) {
			out[bit] = out[bit-1]
			continue
		}
		data := processConn(d, p.In[1].Bits[bit], get)
		w := clockedOutput(d.Period, edges, data.wave, p.Delay, ck.wave)
		if hasRS {
			w = values.Combine(w, overlay, applyOverlay)
		}
		out[bit] = Signal{Wave: w}
	}
	return out, nil
}

// clockedOutput builds a register-style output: STABLE (or a captured
// constant) between clocking windows, CHANGE within them.
func clockedOutput(period tick.Time, edges []values.Edge, data values.Waveform, delay tick.Range, ck values.Waveform) values.Waveform {
	if v, ok := ck.ConstantValue(); ok && v == values.VU {
		return values.Const(period, values.VU)
	}
	if len(edges) == 0 {
		// Never clocked: the output holds its (unknowable) state.
		return values.Const(period, values.VS)
	}
	dataInc := data.IncorporateSkew()
	out := values.Const(period, values.VS)
	// Captured value after each window: the data value at the clocking
	// instant when it is a logic constant throughout the edge window.
	for i, e := range edges {
		capV := dataInc.At(e.Start)
		if !capV.Const() || dataInc.At(e.End) != capV {
			capV = values.VS
		}
		if capV == values.VS {
			continue
		}
		// Paint from the end of this window to the start of the next, in
		// unwrapped time so overlapping windows paint nothing.
		winEnd := e.End + delay.Max
		var nextStart tick.Time
		if i+1 < len(edges) {
			nextStart = edges[i+1].Start + delay.Min
		} else {
			nextStart = edges[0].Start + delay.Min + period
		}
		if nextStart > winEnd {
			out = out.Paint(winEnd, nextStart, capV)
		}
	}
	for _, e := range edges {
		out = out.Paint(e.Start+delay.Min, e.End+delay.Max, values.VC)
	}
	return out
}

// setResetOverlay combines asynchronous SET and RESET into an overriding
// value: STABLE acts as the "inactive" marker (§2.4.3).
func setResetOverlay(s, r values.Value) values.Value {
	switch {
	case s == values.VU || r == values.VU:
		return values.VU
	case s == values.V0 && r == values.V0:
		return values.VS // inactive: the clocked path rules
	case s == values.V1 && r == values.V1:
		return values.VU
	case s == values.V1 && r == values.V0:
		return values.V1
	case s == values.V0 && r == values.V1:
		return values.V0
	}
	// Any changing or stable-unknown control: the output may change.
	return values.VC
}

// applyOverlay merges the clocked output with the asynchronous overlay.
func applyOverlay(normal, overlay values.Value) values.Value {
	if overlay == values.VS {
		return normal
	}
	return overlay
}

// evalLatch implements the two latch models of Fig 2-2: transparent while
// the enable is high, holding while low, with a change window as the latch
// opens.
func evalLatch(d *netlist.Design, p *netlist.Prim, get Getter) ([]Signal, error) {
	en := processConn(d, p.In[0].Bits[0], get)
	enD := en.wave.Delay(p.Delay)

	var overlay values.Waveform
	hasRS := p.Kind == netlist.KLatchRS
	if hasRS {
		set := processConn(d, p.In[2].Bits[0], get)
		reset := processConn(d, p.In[3].Bits[0], get)
		overlay = values.Combine(set.wave, reset.wave, setResetOverlay).Delay(p.Delay)
	}

	out := make([]Signal, p.Width)
	for bit := 0; bit < p.Width; bit++ {
		if bit > 0 && samePortBits(d, p, []int{1}, bit, bit-1, get) {
			out[bit] = out[bit-1]
			continue
		}
		data := processConn(d, p.In[1].Bits[bit], get)
		var w values.Waveform
		if c, ok := data.wave.ConstantValue(); ok && c.Const() {
			// Constant data: in periodic steady state the held value
			// equals the flowing value, so the output is that constant
			// wherever the enable is defined.
			w = enD.MapUnary(func(e values.Value) values.Value {
				if e == values.VU {
					return values.VU
				}
				return c
			})
		} else {
			datD := data.wave.Delay(p.Delay)
			w = values.Combine(enD, datD, latchValue)
		}
		if hasRS {
			w = values.Combine(w, overlay, applyOverlay)
		}
		out[bit] = Signal{Wave: w}
	}
	return out, nil
}

// latchValue gives the latch output for an enable value e and (delayed)
// data value v.
func latchValue(e, v values.Value) values.Value {
	switch e {
	case values.V0:
		return values.VS // holding
	case values.V1:
		return v // transparent
	case values.VU:
		return values.VU
	case values.VF:
		// Closing: the output follows the data through the band and then
		// holds whatever was captured — stable data passes unchanged.
		if v.Stable() {
			return v
		}
		return values.VC
	}
	// Opening (R) or indeterminate (C): the held value may differ from the
	// incoming data, so the output may change.
	if v == values.VU {
		return values.VU
	}
	return values.VC
}
