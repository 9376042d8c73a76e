package values

import (
	"fmt"
	"sort"
	"strings"

	"scaldtv/internal/tick"
)

// Segment is one node of the linked-list value representation in the paper
// (Fig 2-7): a signal value and the duration for which it holds.
type Segment struct {
	V Value
	W tick.Time // strictly positive
}

// Waveform represents the value of a signal over one clock period, plus the
// separately-carried skew (§2.8).  The segment widths always sum exactly to
// the period — the same consistency rule the paper imposes on its VALUE
// lists.  Waveforms are periodic: time indexes are taken modulo the period.
//
// Skew records the accumulated min/max delay uncertainty of a signal that
// has only been *delayed*, never combined with another changing signal.
// Because a pure delay shifts every transition of the waveform by the same
// amount, carrying the uncertainty out-of-band preserves pulse widths
// (Fig 2-8); it is folded into the segments as RISE/FALL/CHANGE bands only
// when the signal is combined with another changing signal (Fig 2-9).
type Waveform struct {
	Period tick.Time
	Skew   tick.Time
	Segs   []Segment
}

// Const returns a waveform holding v for the entire period.
func Const(period tick.Time, v Value) Waveform {
	if period <= 0 {
		panic("values: non-positive period")
	}
	return Waveform{Period: period, Segs: []Segment{{V: v, W: period}}}
}

// Span paints value V over [Start, End) when building a waveform.  A span
// may wrap around the cycle boundary (Start > End); Start == End paints
// nothing.
type Span struct {
	Start, End tick.Time
	V          Value
}

// FromSpans builds a waveform holding base everywhere except where the
// spans, painted in order, override it.
func FromSpans(period tick.Time, base Value, spans ...Span) Waveform {
	w := Const(period, base)
	for _, s := range spans {
		w = w.Paint(s.Start, s.End, s.V)
	}
	return w
}

// Check validates the structural invariants: positive period, positive
// segment widths, widths summing exactly to the period, non-negative skew.
func (w Waveform) Check() error {
	if w.Period <= 0 {
		return fmt.Errorf("values: non-positive period %v", w.Period)
	}
	if w.Skew < 0 {
		return fmt.Errorf("values: negative skew %v", w.Skew)
	}
	if len(w.Segs) == 0 {
		return fmt.Errorf("values: empty segment list")
	}
	var sum tick.Time
	for i, s := range w.Segs {
		if s.W <= 0 {
			return fmt.Errorf("values: segment %d has non-positive width %v", i, s.W)
		}
		if !s.V.Valid() {
			return fmt.Errorf("values: segment %d has invalid value %d", i, uint8(s.V))
		}
		sum += s.W
	}
	if sum != w.Period {
		return fmt.Errorf("values: segment widths sum to %v, want period %v", sum, w.Period)
	}
	return nil
}

// normalize merges adjacent equal-valued segments and drops zero-width
// ones.  The first segment stays anchored at time 0; the first and last
// segments may legitimately hold the same value (a run crossing the cycle
// boundary).
func (w Waveform) normalize() Waveform {
	out := make([]Segment, 0, len(w.Segs))
	for _, s := range w.Segs {
		if s.W == 0 {
			continue
		}
		if n := len(out); n > 0 && out[n-1].V == s.V {
			out[n-1].W += s.W
			continue
		}
		out = append(out, s)
	}
	w.Segs = out
	return w
}

// normalizeOwned is normalize for a waveform that exclusively owns its
// freshly built segment slice: compaction happens in place, allocating
// nothing.  Must not be called on a slice that may be shared.
func (w Waveform) normalizeOwned() Waveform {
	out := w.Segs[:0]
	for _, s := range w.Segs {
		if s.W == 0 {
			continue
		}
		if n := len(out); n > 0 && out[n-1].V == s.V {
			out[n-1].W += s.W
			continue
		}
		out = append(out, s)
	}
	w.Segs = out
	return w
}

// ConstantValue reports whether the waveform holds a single value for the
// whole period (considering wrap-around) and, if so, which.
func (w Waveform) ConstantValue() (Value, bool) {
	v := w.Segs[0].V
	for _, s := range w.Segs[1:] {
		if s.V != v {
			return 0, false
		}
	}
	return v, true
}

// At returns the value at time t (taken modulo the period).
func (w Waveform) At(t tick.Time) Value {
	t = tick.Mod(t, w.Period)
	var pos tick.Time
	for _, s := range w.Segs {
		pos += s.W
		if t < pos {
			return s.V
		}
	}
	return w.Segs[len(w.Segs)-1].V
}

// Paint returns a copy with value v over [start, end), both taken modulo
// the period.  A span at least one period long — end ≥ start + period —
// paints everything (the assertion "XYZ .S15-70" on a 50-unit cycle means
// always stable).  Start > end wraps around the cycle boundary and paints
// end - start + period; a span whose endpoints coincide modulo the period
// without covering it (start == end, start == end + period, a span ending
// exactly at the cycle boundary expressed as end == 0, ...) has zero
// effective width and paints nothing.
func (w Waveform) Paint(start, end tick.Time, v Value) Waveform {
	if end-start >= w.Period {
		out := Const(w.Period, v)
		out.Skew = w.Skew
		return out
	}
	s := tick.Mod(start, w.Period)
	e := tick.Mod(end, w.Period)
	if s == e {
		return w
	}
	if s < e {
		return w.paintLinear(s, e, v)
	}
	// Wrapping span: paint the tail and the head separately.
	return w.paintLinear(s, w.Period, v).paintLinear(0, e, v)
}

func (w Waveform) paintLinear(s, e tick.Time, v Value) Waveform {
	out := Waveform{Period: w.Period, Skew: w.Skew}
	out.Segs = make([]Segment, 0, len(w.Segs)+2)
	var pos tick.Time
	for _, seg := range w.Segs {
		segStart, segEnd := pos, pos+seg.W
		pos = segEnd
		if lo, hi := segStart, min(segEnd, s); hi > lo {
			out.Segs = append(out.Segs, Segment{V: seg.V, W: hi - lo})
		}
		if lo, hi := max(segStart, s), min(segEnd, e); hi > lo {
			out.Segs = append(out.Segs, Segment{V: v, W: hi - lo})
		}
		if lo, hi := max(segStart, e), segEnd; hi > lo {
			out.Segs = append(out.Segs, Segment{V: seg.V, W: hi - lo})
		}
	}
	return out.normalizeOwned()
}

// Rotate shifts the waveform later in time by d: out(t) = in(t-d).
// d may be negative or exceed the period.
func (w Waveform) Rotate(d tick.Time) Waveform {
	d = tick.Mod(d, w.Period)
	if d == 0 {
		return w.normalize()
	}
	// The original point at time P-d becomes the new time 0.
	cut := w.Period - d
	out := Waveform{Period: w.Period, Skew: w.Skew}
	out.Segs = make([]Segment, 0, len(w.Segs)+1)
	var pos tick.Time
	tail := make([]Segment, 0, len(w.Segs))
	for _, seg := range w.Segs {
		segStart, segEnd := pos, pos+seg.W
		pos = segEnd
		switch {
		case segEnd <= cut:
			tail = append(tail, seg)
		case segStart >= cut:
			out.Segs = append(out.Segs, seg)
		default: // the cut splits this segment
			tail = append(tail, Segment{V: seg.V, W: cut - segStart})
			out.Segs = append(out.Segs, Segment{V: seg.V, W: segEnd - cut})
		}
	}
	out.Segs = append(out.Segs, tail...)
	return out.normalizeOwned()
}

// Delay applies a min/max propagation delay (Fig 2-8): the waveform is
// shifted by the minimum delay, and the delay uncertainty accumulates into
// the out-of-band skew.
func (w Waveform) Delay(r tick.Range) Waveform {
	if !r.Valid() {
		panic(fmt.Sprintf("values: invalid delay range %v", r))
	}
	out := w.Rotate(r.Min)
	out.Skew += r.Width()
	return out
}

// DelayRF applies direction-dependent propagation delays (§4.2.2, the
// nMOS-style asymmetric case the paper leaves as future work): output
// rising edges take the rise delay, falling edges the fall delay.
//
// The exact treatment needs the signal's value, so it applies when the
// waveform is value-known (only 0 and 1 segments — clock circuitry, which
// is exactly where the paper says values are known).  Each high interval
// [s,e) becomes a RISE band over [s+rise.Min, s+rise.Max), a solid 1 until
// e+fall.Min, and a FALL band until e+fall.Max; a pulse whose delayed
// edges could cross becomes a CHANGE region (it may vanish entirely).
// For value-unknown waveforms the paper's conservative rule applies: the
// envelope of the two delays (their combined min/max).
func (w Waveform) DelayRF(rise, fall tick.Range) Waveform {
	if !rise.Valid() || !fall.Valid() {
		panic(fmt.Sprintf("values: invalid rise/fall delay %v %v", rise, fall))
	}
	if rise == fall {
		return w.Delay(rise)
	}
	env := tick.Range{Min: min(rise.Min, fall.Min), Max: max(rise.Max, fall.Max)}
	for _, s := range w.Segs {
		if s.V != V0 && s.V != V1 {
			return w.Delay(env)
		}
	}
	if v, ok := w.ConstantValue(); ok {
		return Const(w.Period, v).WithSkew(w.Skew)
	}
	// The carried skew shifts both edge kinds alike; fold it into the
	// per-edge uncertainty.
	rise = tick.Range{Min: rise.Min, Max: rise.Max + w.Skew}
	fall = tick.Range{Min: fall.Min, Max: fall.Max + w.Skew}
	out := Const(w.Period, V0)
	for _, r := range w.Runs() {
		if r.V != V1 {
			continue
		}
		s, e := r.Start, r.End()
		riseEnd, fallStart := s+rise.Max, e+fall.Min
		if riseEnd >= fallStart {
			// The delayed edges may cross: the pulse may be arbitrarily
			// narrow or absent.
			out = out.Paint(s+rise.Min, e+fall.Max, VC)
			continue
		}
		out = out.Paint(s+rise.Min, riseEnd, VR)
		out = out.Paint(riseEnd, fallStart, V1)
		out = out.Paint(fallStart, e+fall.Max, VF)
	}
	return out
}

// WithSkew returns a copy with the given skew.
func (w Waveform) WithSkew(s tick.Time) Waveform {
	if s < 0 {
		panic("values: negative skew")
	}
	w.Skew = s
	return w
}

// MapUnary applies f pointwise.  Skew is preserved: a pointwise function of
// a single signal commutes with the uniform time shift skew represents.
func (w Waveform) MapUnary(f func(Value) Value) Waveform {
	out := Waveform{Period: w.Period, Skew: w.Skew, Segs: make([]Segment, len(w.Segs))}
	for i, s := range w.Segs {
		out.Segs[i] = Segment{V: f(s.V), W: s.W}
	}
	return out.normalizeOwned()
}

// IncorporateSkew folds the out-of-band skew into the segments (Fig 2-9):
// every transition a→b widens into a band of Mix(a, b) of the skew's
// duration, because the transition may occur anywhere within it.
func (w Waveform) IncorporateSkew() Waveform {
	if w.Skew == 0 {
		return w.normalize()
	}
	if v, ok := w.ConstantValue(); ok {
		return Const(w.Period, v)
	}
	runs := w.Runs()
	if w.Skew >= w.Period {
		// Total uncertainty: the value at any instant could be any point
		// of the waveform mid-transition.
		acc := runs[0].V
		for i := 0; i < 2; i++ { // fold twice: the window wraps the cycle
			for _, r := range runs {
				acc = Mix(acc, r.V)
			}
		}
		return Const(w.Period, acc)
	}
	// Work in linear (unrolled) time over [0, 2P): each run appears twice.
	type linRun struct {
		start, end tick.Time
		v          Value
	}
	lin := make([]linRun, 0, 2*len(runs))
	for lap := tick.Time(0); lap < 2; lap++ {
		for _, r := range runs {
			lin = append(lin, linRun{r.Start + lap*w.Period, r.Start + r.Width + lap*w.Period, r.V})
		}
	}
	sort.Slice(lin, func(i, j int) bool { return lin[i].start < lin[j].start })

	// Elementary boundaries: run starts and run starts shifted by skew.
	bounds := make([]tick.Time, 0, 2*len(runs)+1)
	bounds = append(bounds, 0)
	for _, r := range runs {
		bounds = append(bounds, tick.Mod(r.Start, w.Period))
		bounds = append(bounds, tick.Mod(r.Start+w.Skew, w.Period))
	}
	bounds = sortDedup(bounds)

	out := Waveform{Period: w.Period}
	out.Segs = make([]Segment, 0, len(bounds))
	for i, b := range bounds {
		next := w.Period
		if i+1 < len(bounds) {
			next = bounds[i+1]
		}
		if next == b {
			continue
		}
		// Value over [b, next): fold Mix over every run intersecting the
		// closed window [t-skew, t] at t = b, oldest first.
		t := b + w.Period // shift sample into the second lap
		w0, w1 := t-w.Skew, t
		var acc Value
		first := true
		for _, r := range lin {
			if r.start <= w1 && w0 < r.end {
				if first {
					acc = r.v
					first = false
				} else {
					acc = Mix(acc, r.v)
				}
			}
		}
		if first {
			acc = VU // unreachable: runs cover all time
		}
		out.Segs = append(out.Segs, Segment{V: acc, W: next - b})
	}
	return out.normalizeOwned()
}

// sortDedup sorts the boundary list ascending and removes duplicates in
// place.
func sortDedup(ts []tick.Time) []tick.Time {
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// Combine merges two waveforms pointwise with f.  If either operand is
// constant over the period, the other's skew is preserved (a constant adds
// no transition of its own, so the result is still a pure delayed copy).
// Otherwise both skews are incorporated first, as the paper requires when
// two changing signals meet (§2.8).
func Combine(a, b Waveform, f func(Value, Value) Value) Waveform {
	if a.Period != b.Period {
		panic(fmt.Sprintf("values: combining waveforms with different periods %v and %v", a.Period, b.Period))
	}
	if v, ok := a.ConstantValue(); ok {
		return b.MapUnary(func(x Value) Value { return f(v, x) })
	}
	if v, ok := b.ConstantValue(); ok {
		return a.MapUnary(func(x Value) Value { return f(x, v) })
	}
	ai := a.IncorporateSkew()
	bi := b.IncorporateSkew()
	bounds := mergedBoundaries(ai, bi)
	out := Waveform{Period: a.Period}
	out.Segs = make([]Segment, 0, len(bounds))
	for i, t := range bounds {
		next := a.Period
		if i+1 < len(bounds) {
			next = bounds[i+1]
		}
		if next == t {
			continue
		}
		out.Segs = append(out.Segs, Segment{V: f(ai.At(t), bi.At(t)), W: next - t})
	}
	return out.normalizeOwned()
}

// CombineN folds waveforms left to right with f.
func CombineN(f func(Value, Value) Value, ws ...Waveform) Waveform {
	if len(ws) == 0 {
		panic("values: CombineN of nothing")
	}
	out := ws[0]
	for _, w := range ws[1:] {
		out = Combine(out, w, f)
	}
	return out
}

// CombineAll merges any number of waveforms pointwise with an n-ary
// function (needed where the fold is not associative, e.g. multiplexer
// data selection).  As with Combine, when at most one operand is
// non-constant its skew is preserved; otherwise every skew is incorporated
// first.
func CombineAll(f func([]Value) Value, ws ...Waveform) Waveform {
	if len(ws) == 0 {
		panic("values: CombineAll of nothing")
	}
	period := ws[0].Period
	consts := make([]Value, len(ws))
	varying := -1
	nVarying := 0
	for i, w := range ws {
		if w.Period != period {
			panic("values: CombineAll with mismatched periods")
		}
		if v, ok := w.ConstantValue(); ok {
			consts[i] = v
		} else {
			varying = i
			nVarying++
		}
	}
	vs := make([]Value, len(ws))
	switch nVarying {
	case 0:
		copy(vs, consts)
		return Const(period, f(vs))
	case 1:
		return ws[varying].MapUnary(func(x Value) Value {
			copy(vs, consts)
			vs[varying] = x
			return f(vs)
		})
	}
	inc := make([]Waveform, len(ws))
	nb := 1
	for i, w := range ws {
		inc[i] = w.IncorporateSkew()
		nb += len(inc[i].Segs)
	}
	bounds := append(make([]tick.Time, 0, nb), 0)
	for i := range inc {
		var pos tick.Time
		for _, s := range inc[i].Segs {
			bounds = append(bounds, pos)
			pos += s.W
		}
	}
	bounds = sortDedup(bounds)
	out := Waveform{Period: period}
	out.Segs = make([]Segment, 0, len(bounds))
	for i, t := range bounds {
		next := period
		if i+1 < len(bounds) {
			next = bounds[i+1]
		}
		if next == t {
			continue
		}
		for j := range inc {
			vs[j] = inc[j].At(t)
		}
		out.Segs = append(out.Segs, Segment{V: f(vs), W: next - t})
	}
	return out.normalizeOwned()
}

// mergedBoundaries merges the segment boundaries of two waveforms into
// one sorted, deduplicated list.  Both boundary sequences are already
// ascending (cumulative sums of positive widths), so this is a two-pointer
// merge with no map and no sort.
func mergedBoundaries(a, b Waveform) []tick.Time {
	out := make([]tick.Time, 0, len(a.Segs)+len(b.Segs))
	var pa, pb tick.Time
	ia, ib := 0, 0
	for ia < len(a.Segs) || ib < len(b.Segs) {
		var t tick.Time
		switch {
		case ib >= len(b.Segs) || (ia < len(a.Segs) && pa <= pb):
			t = pa
			if pa == pb && ib < len(b.Segs) {
				pb += b.Segs[ib].W
				ib++
			}
			pa += a.Segs[ia].W
			ia++
		default:
			t = pb
			pb += b.Segs[ib].W
			ib++
		}
		if n := len(out); n == 0 || out[n-1] != t {
			out = append(out, t)
		}
	}
	return out
}

// Equal reports semantic equality: same period, same skew, and the same
// value at every instant (segmentation may differ).
func (w Waveform) Equal(o Waveform) bool {
	if w.Period != o.Period || w.Skew != o.Skew {
		return false
	}
	for _, t := range mergedBoundaries(w, o) {
		if w.At(t) != o.At(t) {
			return false
		}
	}
	return true
}

// String renders the waveform in a compact listing form, e.g.
// "S 0.0:5.5 C 5.5:25.5 S 25.5:50.0" with times in nanoseconds, plus the
// skew when nonzero.
func (w Waveform) String() string {
	var sb strings.Builder
	var pos tick.Time
	for i, s := range w.Segs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s %s:%s", s.V, pos, pos+s.W)
		pos += s.W
	}
	if w.Skew != 0 {
		fmt.Fprintf(&sb, " (skew %s)", w.Skew)
	}
	return sb.String()
}
