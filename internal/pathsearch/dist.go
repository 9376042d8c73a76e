package pathsearch

import (
	"cmp"
	"math"
	"slices"

	"scaldtv/internal/netlist"
	"scaldtv/internal/serr"
	"scaldtv/internal/tick"
)

// Fixed-grid quadrature over arrival-time distributions: the machinery
// behind the statistical verify mode (-delays=statistical).  A component
// delay range [min,max] becomes a normal distribution truncated to its
// data-sheet limits (mean = (min+max)/2, σ = (max−min)/6, the DIGSIM
// convention of §1.4.1.2), discretised onto a uniform time grid.  Series
// composition along a path is convolution; reconvergent paths combine as
// the max (CDFs multiply) for the latest arrival and as the min for the
// earliest.  Everything is deterministic — a fixed grid, no sampling —
// so reports built on these numbers stay byte-identical across runs.

// Dist is a probability mass function over arrival times on a uniform
// grid: P(X = Start + i·Step) = P[i].  Start is always a multiple of
// Step, so two distributions with the same step align index-for-index; a
// single-point distribution (a zero-width delay) has len(P) == 1 with
// all mass in P[0].  The zero value is "no distribution" (Empty).
type Dist struct {
	Start tick.Time
	Step  tick.Time
	P     []float64
}

// Empty reports whether the distribution carries no mass.
func (d Dist) Empty() bool { return len(d.P) == 0 }

// snap rounds t to the nearest grid multiple of step, halves away from
// zero — the single deterministic rounding used everywhere so that every
// Dist start stays on the common grid.
func snap(t, step tick.Time) tick.Time {
	if step <= 0 {
		return t
	}
	if t >= 0 {
		return ((t + step/2) / step) * step
	}
	return -(((-t + step/2) / step) * step)
}

// PointDist is the distribution of a delay known exactly: all mass on
// the grid point nearest t.  This is the zero-width-interval edge case —
// convolving with it is a pure shift, never a widening.
func PointDist(t, step tick.Time) Dist {
	return Dist{Start: snap(t, step), Step: step, P: []float64{1}}
}

// normCDF is Φ((x−mean)/sigma), the standard normal CDF.
func normCDF(x, mean, sigma float64) float64 {
	return 0.5 * (1 + math.Erf((x-mean)/(sigma*math.Sqrt2)))
}

// RangeDist discretises a delay range onto the grid: a truncated normal
// with the 3σ limits at the data-sheet min and max, over the grid points
// from the one nearest the range's lower end to the one nearest its
// upper end.  A zero-width range, and any range whose two ends snap to
// the same grid point, is a single point there.  A range narrower than
// one grid step that straddles a snap boundary keeps two points: on a
// 195 ps grid, [90 ps, 110 ps] puts about 0.23 on 0 and 0.77 on 195 ps,
// although its midpoint snaps to 195 ps.
func RangeDist(r tick.Range, step tick.Time) Dist {
	if !r.Valid() {
		r = tick.Range{Min: r.Max, Max: r.Min}
	}
	if r.Width() == 0 || step <= 0 {
		return PointDist(r.Min, step)
	}
	lo, n := snap(r.Min, step), gridPoints(r, step)
	if n == 1 {
		return Dist{Start: lo, Step: step, P: []float64{1}}
	}
	mean := float64(r.Min+r.Max) / 2
	sigma := float64(r.Width()) / 6
	p := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		x := float64(lo + tick.Time(i)*step)
		a := normCDF(x-float64(step)/2, mean, sigma)
		b := normCDF(x+float64(step)/2, mean, sigma)
		p[i] = b - a
		total += p[i]
	}
	// Renormalise the truncation so the mass sums to one exactly.
	if total > 0 {
		for i := range p {
			p[i] /= total
		}
	} else {
		// Degenerate numerics (σ far smaller than the grid): point mass
		// at the grid cell nearest the mean.
		for i := range p {
			p[i] = 0
		}
		p[len(p)/2] = 1
	}
	return Dist{Start: lo, Step: step, P: p}
}

// gridPoints is the length of RangeDist(r, step): the grid points from
// the one nearest the range's lower end to the one nearest its upper end.
func gridPoints(r tick.Range, step tick.Time) int {
	if step <= 0 {
		return 1
	}
	return int((snap(max(r.Min, r.Max), step)-snap(min(r.Min, r.Max), step))/step) + 1
}

// Convolve is the distribution of the sum of two independent delays —
// series composition along a path.  Point masses short-circuit to a
// shift, so chains of exact delays stay exact (single-point in,
// single-point out).
func Convolve(a, b Dist) Dist {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	step := a.Step
	if step <= 0 {
		step = b.Step
	}
	if len(b.P) == 1 {
		return Dist{Start: a.Start + b.Start, Step: step, P: a.P}
	}
	if len(a.P) == 1 {
		return Dist{Start: a.Start + b.Start, Step: step, P: b.P}
	}
	p := make([]float64, len(a.P)+len(b.P)-1)
	for i, pa := range a.P {
		if pa == 0 {
			continue
		}
		for j, pb := range b.P {
			p[i+j] += pa * pb
		}
	}
	return Dist{Start: a.Start + b.Start, Step: step, P: p}
}

// window is the grid span covering both supports: its first point, the
// step and the number of points.  Both inputs must share the step
// (PointDist takes the step of its context, so the invariant holds
// across the DP).
func window(a, b Dist) (start, step tick.Time, n int) {
	step = a.Step
	if step <= 0 {
		step = b.Step
	}
	start = min(a.Start, b.Start)
	end := max(a.Start+tick.Time(len(a.P)-1)*step, b.Start+tick.Time(len(b.P)-1)*step)
	n = 1
	if step > 0 {
		n = int((end-start)/step) + 1
	}
	return start, step, n
}

// CombineMax is the distribution of max(A, B) for independent arrivals —
// the reconvergence rule for the latest arrival: CDFs multiply.
func CombineMax(a, b Dist) Dist { return combine(a, b, true) }

// CombineMin is the distribution of min(A, B) for independent arrivals —
// the reconvergence rule for the earliest arrival: survival functions
// multiply.
func CombineMin(a, b Dist) Dist { return combine(a, b, false) }

// combine is CombineMax (late) or CombineMin over the common window of
// both supports.  Each pmf is read at its offset into the window, and a
// CDF adds nothing outside its support.
func combine(a, b Dist, late bool) Dist {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	start, step, n := window(a, b)
	offA, offB := 0, 0
	if step > 0 {
		offA = int((a.Start - start) / step)
		offB = int((b.Start - start) / step)
	}
	p := make([]float64, n)
	fa, fb, prev := 0.0, 0.0, 0.0
	for i := range p {
		if j := i - offA; j >= 0 && j < len(a.P) {
			fa += a.P[j]
		}
		if j := i - offB; j >= 0 && j < len(b.P) {
			fb += b.P[j]
		}
		var f float64
		if late {
			f = fa * fb
		} else {
			f = 1 - (1-fa)*(1-fb)
		}
		p[i] = f - prev
		prev = f
	}
	return Dist{Start: start, Step: step, P: p}
}

// CDF is P(X ≤ t).
func (d Dist) CDF(t tick.Time) float64 {
	if d.Empty() {
		return 0
	}
	f := 0.0
	for i, p := range d.P {
		x := d.Start
		if d.Step > 0 {
			x += tick.Time(i) * d.Step
		}
		if x > t {
			break
		}
		f += p
	}
	if f > 1 {
		f = 1
	}
	return f
}

// Mean is the expected arrival in grid time.
func (d Dist) Mean() float64 {
	m := 0.0
	for i, p := range d.P {
		x := d.Start
		if d.Step > 0 {
			x += tick.Time(i) * d.Step
		}
		m += float64(x) * p
	}
	return m
}

// Mass is the total probability (1 up to rounding for any valid Dist).
func (d Dist) Mass() float64 {
	m := 0.0
	for _, p := range d.P {
		m += p
	}
	return m
}

// SiteDist is the arrival-time distribution at one constraint-site input
// pin, for the start whose worst-case arrival is statistically critical.
// WCMin/WCMax are the interval-analysis arrivals of the same paths, so a
// caller holding a worst-case slack s can place the deadline at
// WCMax + s (late checks) or WCMin − s (early checks) and read the
// violation probability straight off the distribution.
type SiteDist struct {
	From  string // start net of the critical path
	To    string // "prim:port" end-pin label
	WCMin tick.Time
	WCMax tick.Time
	Late  Dist // latest-arrival distribution (max over reconvergent paths)
	Early Dist // earliest-arrival distribution (min over reconvergent paths)
}

// DefaultDistStep is the quadrature grid: 1/256 of the clock period,
// never finer than one tick.  Fixed per design — the "seed" of the
// deterministic quadrature.
func DefaultDistStep(period tick.Time) tick.Time {
	step := period / 256
	if step < 1 {
		step = 1
	}
	return step
}

// AnalyzeDist prices every end pin (keyed by its "prim:port" label) with
// the quadrature instance of the path algebra, over the same
// combinational graph as Analyze, for the pin's critical start: the one
// with the largest worst-case arrival, ties going to the start whose
// name sorts first, and among one start's pins sharing a label, to the
// first in net order.  step ≤ 0 selects DefaultDistStep.  Designs with
// combinational loops report the loop nets like Analyze; looped nets get
// no distribution.  A distribution the answer needs that would have more
// than maxSupport grid points is a Limit error.
//
// One sweep of the critical-start instance, seeded at every start,
// picks each label's critical (start, pin) pair.  Then each picked start
// is swept twice: by the worst-case instance, which gives WCMin and
// WCMax and marks the nets on a path to the start's picked pins, and by
// the quadrature over those nets alone.  A start that is critical for
// no pin, and a hop that leads to none of its start's picked pins, is
// never priced.
func AnalyzeDist(d *netlist.Design, step tick.Time) (map[string]SiteDist, []string, error) {
	if step <= 0 {
		step = DefaultDistStep(d.Period)
	}
	g := buildGraph(d)
	byName, rank := g.startRanks(d)
	crit := newTraversal[latest](g, latestStart{})
	for _, s := range g.starts {
		crit.seed(s, latest{rank: rank[s]})
	}
	crit.run()
	picks := make([]critical, len(g.labels))
	crit.pins(func(pin *endPin) {
		if v, cur := crit.at(pin), &picks[pin.slot]; cur.pin == nil || v.after(latest{max: cur.wc.Max, rank: rank[cur.start]}) {
			*cur = critical{start: byName[v.rank], pin: pin, wc: tick.Range{Max: v.max}}
		}
	})
	// A label no start reaches has no pick.
	picks = slices.DeleteFunc(picks, func(c critical) bool { return c.pin == nil })
	slices.SortFunc(picks, func(a, b critical) int { return cmp.Compare(a.start, b.start) })

	wc := newTraversal[tick.Range](g, ticks{})
	alg := &distAlgebra{step: step, ranges: make(map[tick.Range]Dist)}
	t := newTraversal[arrival](g, alg)
	t.live = make([]bool, len(g.adj))
	out := make(map[string]SiteDist, len(picks))
	for len(picks) > 0 {
		s, n := picks[0].start, 1
		for n < len(picks) && picks[n].start == s {
			n++
		}
		// Every hop into a live net from the start's cone is live, so
		// each live net sees the joins of the whole cone in their order.
		wc.sweep(s)
		for _, c := range picks[:n] {
			t.live[c.pin.net] = true
		}
		g.markBack(wc.extended, t.live)
		t.sweep(s)
		for _, c := range picks[:n] {
			v, r := t.at(c.pin), wc.at(c.pin)
			if alg.err != nil {
				return nil, nil, alg.err
			}
			out[c.pin.label] = SiteDist{From: d.Nets[s].Name, To: c.pin.label, WCMin: r.Min, WCMax: r.Max, Late: v.late, Early: v.early}
		}
		for _, net := range wc.touched {
			t.live[net] = false
		}
		picks = picks[n:]
	}
	return out, g.loops, nil
}

// critical is an end pin's critical start, with the worst-case interval
// of that start's paths ending at the pin.
type critical struct {
	start int32
	pin   *endPin
	wc    tick.Range
}

// latest is the critical-start instance's value at a net: the latest
// arrival of the paths reaching it, and the name rank of the start they
// leave from, the lowest among starts whose paths tie.
type latest struct {
	max  tick.Time
	rank int32
}

// after reports whether v is the later key: the larger arrival, then
// the lower rank.
func (v latest) after(w latest) bool { return v.max > w.max || v.max == w.max && v.rank < w.rank }

// latestStart is the critical-start instance.  Adding a hop's delay
// keeps the order after compares, so a sweep seeded at every start with
// (0, its rank) values each net at the latest key over every (start,
// path) pair, which is the largest WCMax and then the lowest start name.
// Its sweeps are seeded; start is never called.
type latestStart struct{}

func (latestStart) start() latest { return latest{} }
func (latestStart) extend(v latest, e edge) latest {
	return latest{max: v.max + e.delay.Max, rank: v.rank}
}
func (latestStart) join(dst, v latest) latest {
	if v.after(dst) {
		return v
	}
	return dst
}

// maxSupport caps the grid points of any one arrival distribution, so a
// delay range far wider than the grid is a Limit error instead of an
// allocation that exhausts memory.  The largest end-pin support on the
// 340- and 1003-chip generated designs is 251 points.
const maxSupport = 1 << 16

// arrival is the quadrature instance's value at a net: the latest- and
// earliest-arrival distributions of the paths reaching it.
type arrival struct {
	late, early Dist
}

// distAlgebra is the quadrature instance: series delays convolve,
// reconvergent latest arrivals combine as the max and earliest ones as
// the min.  Every operation checks its result's length against
// maxSupport before it allocates; the first that would exceed it records
// err, and every later one is refused.  ranges holds the RangeDist of
// each delay range met so far; a Dist's P is never written once built,
// so every edge with that range shares it.
type distAlgebra struct {
	step   tick.Time
	ranges map[tick.Range]Dist
	err    error
}

// fits reports whether a result of n grid points may be built.
func (a *distAlgebra) fits(n int) bool {
	if a.err == nil && n > maxSupport {
		a.err = serr.Newf(serr.Limit, "pathsearch: an arrival distribution needs more than %d points of the %s ns quadrature grid", maxSupport, a.step)
	}
	return a.err == nil
}

// start gives both sides one Dist.  They alias until a join sets them
// apart, and extend convolves an aliased pair once.
func (a *distAlgebra) start() arrival {
	p := PointDist(0, a.step)
	return arrival{late: p, early: p}
}

func (a *distAlgebra) extend(v arrival, e edge) arrival {
	n := gridPoints(e.delay, a.step)
	if !a.fits(n) || !a.fits(len(v.late.P)+n-1) || !a.fits(len(v.early.P)+n-1) {
		return v
	}
	ed, ok := a.ranges[e.delay]
	if !ok {
		ed = RangeDist(e.delay, a.step)
		a.ranges[e.delay] = ed
	}
	late := Convolve(v.late, ed)
	if v.aliased() {
		return arrival{late: late, early: late}
	}
	return arrival{late: late, early: Convolve(v.early, ed)}
}

// aliased reports whether late and early are one Dist: the same start,
// length and backing array.
func (v arrival) aliased() bool {
	return v.late.Start == v.early.Start && len(v.late.P) == len(v.early.P) &&
		(len(v.late.P) == 0 || &v.late.P[0] == &v.early.P[0])
}

func (a *distAlgebra) join(dst, v arrival) arrival {
	_, _, nl := window(dst.late, v.late)
	_, _, ne := window(dst.early, v.early)
	if !a.fits(nl) || !a.fits(ne) {
		return dst
	}
	return arrival{late: CombineMax(dst.late, v.late), early: CombineMin(dst.early, v.early)}
}
