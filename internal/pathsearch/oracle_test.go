package pathsearch

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"scaldtv/internal/expand"
	"scaldtv/internal/gen"
	"scaldtv/internal/hdl"
	"scaldtv/internal/netlist"
	"scaldtv/internal/serr"
	"scaldtv/internal/tick"
)

// The edge-level oracle computes the path algebra the plain way, with
// none of the production shortcuts.  Its graph holds one edge per
// (input net, output net) of every combinational primitive, every sweep
// scans the whole topological order, the term-set instance sweeps every
// start, and the quadrature convolves each side on its own and combines
// through zero-padded copies.  The production analyses must reproduce
// it bit for bit.

// oracleEdge is one bit-to-bit edge of the oracle's graph.
type oracleEdge struct {
	to int32
	e  edge
}

// oracle is the edge-level graph of one design.
type oracle struct {
	d      *netlist.Design
	adj    [][]oracleEdge
	ends   [][]endPin
	starts []int32
	order  []int32
	loops  []string
}

func newOracle(d *netlist.Design) *oracle {
	n := len(d.Nets)
	o := &oracle{d: d, adj: make([][]oracleEdge, n), ends: make([][]endPin, n)}
	addEnd := func(c netlist.Conn, prim, port string) {
		w := d.WireDelay(c.Net, 'E')
		o.ends[c.Net] = append(o.ends[c.Net], endPin{net: int32(c.Net), label: prim + ":" + port, wire: edge{delay: w, cnst: w}})
	}
	for pi := range d.Prims {
		p := &d.Prims[pi]
		switch {
		case p.Kind.IsChecker():
			for _, c := range p.In[0].Bits {
				addEnd(c, p.Name, p.In[0].Name)
			}
		case p.Kind.IsStorage():
			for _, port := range p.In {
				for _, c := range port.Bits {
					addEnd(c, p.Name, port.Name)
				}
			}
		default:
			var outs []int32
			for _, port := range p.Out {
				for _, out := range port.Bits {
					if !slices.Contains(outs, int32(out)) {
						outs = append(outs, int32(out))
					}
				}
			}
			var ins []netlist.NetID
			for ii, port := range p.In {
				extra := tick.Range{}
				if ii < p.Kind.NumSelects() {
					extra = p.SelectDelay
				}
				for _, c := range port.Bits {
					if slices.Contains(ins, c.Net) {
						continue
					}
					ins = append(ins, c.Net)
					dir, _ := c.Directives.Head()
					w := d.WireDelay(c.Net, dir)
					delay := p.Delay
					if dir.ZeroesGate() {
						delay = tick.Range{}
					}
					e := edge{delay: w.Add(delay).Add(extra)}
					e.cnst = e.delay
					if p.Fn > 0 && !dir.ZeroesGate() {
						e.fn, e.cnst = p.Fn, w.Add(extra)
					}
					for _, out := range outs {
						o.adj[c.Net] = append(o.adj[c.Net], oracleEdge{to: out, e: e})
					}
				}
			}
		}
	}
	for i := range d.Nets {
		if len(d.Nets[i].Fanout) == 0 && d.Nets[i].Driver != netlist.NoDriver {
			o.ends[i] = append(o.ends[i], endPin{net: int32(i), label: "output(" + d.Nets[i].Name + ")"})
		}
	}
	for i := range d.Nets {
		drv := d.Nets[i].Driver
		if (drv == netlist.NoDriver || d.Prims[drv].Kind.IsStorage()) && (len(o.adj[i]) > 0 || len(o.ends[i]) > 0) {
			o.starts = append(o.starts, int32(i))
		}
	}
	indeg := make([]int, n)
	for _, es := range o.adj {
		for _, e := range es {
			indeg[e.to]++
		}
	}
	for i := range indeg {
		if indeg[i] == 0 {
			o.order = append(o.order, int32(i))
		}
	}
	for head := 0; head < len(o.order); head++ {
		for _, e := range o.adj[o.order[head]] {
			if indeg[e.to]--; indeg[e.to] == 0 {
				o.order = append(o.order, e.to)
			}
		}
	}
	for i := range indeg {
		if indeg[i] > 0 {
			o.loops = append(o.loops, d.Nets[i].Name)
		}
	}
	sort.Strings(o.loops)
	return o
}

// denseSweeps sweeps each of starts in turn, scanning the whole
// topological order each time, and hands f the start's net values.
func denseSweeps[V any](o *oracle, starts []int32, alg pathAlgebra[V], f func(s int32, val []V, reached []bool)) {
	n := len(o.adj)
	val := make([]V, n)
	reached := make([]bool, n)
	for _, s := range starts {
		clear(val)
		clear(reached)
		val[s], reached[s] = alg.start(), true
		for _, u := range o.order {
			if !reached[u] {
				continue
			}
			for _, e := range o.adj[u] {
				v := alg.extend(val[u], e.e)
				if reached[e.to] {
					v = alg.join(val[e.to], v)
				}
				val[e.to], reached[e.to] = v, true
			}
		}
		f(s, val, reached)
	}
}

// denseFold sweeps every start and hands f each end pin the start
// reaches, in net order, with the value of the paths ending there.
func denseFold[V any](o *oracle, alg pathAlgebra[V], f func(s int32, pin *endPin, v V)) {
	denseSweeps(o, o.starts, alg, func(s int32, val []V, reached []bool) {
		for net := range val {
			if !reached[net] {
				continue
			}
			for i := range o.ends[net] {
				pin := &o.ends[net][i]
				f(s, pin, alg.extend(val[net], pin.wire))
			}
		}
	})
}

func (o *oracle) analyze() []Endpoint {
	var eps []Endpoint
	denseFold[tick.Range](o, ticks{}, func(s int32, pin *endPin, v tick.Range) {
		eps = append(eps, Endpoint{From: o.d.Nets[s].Name, To: pin.label, Min: v.Min, Max: v.Max})
	})
	sort.Slice(eps, func(i, j int) bool {
		if eps[i].Max != eps[j].Max {
			return eps[i].Max > eps[j].Max
		}
		if eps[i].From != eps[j].From {
			return eps[i].From < eps[j].From
		}
		return eps[i].To < eps[j].To
	})
	return eps
}

// oracleDist is the quadrature instance with its late and early sides
// convolved apart and combined through zero-padded copies of both pmfs.
type oracleDist struct {
	step tick.Time
	err  error
}

func (a *oracleDist) fits(n int) bool {
	if a.err == nil && n > maxSupport {
		a.err = serr.Newf(serr.Limit, "oracle: %d points", n)
	}
	return a.err == nil
}

func (a *oracleDist) start() arrival {
	return arrival{late: PointDist(0, a.step), early: PointDist(0, a.step)}
}

func (a *oracleDist) extend(v arrival, e edge) arrival {
	n := gridPoints(e.delay, a.step)
	if !a.fits(n) || !a.fits(len(v.late.P)+n-1) || !a.fits(len(v.early.P)+n-1) {
		return v
	}
	return arrival{late: Convolve(v.late, RangeDist(e.delay, a.step)), early: Convolve(v.early, RangeDist(e.delay, a.step))}
}

func (a *oracleDist) join(dst, v arrival) arrival {
	_, _, nl := window(dst.late, v.late)
	_, _, ne := window(dst.early, v.early)
	if !a.fits(nl) || !a.fits(ne) {
		return dst
	}
	return arrival{late: paddedCombine(dst.late, v.late, true), early: paddedCombine(dst.early, v.early, false)}
}

// paddedCombine is max(A, B) (late) or min(A, B) over both pmfs copied
// onto their common window.
func paddedCombine(a, b Dist, late bool) Dist {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	start, step, n := window(a, b)
	pa, pb := make([]float64, n), make([]float64, n)
	offA, offB := 0, 0
	if step > 0 {
		offA, offB = int((a.Start-start)/step), int((b.Start-start)/step)
	}
	copy(pa[offA:], a.P)
	copy(pb[offB:], b.P)
	p := make([]float64, n)
	fa, fb, prev := 0.0, 0.0, 0.0
	for i := range p {
		fa += pa[i]
		fb += pb[i]
		f := fa * fb
		if !late {
			f = 1 - (1-fa)*(1-fb)
		}
		p[i] = f - prev
		prev = f
	}
	return Dist{Start: start, Step: step, P: p}
}

func (o *oracle) analyzeDist(step tick.Time) (map[string]SiteDist, error) {
	if step <= 0 {
		step = DefaultDistStep(o.d.Period)
	}
	crit := map[string]critical{}
	denseFold[tick.Range](o, ticks{}, func(s int32, pin *endPin, v tick.Range) {
		if cur, ok := crit[pin.label]; !ok || v.Max > cur.wc.Max || (v.Max == cur.wc.Max && o.d.Nets[s].Name < o.d.Nets[cur.start].Name) {
			crit[pin.label] = critical{start: s, pin: pin, wc: v}
		}
	})
	// Price only each pin's critical start, and of its pins only those
	// it is critical for.
	byStart := map[int32][]critical{}
	var starts []int32
	for _, c := range crit {
		if len(byStart[c.start]) == 0 {
			starts = append(starts, c.start)
		}
		byStart[c.start] = append(byStart[c.start], c)
	}
	slices.Sort(starts)
	alg := &oracleDist{step: step}
	out := map[string]SiteDist{}
	denseSweeps[arrival](o, starts, alg, func(s int32, val []arrival, _ []bool) {
		for _, c := range byStart[s] {
			v := alg.extend(val[c.pin.net], c.pin.wire)
			out[c.pin.label] = SiteDist{From: o.d.Nets[s].Name, To: c.pin.label, WCMin: c.wc.Min, WCMax: c.wc.Max, Late: v.late, Early: v.early}
		}
	})
	if alg.err != nil {
		return nil, alg.err
	}
	return out, nil
}

func (o *oracle) analyzeAnalytic(maxTerms int) map[string]*SiteTerms {
	if maxTerms <= 0 {
		maxTerms = DefaultMaxTerms
	}
	alg := newPruner(o.d, maxTerms)
	union := map[string]termSets{}
	denseFold[termSets](o, alg, func(_ int32, pin *endPin, v termSets) {
		if cur, ok := union[pin.label]; ok {
			v = alg.join(cur, v)
		}
		union[pin.label] = v
	})
	out := make(map[string]*SiteTerms, len(union))
	for label, v := range union {
		out[label] = &SiteTerms{To: label, Late: v.late.terms, Early: v.early.terms, LateExact: v.late.exact, EarlyExact: v.early.exact}
	}
	return out
}

// checkAgainstOracle runs the three analyses and their oracles on d and
// reports every difference.
func checkAgainstOracle(t *testing.T, name string, d *netlist.Design, maxTerms int) {
	t.Helper()
	o := newOracle(d)

	a, err := Analyze(d)
	if err != nil {
		t.Fatalf("%s: Analyze: %v", name, err)
	}
	if !slices.Equal(a.CombLoops, o.loops) {
		t.Errorf("%s: loops %v, oracle %v", name, a.CombLoops, o.loops)
	}
	if want := o.analyze(); !slices.Equal(a.Endpoints, want) {
		t.Errorf("%s: Analyze gives %d endpoints, the oracle %d, or they differ", name, len(a.Endpoints), len(want))
	}

	dists, loops, err := AnalyzeDist(d, 0)
	want, werr := o.analyzeDist(0)
	switch {
	case (err == nil) != (werr == nil):
		t.Errorf("%s: AnalyzeDist error %v, oracle %v", name, err, werr)
	case err != nil:
		if !errors.Is(err, serr.Sentinel(serr.Limit)) {
			t.Errorf("%s: AnalyzeDist error %v, want a Limit error", name, err)
		}
	default:
		if !slices.Equal(loops, o.loops) {
			t.Errorf("%s: AnalyzeDist loops %v, oracle %v", name, loops, o.loops)
		}
		if got, exp := sortedKeys(dists), sortedKeys(want); !slices.Equal(got, exp) {
			t.Errorf("%s: AnalyzeDist prices %d pins, the oracle %d", name, len(got), len(exp))
		}
		for label, w := range want {
			g := dists[label]
			if g.From != w.From || g.To != w.To || g.WCMin != w.WCMin || g.WCMax != w.WCMax || !distBits(g.Late, w.Late) || !distBits(g.Early, w.Early) {
				t.Errorf("%s %s: AnalyzeDist %s [%v,%v] differs from the oracle's %s [%v,%v]", name, label, g.From, g.WCMin, g.WCMax, w.From, w.WCMin, w.WCMax)
			}
		}
	}

	terms, loops := AnalyzeAnalytic(d, maxTerms)
	if !slices.Equal(loops, o.loops) {
		t.Errorf("%s: AnalyzeAnalytic loops %v, oracle %v", name, loops, o.loops)
	}
	wantTerms := o.analyzeAnalytic(maxTerms)
	if got, exp := sortedKeys(terms), sortedKeys(wantTerms); !slices.Equal(got, exp) {
		t.Errorf("%s: AnalyzeAnalytic gives %d pins, the oracle %d", name, len(got), len(exp))
	}
	for label, w := range wantTerms {
		g, ok := terms[label]
		if !ok {
			continue
		}
		if g.To != w.To || g.LateExact != w.LateExact || g.EarlyExact != w.EarlyExact ||
			canonTerms(g.Late) != canonTerms(w.Late) || canonTerms(g.Early) != canonTerms(w.Early) {
			t.Errorf("%s %s: term sets\n late %v %s\nearly %v %s\noracle\n late %v %s\nearly %v %s", name, label,
				g.LateExact, canonTerms(g.Late), g.EarlyExact, canonTerms(g.Early),
				w.LateExact, canonTerms(w.Late), w.EarlyExact, canonTerms(w.Early))
		}
	}
}

// distBits reports whether two distributions are equal down to the float
// bits.
func distBits(a, b Dist) bool {
	return a.Start == b.Start && a.Step == b.Step &&
		slices.EqualFunc(a.P, b.P, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// canonTerms renders a term set in canonical order, as the fingerprint
// hash reads it.
func canonTerms(ts []Term) string {
	var sb strings.Builder
	hashTermSet(&sb, ts, true)
	return sb.String()
}

// reconvergeSource has two checker pins where constant chains meet the
// two parametric chains of start P, neither of whose terms dominates the
// other, through an or.  At CHK:I the constant starts are A, before P in
// net order, and B after it; B's long chain prunes P's late terms.  At
// CHK2:I, C's chain, after P, dominates neither side.  Start D crosses a
// constant gate before a parametric one, so only a mark that looks past
// the first hop prices it with term sets.  From start E the or SHORT is
// the first hop and the buffer chain L1-L3 the second, so SHORT's
// output is reached first yet must be extended last.
const reconvergeSource = `design RECONVERGE
period 50ns
clockunit 6.25ns
defaultwire 0ns 0.5ns
param load = 1.0 range 0.5 3.5
param temp = 1.0 range 0.8 1.2
buf CA delay=(2.0,3.0) ("A .S0-7") -> (XA)
buf P1 delay=(1.0+0.5*load, 2.0+3.0*load) ("P .S0-7") -> (Y1)
buf P2 delay=(1.0+0.5*temp, 2.0+8.0*temp) ("P .S0-7") -> (Y2)
or PJ delay=(0.5,1.0) (Y1, Y2) -> (Y)
buf CB delay=(20.0,21.0) ("B .S0-7") -> (XB)
or J delay=(1.0,1.5) (XA, Y, XB) -> (Z)
setuphold CHK setup=4.0 hold=1.0 (Z, "CK .P4-6")
buf CC delay=(2.0,9.0) ("C .S0-7") -> (XC)
or J2 delay=(1.0,1.5) (XC, Y) -> (Z2)
setuphold CHK2 setup=4.0 hold=1.0 (Z2, "CK .P4-6")
buf CD delay=(1.0,2.0) ("D .S0-7") -> (XD)
buf PD delay=(0.5+0.25*temp, 1.5+1.0*temp) (XD) -> (YD)
setuphold CHK3 setup=4.0 hold=1.0 (YD, "CK .P4-6")
or SHORT delay=(1.0,1.0) ("E .S0-7", X3) -> (Z4)
buf L1 delay=(1.0,2.0) ("E .S0-7") -> (X1)
buf L2 delay=(1.0,2.0) (X1) -> (X2)
buf L3 delay=(1.0,2.0) (X2) -> (X3)
buf OUT delay=(1.0,1.0) (Z4) -> (W)
setuphold CHK4 setup=4.0 hold=1.0 (W, "CK .P4-6")
`

// orderSource has a constant start A after parametric starts P and Q in
// net order, all four paths joining in one or before a checker.  P's two
// late terms cross, Q's dominates both, and A's 8 ns stays beside Q's.
// At a cap of two terms the late set is exactly {Q, 8.0} only when A
// joins after P and Q, as the start order has it: joined first, A's
// constant meets P's two terms, and the cap truncates them.
const orderSource = `design ORDER
period 50ns
clockunit 6.25ns
defaultwire 0ns 0ns
param load = 1.0 range 0.5 3.5
buf P1 delay=(1.0+0.5*load, 2.0+3.0*load) ("P .S0-7") -> (Y1)
buf P2 delay=(0.5+0.5*load, 1.0+3.5*load) ("P .S0-7") -> (Y2)
buf Q1 delay=(2.0+0.5*load, 4.0+3.5*load) ("Q .S0-7") -> (Y3)
buf A1 delay=(8.0,8.0) ("A .S0-7") -> (XA)
or J delay=(0.0,0.0) (Y1, Y2, Y3, XA) -> (Z)
setuphold CHK setup=4.0 hold=1.0 (Z, "CK .P4-6")
`

// wiredSource ties a gate and a register onto each of the nets N and
// N2.  The registers are declared last, so each net is a start as well
// as a hop output.  N feeds a checker that parametric paths reach, N2
// one that only constant paths reach.
const wiredSource = `design WIRED
period 50ns
clockunit 6.25ns
defaultwire 0ns 0.5ns
wiredor
param load = 1.0 range 0.5 3.5
and G delay=(1.0+0.5*load, 2.0+1.0*load) ("A .S0-7", "B .S0-7") -> (N)
buf C delay=(4.0,6.0) ("E .S0-7") -> (M)
or J delay=(1.0,1.5) (N, M) -> (Z)
setuphold CHK setup=4.0 hold=1.0 (Z, "CK .P4-6")
buf G2 delay=(2.0,3.0) ("F .S0-7") -> (N2)
buf C2 delay=(1.0,4.0) (N2) -> (Z2)
setuphold CHK2 setup=4.0 hold=1.0 (Z2, "CK .P4-6")
reg R delay=(1.0,2.0) ("CK .P4-6", "D .S0-7") -> (N)
reg R2 delay=(0.5,1.0) ("CK .P4-6", "D .S0-7") -> (N2)
`

func compileSource(t testing.TB, src string) *netlist.Design {
	t.Helper()
	f, err := hdl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, _, err := expand.Expand(f)
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	return d
}

// TestPathAlgebraMatchesEdgeOracle requires the worst-case endpoints,
// the quadrature distributions and the term sets to equal the
// edge-level oracle's on every corpus design, and on a design where a
// constant start meets a multi-term set, at the default term cap and at
// a cap of one term, where sets truncate and turn inexact.  Two more
// designs are checked at caps 0, 1 and 2: one where the order in which
// a constant start joins parametric terms decides truncation, and one
// where a start is also a hop output.
func TestPathAlgebraMatchesEdgeOracle(t *testing.T) {
	for _, cd := range corpus(t) {
		checkAgainstOracle(t, cd.name, cd.d, 0)
	}
	d := compileSource(t, reconvergeSource)
	checkAgainstOracle(t, "reconverge", d, 0)
	checkAgainstOracle(t, "reconverge/maxterms=1", d, 1)
	order, wired := compileSource(t, orderSource), compileSource(t, wiredSource)
	for _, maxTerms := range []int{0, 1, 2} {
		checkAgainstOracle(t, fmt.Sprintf("order/maxterms=%d", maxTerms), order, maxTerms)
		checkAgainstOracle(t, fmt.Sprintf("wired/maxterms=%d", maxTerms), wired, maxTerms)
	}

	// The order design does what its comment says: A comes after P and
	// Q, and at two terms the late set is Q's term and A's constant,
	// exact.
	if !startsInOrder(order, "P .S0-7", "Q .S0-7", "A .S0-7") {
		t.Errorf("order: want starts P, Q, A in net order")
	}
	ot, _ := AnalyzeAnalytic(order, 2)
	if st := ot["CHK:I"]; st == nil || !st.LateExact || len(st.Late) != 2 || len(st.Late[0].Counts) != 1 || st.Late[1].Const != ns(8) || len(st.Late[1].Counts) != 0 {
		t.Errorf("order CHK:I at two terms: want the exact late set {Q1, 8.0}, got %+v", st)
	}
	// Each wired net is a start and a hop output.
	wg := buildGraph(wired)
	for _, name := range []string{"N", "N2"} {
		n := slices.IndexFunc(wired.Nets, func(x netlist.Net) bool { return x.Name == name })
		if !slices.Contains(wg.starts, int32(n)) || !slices.ContainsFunc(wg.adj, func(hs []hop) bool {
			return slices.ContainsFunc(hs, func(h hop) bool { return slices.Contains(wg.outs[h.lo:h.hi], int32(n)) })
		}) {
			t.Errorf("wired: %s is not both a start and a hop output", name)
		}
	}

	// The design does what its comment says: P's terms reach both pins,
	// the cap of one truncates them, and D's late arrival carries PD.
	terms, _ := AnalyzeAnalytic(d, 0)
	for _, label := range []string{"CHK:I", "CHK2:I"} {
		if st := terms[label]; st == nil || len(st.Early) < 2 || !st.EarlyExact {
			t.Errorf("%s: want an exact multi-term early set, got %+v", label, st)
		}
	}
	if st := terms["CHK:I"]; st != nil && (len(st.Late) != 1 || len(st.Late[0].Counts) != 0) {
		t.Errorf("CHK:I: want B's constant alone on the late side, got %+v", st.Late)
	}
	if st := terms["CHK2:I"]; st != nil && len(st.Late) < 2 {
		t.Errorf("CHK2:I: want a multi-term late set, got %+v", st.Late)
	}
	if st := terms["CHK3:I"]; st == nil || len(st.Late) != 1 || len(st.Late[0].Counts) != 1 {
		t.Errorf("CHK3:I: want PD's function on the late side, got %+v", st)
	}
	capped, _ := AnalyzeAnalytic(d, 1)
	if st := capped["CHK2:I"]; st == nil || st.LateExact || st.EarlyExact {
		t.Errorf("CHK2:I at one term: want both sides inexact, got %+v", st)
	}
}

// startsInOrder reports whether the named nets are starts of d in the
// given net order.
func startsInOrder(d *netlist.Design, names ...string) bool {
	var got []string
	for _, s := range buildGraph(d).starts {
		if slices.Contains(names, d.Nets[s].Name) {
			got = append(got, d.Nets[s].Name)
		}
	}
	return slices.Equal(got, names)
}

// paramTail appends to a generated design's source, per stage, a
// parametric two-gate chain from stable inputs, one of them behind a
// constant buffer, and a constant chain from a stage start of its own,
// which reconverge through an or into a set-up/hold checker.  The constant chain's range overlaps the
// parametric one's, so the union at the checker may keep terms of both.
// The coefficients come from seed.
func paramTail(src string, stages int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	src = strings.Replace(src, "skew clock -5ns 5ns\n",
		"skew clock -5ns 5ns\nparam load = 1.0 range 0.5 3.5\nparam temp = 1.0 range 0.8 1.2\n", 1)
	var sb strings.Builder
	sb.WriteString(src)
	sb.WriteString("\n; ---- parametric paths ----\n")
	for s := 0; s < stages; s++ {
		fmt.Fprintf(&sb, "buf \"S%d PE\" delay=(0.5,1.0) (\"S%d PD .S0-7\") -> (\"S%d PDX\")\n", s, s, s)
		fmt.Fprintf(&sb, "and \"S%d PG\" delay=(1.0+%.3f*load, 3.0+%.3f*load+%.3f*temp) (\"PEN .S0-7\", \"S%d PDX\") -> (\"S%d PA\")\n",
			s, 0.25+0.5*rng.Float64(), 1.5+rng.Float64(), 0.5+rng.Float64(), s, s)
		fmt.Fprintf(&sb, "buf \"S%d PB\" delay=(0.5+%.3f*temp, 2.0+%.3f*temp) (\"S%d PA\") -> (\"S%d PQ\")\n",
			s, 0.1+0.3*rng.Float64(), 0.5+rng.Float64(), s, s)
		fmt.Fprintf(&sb, "buf \"S%d PC\" delay=(%.3f,%.3f) (\"S%d PK .S0-7\") -> (\"S%d PX\")\n", s, 3*rng.Float64(), 6+10*rng.Float64(), s, s)
		fmt.Fprintf(&sb, "or \"S%d PJ\" delay=(0.5,1.0) (\"S%d PQ\", \"S%d PX\") -> (\"S%d PZ\")\n", s, s, s, s)
		fmt.Fprintf(&sb, "setuphold \"S%d PCHK\" setup=4.0 hold=1.0 (\"S%d PZ\", \"PCK .P4-6\")\n", s, s)
	}
	return sb.String()
}

// FuzzPathAlgebra compares the three path analyses with the edge-level
// oracle on small generated designs: up to 60 chips, with every shape
// knob of gen.Config, and an optional parametric tail (tail > 0 seeds
// its coefficients).
func FuzzPathAlgebra(f *testing.F) {
	f.Add(uint8(17), uint8(1), uint8(2), uint8(0), uint8(0), false, uint8(0), uint8(0), uint8(0))
	f.Add(uint8(34), uint8(0), uint8(0), uint8(3), uint8(50), false, uint8(0), uint8(0), uint8(0))
	f.Add(uint8(51), uint8(1), uint8(2), uint8(2), uint8(0), true, uint8(16), uint8(7), uint8(0))
	f.Add(uint8(17), uint8(0), uint8(1), uint8(0), uint8(0), false, uint8(8), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, chips, inject, cases, depth, feedback uint8, variableCycle bool, width, tail, maxTerms uint8) {
		cfg := gen.Config{
			Chips:         1 + int(chips)%60,
			Inject:        int(inject) % 3,
			Cases:         int(cases) % 4,
			Depth:         int(depth) % 5,
			Feedback:      float64(feedback%101) / 100,
			VariableCycle: variableCycle,
			Width:         int(width) % 49,
		}
		src := gen.Source(cfg)
		if tail > 0 {
			src = paramTail(src, gen.Stages(cfg.Chips), int64(tail))
		}
		checkAgainstOracle(t, fmt.Sprintf("%+v tail=%d", cfg, tail), compileSource(t, src), int(maxTerms%4))
	})
}
