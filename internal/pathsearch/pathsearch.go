// Package pathsearch implements a worst-case path-searching timing
// analyser in the style of GRASP and the Race Analysis System (§1.4.2):
// starting and terminating points are determined by the storage elements
// (RAS-style), and every combinational path between them is characterised
// by its minimum and maximum delay.
//
// This is the baseline the Timing Verifier improves upon: because the
// search cannot take the value behaviour of control signals into account,
// it reports paths that can never be sensitised — the spurious-error
// failure mode of Fig 2-6 — whereas the Verifier's case analysis shows the
// true 30 ns delay.
package pathsearch

import (
	"fmt"
	"slices"
	"sort"

	"scaldtv/internal/netlist"
	"scaldtv/internal/tick"
)

// Endpoint is one start→end combinational path summary.
type Endpoint struct {
	From string // starting net (register output or primary input)
	To   string // terminating pin: "prim:port" of a storage or checker input
	Min  tick.Time
	Max  tick.Time
}

// Analysis is the result of a path search.
type Analysis struct {
	Endpoints []Endpoint
	CombLoops []string // nets on combinational cycles (no storage break)
}

// edge is the delay of one step of a path: a combinational hop, or the
// wire into an end pin.
type edge struct {
	// fn > 0 marks a primitive whose delay is the analytic function
	// Design.DelayFns[fn-1]; cnst is then the part of delay the function
	// does not cover (wire plus select extra).  With fn == 0, cnst is all
	// of delay.  Only the analytic instance reads fn and cnst.
	fn    int32
	delay tick.Range // the step's delay at the default parameter point
	cnst  tick.Range
}

// hop is one combinational primitive's arc from one of its distinct
// input nets, through the wire at that pin and the primitive itself, to
// every net the primitive drives: graph.outs[lo:hi], a list all the
// primitive's hops share.
type hop struct {
	edge
	lo, hi int32
}

// endPin is a pin that terminates paths: a storage or checker input, or
// a primary output.  Its wire is the last step of every path ending there.
type endPin struct {
	net   int32
	slot  int32  // the index of label in graph.labels
	label string // "prim:port", or "output(net)"
	wire  edge
}

// graph is the combinational-path graph every analysis runs over.
type graph struct {
	adj    [][]hop    // per net: the hops leaving it, in primitive order
	outs   []int32    // every combinational primitive's distinct output nets
	ends   [][]endPin // per net: the end pins it feeds
	labels []string   // the distinct end-pin labels, by slot
	starts []int32
	order  []int32
	rank   []int32 // per net: its index in order, or -1 on a combinational loop
	loops  []string
}

func buildGraph(d *netlist.Design) *graph {
	n := len(d.Nets)
	// ins calls f once per distinct input net of p, with the index of the
	// port it first appears on.
	stamp, prim := make([]int32, n), int32(0)
	ins := func(p *netlist.Prim, f func(port int, c netlist.Conn)) {
		prim++
		for ii, port := range p.In {
			for _, c := range port.Bits {
				if stamp[c.Net] != prim {
					stamp[c.Net] = prim
					f(ii, c)
				}
			}
		}
	}
	// drives reports whether p is a combinational primitive with an
	// output: only those get hops.
	drives := func(p *netlist.Prim) bool {
		return !p.Kind.IsChecker() && !p.Kind.IsStorage() && slices.ContainsFunc(p.Out, func(o netlist.OutPort) bool { return len(o.Bits) > 0 })
	}

	// Census: how many hops leave each net, so that net u's fill
	// slab[first[u]:first[u+1]], and how many labels and output bits
	// there are.
	first := make([]int32, n+1)
	labels, outBits := 0, 0
	for pi := range d.Prims {
		p := &d.Prims[pi]
		switch {
		case p.Kind.IsChecker():
			labels++
		case p.Kind.IsStorage():
			labels += len(p.In)
		case drives(p):
			for _, port := range p.Out {
				outBits += len(port.Bits)
			}
			ins(p, func(_ int, c netlist.Conn) { first[c.Net+1]++ })
		}
	}
	for i := range n {
		first[i+1] += first[i]
	}

	g := &graph{adj: make([][]hop, n), outs: make([]int32, 0, outBits), ends: make([][]endPin, n), labels: make([]string, 0, labels)}
	// slot numbers the distinct labels; addEnds adds an end pin per bit,
	// behind the wire at its pin.
	slots := make(map[string]int32, labels)
	slot := func(label string) int32 {
		s, ok := slots[label]
		if !ok {
			s = int32(len(g.labels))
			slots[label] = s
			g.labels = append(g.labels, label)
		}
		return s
	}
	addEnds := func(bits []netlist.Conn, label string) {
		s := slot(label)
		for _, c := range bits {
			w := d.WireDelay(c.Net, 'E')
			g.ends[c.Net] = append(g.ends[c.Net], endPin{net: int32(c.Net), slot: s, label: label, wire: edge{delay: w, cnst: w}})
		}
	}

	slab := make([]hop, first[n])
	next := slices.Clone(first[:n])
	// outStamp marks the nets already listed for primitive pi with pi+1.
	outStamp := make([]int32, n)
	for pi := range d.Prims {
		p := &d.Prims[pi]
		switch {
		case p.Kind.IsChecker():
			addEnds(p.In[0].Bits, p.Name+":"+p.In[0].Name)
		case p.Kind.IsStorage():
			// Data (and control) inputs terminate paths; outputs start
			// new ones (handled by the start set below).
			for _, port := range p.In {
				addEnds(port.Bits, p.Name+":"+port.Name)
			}
		case drives(p):
			// Combinational: every distinct input net feeds every
			// distinct output net with the wire delay at the pin plus
			// the element delay.
			lo := int32(len(g.outs))
			for _, port := range p.Out {
				for _, o := range port.Bits {
					if outStamp[o] != int32(pi+1) {
						outStamp[o] = int32(pi + 1)
						g.outs = append(g.outs, int32(o))
					}
				}
			}
			ins(p, func(ii int, c netlist.Conn) {
				extra := tick.Range{}
				if ii < p.Kind.NumSelects() {
					extra = p.SelectDelay
				}
				dir, _ := c.Directives.Head()
				w := d.WireDelay(c.Net, dir)
				delay := p.Delay
				if dir.ZeroesGate() {
					delay = tick.Range{}
				}
				h := hop{edge: edge{delay: w.Add(delay).Add(extra)}, lo: lo, hi: int32(len(g.outs))}
				h.cnst = h.delay
				if p.Fn > 0 && !dir.ZeroesGate() {
					h.fn, h.cnst = p.Fn, w.Add(extra)
				}
				slab[next[c.Net]] = h
				next[c.Net]++
			})
		}
	}
	for i := range g.adj {
		g.adj[i] = slab[first[i]:first[i+1]:first[i+1]]
	}

	// Primary outputs: driven nets nothing reads terminate paths too.
	for i := range d.Nets {
		if len(d.Nets[i].Fanout) == 0 && d.Nets[i].Driver != netlist.NoDriver {
			label := "output(" + d.Nets[i].Name + ")"
			g.ends[i] = append(g.ends[i], endPin{net: int32(i), slot: slot(label), label: label})
		}
	}

	// Starting points: storage outputs and undriven nets (RAS-style
	// automatic determination).
	for i := range d.Nets {
		drv := d.Nets[i].Driver
		if drv == netlist.NoDriver || d.Prims[drv].Kind.IsStorage() {
			if len(g.adj[i]) > 0 || len(g.ends[i]) > 0 {
				g.starts = append(g.starts, int32(i))
			}
		}
	}

	// Topological order of the combinational graph; storage outputs and
	// primary inputs have no incoming combinational edges by construction,
	// so any residual cycle is a genuine combinational loop.
	g.order, g.loops = topoOrder(g, d)
	g.rank = make([]int32, n)
	for i := range g.rank {
		g.rank[i] = -1
	}
	for r, u := range g.order {
		g.rank[u] = int32(r)
	}
	return g
}

// A pathAlgebra values the paths through the graph.  A path's value
// begins as start at its first net and is carried across each hop by
// extend — the wire into an end pin is one more step — and where paths
// reconverge on a net, join merges the value already there (dst) with
// the arriving one.  The traversal never swaps join's operands, so an
// instance whose join rounds (the quadrature's CombineMax and
// CombineMin) stays bit-reproducible.  A value extend returns may be
// joined into several nets, so join must not write its operands.
type pathAlgebra[V any] interface {
	start() V
	extend(v V, e edge) V
	join(dst, v V) V
}

// traversal runs one path algebra over the graph in topological order.
// It owns the per-net values and their reachability.  A sweep visits
// only its sources' cone: it extends the nets it has reached in rank
// order, taken from a min-heap, so it pays one extend per hop and one
// join per hop output of the cone, plus a heap step per net, and before
// the next sweep it resets only the nets it touched.
type traversal[V any] struct {
	g       *graph
	alg     pathAlgebra[V]
	val     []V
	reached []bool
	touched []int32 // nets the last sweep reached, in the order it reached them
	heap    []int32 // ranks of reached nets the sweep has yet to extend
	endNets []int32 // pins' scratch: the touched nets that feed end pins
}

func newTraversal[V any](g *graph, alg pathAlgebra[V]) *traversal[V] {
	n := len(g.adj)
	// A sweep touches each net at most once, so no list outgrows n.
	nets := make([]int32, 3*n)
	return &traversal[V]{g: g, alg: alg, val: make([]V, n), reached: make([]bool, n),
		touched: nets[:0:n], heap: nets[n : n : 2*n], endNets: nets[2*n : 2*n]}
}

// sweep values every net reachable from the sources over all the paths
// that reach it.  A source listed twice is valued once.  A net on a
// combinational loop has no rank and is never extended.
func (t *traversal[V]) sweep(sources ...int32) {
	var zero V
	for _, n := range t.touched {
		t.val[n], t.reached[n] = zero, false
	}
	t.touched = t.touched[:0]
	for _, s := range sources {
		if !t.reached[s] {
			t.val[s] = t.alg.start()
			t.reach(s)
		}
	}
	for len(t.heap) > 0 {
		u := t.g.order[t.pop()]
		for i := range t.g.adj[u] {
			h := &t.g.adj[u][i]
			v := t.alg.extend(t.val[u], h.edge)
			for _, o := range t.g.outs[h.lo:h.hi] {
				if t.reached[o] {
					t.val[o] = t.alg.join(t.val[o], v)
				} else {
					t.val[o] = v
					t.reach(o)
				}
			}
		}
	}
}

// reach marks n reached and, unless it is on a loop, queues it.
func (t *traversal[V]) reach(n int32) {
	t.reached[n] = true
	t.touched = append(t.touched, n)
	if r := t.g.rank[n]; r >= 0 {
		t.push(r)
	}
}

// push and pop keep heap a binary min-heap of ranks.
func (t *traversal[V]) push(r int32) {
	h := append(t.heap, r)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	t.heap = h
}

func (t *traversal[V]) pop() int32 {
	h := t.heap
	r := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	t.heap = h
	return r
}

// at is the value of the last sweep's paths ending at pin, whose net
// that sweep reached.
func (t *traversal[V]) at(pin *endPin) V { return t.alg.extend(t.val[pin.net], pin.wire) }

// pins hands f each end pin the last sweep reached, in net order.
func (t *traversal[V]) pins(f func(pin *endPin)) {
	t.endNets = t.endNets[:0]
	for _, n := range t.touched {
		if len(t.g.ends[n]) > 0 {
			t.endNets = append(t.endNets, n)
		}
	}
	slices.Sort(t.endNets)
	for _, net := range t.endNets {
		pins := t.g.ends[net]
		for i := range pins {
			f(&pins[i])
		}
	}
}

// fold sweeps from every start in turn and hands f each end pin the
// start reaches, with the value of the paths ending there: starts in
// order, then end pins in net order.
func (t *traversal[V]) fold(f func(start int32, pin *endPin, v V)) {
	for _, s := range t.g.starts {
		t.sweep(s)
		t.pins(func(pin *endPin) { f(s, pin, t.at(pin)) })
	}
}

// ticks is the worst-case instance: a net's value is the shortest and
// longest delay of its paths.
type ticks struct{}

func (ticks) start() tick.Range                      { return tick.Range{} }
func (ticks) extend(v tick.Range, e edge) tick.Range { return v.Add(e.delay) }
func (ticks) join(dst, v tick.Range) tick.Range {
	return tick.Range{Min: min(dst.Min, v.Min), Max: max(dst.Max, v.Max)}
}

// Analyze searches every combinational path of the design.
func Analyze(d *netlist.Design) (*Analysis, error) {
	g := buildGraph(d)
	a := &Analysis{CombLoops: g.loops}
	newTraversal[tick.Range](g, ticks{}).fold(func(s int32, pin *endPin, v tick.Range) {
		a.Endpoints = append(a.Endpoints, Endpoint{From: d.Nets[s].Name, To: pin.label, Min: v.Min, Max: v.Max})
	})
	sort.Slice(a.Endpoints, func(i, j int) bool {
		if a.Endpoints[i].Max != a.Endpoints[j].Max {
			return a.Endpoints[i].Max > a.Endpoints[j].Max
		}
		if a.Endpoints[i].From != a.Endpoints[j].From {
			return a.Endpoints[i].From < a.Endpoints[j].From
		}
		return a.Endpoints[i].To < a.Endpoints[j].To
	})
	return a, nil
}

// topoOrder computes a topological order over the combinational hops,
// returning the names of nets involved in combinational cycles.
func topoOrder(g *graph, d *netlist.Design) ([]int32, []string) {
	n := len(g.adj)
	indeg := make([]int32, n)
	for _, hs := range g.adj {
		for _, h := range hs {
			for _, o := range g.outs[h.lo:h.hi] {
				indeg[o]++
			}
		}
	}
	// Kahn's algorithm, with order itself as the FIFO queue.
	order := make([]int32, 0, n)
	for i := range n {
		if indeg[i] == 0 {
			order = append(order, int32(i))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, h := range g.adj[order[head]] {
			for _, o := range g.outs[h.lo:h.hi] {
				if indeg[o]--; indeg[o] == 0 {
					order = append(order, o)
				}
			}
		}
	}
	var loops []string
	if len(order) < n {
		for i := range n {
			if indeg[i] > 0 {
				loops = append(loops, d.Nets[i].Name)
			}
		}
		sort.Strings(loops)
	}
	return order, loops
}

// Longest returns the endpoints sorted by maximum delay, descending (the
// critical paths).
func (a *Analysis) Longest() []Endpoint { return a.Endpoints }

// Errors returns the endpoints whose maximum delay exceeds the budget —
// the flat pass/fail judgement a path searcher can make without value
// information.
func (a *Analysis) Errors(budget tick.Time) []Endpoint {
	var out []Endpoint
	for _, e := range a.Endpoints {
		if e.Max > budget {
			out = append(out, e)
		}
	}
	return out
}

// String renders the critical-path table.
func (a *Analysis) String() string {
	s := "WORST-CASE PATHS (path-search baseline)\n\n"
	for i, e := range a.Endpoints {
		if i >= 20 {
			s += fmt.Sprintf("  … %d more\n", len(a.Endpoints)-i)
			break
		}
		s += fmt.Sprintf("  %-30s → %-34s %8s / %-8s ns\n", e.From, e.To, e.Min, e.Max)
	}
	return s + loopsLine(a.CombLoops)
}

// loopsLine is the closing line of a path listing: the nets on
// combinational loops, or nothing when there are none.
func loopsLine(loops []string) string {
	if len(loops) == 0 {
		return ""
	}
	return fmt.Sprintf("\n  combinational loops through: %v\n", loops)
}

// ModuleDelay computes the minimum and maximum combinational latency from
// a set of module input signals to a set of module output signals — the
// measurement §4.2.1 describes for self-timed designs, where the result
// sizes the delay inserted into the module's "done" circuit.  Signal names
// are logical base names; every bit of each named signal participates.
// One sweep starts from every input at once.
func ModuleDelay(d *netlist.Design, from, to []string) (tick.Range, error) {
	nets := func(names []string) []int32 {
		var out []int32
		for _, name := range names {
			for _, n := range d.NetsByBase(name) {
				out = append(out, int32(n))
			}
		}
		return out
	}
	sources, sinks := nets(from), nets(to)
	if len(sources) == 0 || len(sinks) == 0 {
		return tick.Range{}, fmt.Errorf("pathsearch: module boundary signals not found")
	}
	t := newTraversal[tick.Range](buildGraph(d), ticks{})
	t.sweep(sources...)
	out := tick.Range{Min: tick.Infinity, Max: 0}
	reached := false
	for _, n := range sinks {
		if t.reached[n] {
			out, reached = ticks{}.join(out, t.val[n]), true
		}
	}
	if !reached {
		return tick.Range{}, fmt.Errorf("pathsearch: no combinational path from the module inputs to its outputs")
	}
	return out, nil
}
