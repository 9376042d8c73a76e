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

// edge is one combinational hop: from the net it is listed under to the
// net to, through the wire at the primitive's input pin and the
// primitive itself.
type edge struct {
	to int32
	// fn > 0 marks a primitive whose delay is the analytic function
	// Design.DelayFns[fn-1]; cnst is then the part of delay the function
	// does not cover (wire plus select extra).  With fn == 0, cnst is all
	// of delay.  Only the analytic instance reads fn and cnst.
	fn    int32
	delay tick.Range // the hop's delay at the default parameter point
	cnst  tick.Range
}

// endPin is a pin that terminates paths: a storage or checker input, or
// a primary output.  Its wire is the last edge of every path ending there.
type endPin struct {
	net   int32
	label string // "prim:port", or "output(net)"
	wire  edge
}

// graph is the combinational-path graph every analysis runs over.
type graph struct {
	adj    [][]edge
	ends   [][]endPin // per net: the end pins it feeds
	starts []int32
	order  []int32
	loops  []string
}

func buildGraph(d *netlist.Design) *graph {
	n := len(d.Nets)
	adj := make([][]edge, n)
	ends := make([][]endPin, n)

	addEnd := func(c netlist.Conn, prim, port string) {
		w := d.WireDelay(c.Net, 'E')
		ends[c.Net] = append(ends[c.Net], endPin{net: int32(c.Net), label: prim + ":" + port, wire: edge{delay: w, cnst: w}})
	}

	// outStamp and inStamp mark the nets already collected for primitive
	// pi with pi+1.
	outStamp := make([]int, n)
	inStamp := make([]int, n)
	var outNets []int32
	for pi := range d.Prims {
		p := &d.Prims[pi]
		switch {
		case p.Kind.IsChecker():
			for _, c := range p.In[0].Bits {
				addEnd(c, p.Name, p.In[0].Name)
			}
		case p.Kind.IsStorage():
			// Data (and control) inputs terminate paths; outputs start
			// new ones (handled by the start set below).
			for _, port := range p.In {
				for _, c := range port.Bits {
					addEnd(c, p.Name, port.Name)
				}
			}
		default:
			// Combinational: every distinct input net feeds every output
			// net with the wire delay at the pin plus the element delay.
			outNets = outNets[:0]
			for _, port := range p.Out {
				for _, o := range port.Bits {
					if outStamp[o] != pi+1 {
						outStamp[o] = pi + 1
						outNets = append(outNets, int32(o))
					}
				}
			}
			for ii, port := range p.In {
				extra := tick.Range{}
				if ii < p.Kind.NumSelects() {
					extra = p.SelectDelay
				}
				for _, c := range port.Bits {
					if inStamp[c.Net] == pi+1 {
						continue
					}
					inStamp[c.Net] = pi + 1
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
					for _, o := range outNets {
						e.to = o
						adj[c.Net] = append(adj[c.Net], e)
					}
				}
			}
		}
	}

	// Primary outputs: driven nets nothing reads terminate paths too.
	for i := range d.Nets {
		if len(d.Nets[i].Fanout) == 0 && d.Nets[i].Driver != netlist.NoDriver {
			ends[i] = append(ends[i], endPin{net: int32(i), label: "output(" + d.Nets[i].Name + ")"})
		}
	}

	// Starting points: storage outputs and undriven nets (RAS-style
	// automatic determination).
	var starts []int32
	for i := range d.Nets {
		drv := d.Nets[i].Driver
		if drv == netlist.NoDriver || d.Prims[drv].Kind.IsStorage() {
			if len(adj[i]) > 0 || len(ends[i]) > 0 {
				starts = append(starts, int32(i))
			}
		}
	}

	// Topological order of the combinational graph; storage outputs and
	// primary inputs have no incoming combinational edges by construction,
	// so any residual cycle is a genuine combinational loop.
	order, loops := topoOrder(n, adj, d)
	return &graph{adj: adj, ends: ends, starts: starts, order: order, loops: loops}
}

// A pathAlgebra values the paths through the graph.  A path's value
// begins as start at its first net and is carried across each edge by
// extend — the wire into an end pin is one more edge — and where paths
// reconverge on a net, join merges the value already there (dst) with
// the arriving one.  The traversal never swaps join's operands, so an
// instance whose join rounds (the quadrature's CombineMax and
// CombineMin) stays bit-reproducible.
type pathAlgebra[V any] interface {
	start() V
	extend(v V, e edge) V
	join(dst, v V) V
}

// traversal runs one path algebra over the graph's topological order.
// It owns the per-net values and their reachability, and before every
// sweep resets only the nets the last sweep touched, so a sweep costs
// its sources' cone rather than the whole graph.
type traversal[V any] struct {
	g       *graph
	alg     pathAlgebra[V]
	val     []V
	reached []bool
	touched []int32 // nets the last sweep reached, in the order it reached them
	endNets []int32 // fold's scratch: the touched nets that feed end pins
}

func newTraversal[V any](g *graph, alg pathAlgebra[V]) *traversal[V] {
	n := len(g.adj)
	// A sweep touches each net at most once, so neither list outgrows n.
	nets := make([]int32, 2*n)
	return &traversal[V]{g: g, alg: alg, val: make([]V, n), reached: make([]bool, n), touched: nets[:0:n], endNets: nets[n:n]}
}

// sweep values every net reachable from the sources over all the paths
// that reach it.  A source listed twice is valued once.
func (t *traversal[V]) sweep(sources ...int32) {
	var zero V
	for _, n := range t.touched {
		t.val[n], t.reached[n] = zero, false
	}
	t.touched = t.touched[:0]
	for _, s := range sources {
		if !t.reached[s] {
			t.val[s], t.reached[s] = t.alg.start(), true
			t.touched = append(t.touched, s)
		}
	}
	for _, u := range t.g.order {
		if !t.reached[u] {
			continue
		}
		for _, e := range t.g.adj[u] {
			v := t.alg.extend(t.val[u], e)
			if t.reached[e.to] {
				v = t.alg.join(t.val[e.to], v)
			} else {
				t.reached[e.to] = true
				t.touched = append(t.touched, e.to)
			}
			t.val[e.to] = v
		}
	}
}

// at is the value of the last sweep's paths ending at pin, whose net
// that sweep reached.
func (t *traversal[V]) at(pin *endPin) V { return t.alg.extend(t.val[pin.net], pin.wire) }

// fold sweeps from every start in turn and hands f each end pin the
// start reaches, with the value of the paths ending there: starts in
// order, then end pins in net order.  It stops when f returns false.
func (t *traversal[V]) fold(f func(start int32, pin *endPin, v V) bool) {
	for _, s := range t.g.starts {
		t.sweep(s)
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
				if !f(s, &pins[i], t.at(&pins[i])) {
					return
				}
			}
		}
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
	newTraversal[tick.Range](g, ticks{}).fold(func(s int32, pin *endPin, v tick.Range) bool {
		a.Endpoints = append(a.Endpoints, Endpoint{From: d.Nets[s].Name, To: pin.label, Min: v.Min, Max: v.Max})
		return true
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

// topoOrder computes a topological order over the combinational edges,
// returning the names of nets involved in combinational cycles.
func topoOrder(n int, adj [][]edge, d *netlist.Design) ([]int32, []string) {
	indeg := make([]int, n)
	for _, es := range adj {
		for _, e := range es {
			indeg[e.to]++
		}
	}
	// Kahn's algorithm, with order itself as the FIFO queue.
	order := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, int32(i))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, e := range adj[order[head]] {
			indeg[e.to]--
			if indeg[e.to] == 0 {
				order = append(order, e.to)
			}
		}
	}
	var loops []string
	if len(order) < n {
		for i := 0; i < n; i++ {
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
