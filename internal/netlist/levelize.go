package netlist

import (
	"sort"

	"scaldtv/internal/assertion"
)

// Levelization condenses the primitive graph into strongly connected
// components (Tarjan) and assigns every combinational component a
// topological level, the structure the tape's wavefront sweep relaxes
// over: components on one level share no dependency, feedback components
// converge with a scoped worklist, and sequential components — those
// containing clocked storage — run after the levels, so their stores
// reach their consumers in the next sweep.
//
// Edge rules.  A dependency edge u → q exists when u drives a net that q
// reads, except:
//
//   - checker primitives have no outputs and propagate nothing, so they
//     appear in no component (Comp[q] == -1);
//   - clock-pinned nets (a .C/.P clock assertion on a driven net, §2.9)
//     never propagate stores — the assertion rules and the computed value
//     goes to the cross-check side table — so edges through them are
//     dropped entirely;
//   - edges out of storage elements are *sequential*: they are cut before
//     the condensation (breaking the pipeline ring that would otherwise
//     collapse a whole design into one giant component) and honoured
//     between sweeps instead of within one.
//
// Wired-OR co-drivers of one net are forced into a single component (a
// cycle of artificial edges) because each driver's evaluation re-folds the
// group's outputs: keeping them in one component serialises the folds.
type Levelization struct {
	// Comp maps each PrimID to its component index, -1 for checkers.
	Comp []int32
	// Comps holds the components.  Indices are deterministic: they are
	// assigned in Tarjan completion order, which depends only on the
	// design's declaration order.
	Comps []SCComp
	// Levels lists the combinational component ids of each topological
	// level, ascending within a level.  A dependency edge between
	// combinational components always goes to a strictly higher level.
	Levels [][]int32
	// Seq lists the sequential component ids, ascending.
	Seq []int32
	// MaxLevel is len(Levels) - 1, or -1 with no combinational components.
	MaxLevel int
	// Feedback counts components needing local fixed-point iteration
	// (more than one member, or a self-loop).
	Feedback int
}

// SCComp is one strongly connected component of the cut primitive graph.
type SCComp struct {
	Members  []PrimID // ascending
	Level    int32    // topological level; -1 for sequential components
	Seq      bool     // contains a storage element: runs in the serial phase
	Feedback bool     // needs a scoped worklist to converge
}

// clockPinned reports whether the net is pinned to a clock assertion: the
// verifier never propagates a computed value through it (§2.9), so it
// carries no scheduling dependency.
func (d *Design) clockPinned(n NetID) bool {
	a := d.Nets[n].Assert
	return a != nil && (a.Kind == assertion.Clock || a.Kind == assertion.PrecisionClock)
}

// Levelization returns the design's cached levelization, computing it on
// first use.  The fanout index must be current; RebuildFanout invalidates
// the cache.  The returned structure is immutable and safe to share.
func (d *Design) Levelization() *Levelization {
	if l := d.level.Load(); l != nil {
		return l
	}
	l := computeLevelization(d)
	d.level.Store(l)
	return l
}

func computeLevelization(d *Design) *Levelization {
	n := len(d.Prims)
	adj := make([][]int32, n)

	// Dependency edges through driven nets, minus the cut classes.
	for pi := range d.Prims {
		p := &d.Prims[pi]
		if p.Kind.IsChecker() || p.Kind.IsStorage() {
			continue
		}
		for _, port := range p.Out {
			for _, net := range port.Bits {
				if d.clockPinned(net) {
					continue
				}
				for _, q := range d.Nets[net].Fanout {
					if d.Prims[q].Kind.IsChecker() {
						continue
					}
					adj[pi] = append(adj[pi], int32(q))
				}
			}
		}
	}
	// Wired-OR groups: a cycle of artificial edges keeps co-drivers in one
	// component.  Nets are visited in order, so the edge lists — and the
	// Tarjan completion order — stay deterministic.
	if wired, _ := d.WiredDrivers(); wired != nil {
		for ni := range d.Nets {
			drivers := wired[NetID(ni)]
			for i, u := range drivers {
				v := drivers[(i+1)%len(drivers)]
				if u != v {
					adj[u] = append(adj[u], int32(v))
				}
			}
		}
	}

	l := &Levelization{Comp: make([]int32, n), MaxLevel: -1}
	for i := range l.Comp {
		l.Comp[i] = -1
	}

	// Iterative Tarjan.  Components complete in reverse topological order,
	// so iterating them backwards afterwards is a topological sweep.
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		next  int32
		stack []int32 // Tarjan's component stack
	)
	type frame struct {
		v  int32
		ei int // next adjacency index to explore
	}
	var dfs []frame
	for root := 0; root < n; root++ {
		if index[root] != unvisited || d.Prims[root].Kind.IsChecker() {
			continue
		}
		dfs = append(dfs[:0], frame{v: int32(root)})
		index[root], low[root] = next, next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				switch {
				case index[w] == unvisited:
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					dfs = append(dfs, frame{v: w})
				case onStack[w]:
					if index[w] < low[f.v] {
						low[f.v] = index[w]
					}
				}
				continue
			}
			v := f.v
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				if p := dfs[len(dfs)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			// v roots a component: pop it.
			ci := int32(len(l.Comps))
			var members []PrimID
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				l.Comp[w] = ci
				members = append(members, PrimID(w))
				if w == v {
					break
				}
			}
			sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
			l.Comps = append(l.Comps, SCComp{Members: members})
		}
	}

	// Classify components and detect self-loops.
	for ci := range l.Comps {
		c := &l.Comps[ci]
		c.Feedback = len(c.Members) > 1
		for _, m := range c.Members {
			if d.Prims[m].Kind.IsStorage() {
				c.Seq = true
			}
			if !c.Feedback {
				for _, w := range adj[m] {
					if PrimID(w) == m {
						c.Feedback = true
						break
					}
				}
			}
		}
		if c.Feedback {
			l.Feedback++
		}
	}

	// Topological levels over the combinational condensation.  Tarjan
	// finished successor components first, so walking Comps backwards
	// visits every component before any component it points to; edges out
	// of sequential components are cut and do not raise levels.
	for ci := len(l.Comps) - 1; ci >= 0; ci-- {
		c := &l.Comps[ci]
		if c.Seq {
			c.Level = -1
			continue
		}
		for _, m := range c.Members {
			for _, w := range adj[m] {
				tc := l.Comp[w]
				if tc == int32(ci) || l.Comps[tc].Seq {
					continue
				}
				if nl := c.Level + 1; nl > l.Comps[tc].Level {
					l.Comps[tc].Level = nl
				}
			}
		}
	}
	for ci := range l.Comps {
		c := &l.Comps[ci]
		if c.Seq {
			l.Seq = append(l.Seq, int32(ci))
			continue
		}
		for int(c.Level) >= len(l.Levels) {
			l.Levels = append(l.Levels, nil)
		}
		l.Levels[c.Level] = append(l.Levels[c.Level], int32(ci))
	}
	l.MaxLevel = len(l.Levels) - 1
	for _, lv := range l.Levels {
		sort.Slice(lv, func(i, j int) bool { return lv[i] < lv[j] })
	}
	sort.Slice(l.Seq, func(i, j int) bool { return l.Seq[i] < l.Seq[j] })
	return l
}
