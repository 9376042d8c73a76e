package tape

import (
	"math"
	"sort"
	"sync/atomic"

	"scaldtv/internal/assertion"
	"scaldtv/internal/eval"
	"scaldtv/internal/netlist"
	"scaldtv/internal/serr"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
)

// Compile lowers a design to its evaluation tape.  The design is fully
// validated (Design.Check) and levelized once here; warm runs then only
// re-validate numeric parameters (Refresh).  Compilation reuses the
// design's cached levelization when one exists and allocates nothing per
// subsequent run.
func Compile(d *netlist.Design) (*Program, error) {
	if err := d.Check(); err != nil {
		return nil, serr.Wrap(serr.Elaborate, err)
	}
	p := &Program{
		Lev:    d.Levelization(),
		Plans:  make([]CheckPlan, len(d.Prims)),
		Intern: values.NewInterner(),
		Evals:  eval.NewCache(),
		Sites:  NewNegCache(),
	}
	for pi := range d.Prims {
		pr := &d.Prims[pi]
		switch {
		case pr.Kind.IsChecker():
			p.Plans[pi] = PlanSite
		case pr.Kind.IsStorage():
			p.Plans[pi] = PlanStorage
		default:
			p.Plans[pi] = gatePlan(pr)
		}
	}

	// Flatten every primitive's input connections into the SoA table the
	// warm-slot match scans: source net and pin directive override, in
	// evaluation-key order, with per-primitive spans.
	p.ConnSpan = make([][2]int32, len(d.Prims))
	for pi := range d.Prims {
		start := int32(len(p.ConnNet))
		for _, port := range d.Prims[pi].In {
			for _, c := range port.Bits {
				p.ConnNet = append(p.ConnNet, c.Net)
				p.ConnDirs = append(p.ConnDirs, c.Directives)
			}
		}
		p.ConnSpan[pi] = [2]int32{start, int32(len(p.ConnNet))}
	}
	p.Wired, p.WiredSlot = d.WiredDrivers()

	seeds, err := buildSeeds(d, p.Intern)
	if err != nil {
		return nil, err
	}
	p.slots.Store(&SlotTable{s: make([]atomic.Pointer[Slot], len(d.Prims))})
	p.seeds.Store(seeds)
	return p, nil
}

// gatePlan classifies a (possibly generic) gate site: only multi-input
// gates can carry &A/&H stability directives worth checking.
func gatePlan(pr *netlist.Prim) CheckPlan {
	if pr.Kind.IsGate() && len(pr.In) > 1 {
		return PlanDirective
	}
	return PlanNone
}

// Refresh re-validates the design's numeric parameters and, iff the
// environment signature changed since the current image was built,
// rebuilds the seed image and discards the warm slot table (whose entries
// were computed under the old parameters).  The evaluation memo and site
// cache need no invalidation even then: their keys carry every live
// parameter, so entries from a previous environment are simply never hit
// again.
func (p *Program) Refresh(d *netlist.Design) error {
	if err := d.CheckParams(); err != nil {
		return serr.Wrap(serr.Elaborate, err)
	}
	sig := envSig(d)
	if s := p.seeds.Load(); s != nil && s.sig == sig {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := p.seeds.Load(); s != nil && s.sig == sig {
		return nil
	}
	seeds, err := buildSeeds(d, p.Intern)
	if err != nil {
		return err
	}
	// Swap the slot table before publishing the seeds: a racing reader can
	// only pair fresh (empty) slots with old seeds, which is merely slow,
	// never wrong.
	p.slots.Store(&SlotTable{s: make([]atomic.Pointer[Slot], len(d.Prims))})
	p.seeds.Store(seeds)
	return nil
}

// buildSeeds renders the §2.9 step-1 seed of every net — the assertion
// waveform (pinned for clocks), the always-stable default for undriven
// unasserted nets, UNKNOWN for driven ones — exactly as the verifier's
// per-run seeding would, interning each seed so runs start from handles.
func buildSeeds(d *netlist.Design, intern *values.Interner) (*Seeds, error) {
	s := &Seeds{
		Initial:   make([]values.Waveform, len(d.Nets)),
		InitialID: make([]uint64, len(d.Nets)),
		Pinned:    make([]bool, len(d.Nets)),
		sig:       envSig(d),
	}
	env := d.Env()
	undefSeen := map[string]bool{}
	for i := range d.Nets {
		n := &d.Nets[i]
		var w values.Waveform
		switch {
		case n.Assert != nil:
			aw, aerr := n.Assert.Waveform(env)
			if aerr != nil {
				return nil, serr.Newf(serr.Assertion, "verify: net %q: %v", n.Name, aerr)
			}
			w = aw
			s.Pinned[i] = n.Assert.Kind == assertion.Clock || n.Assert.Kind == assertion.PrecisionClock
			if n.Driver != netlist.NoDriver {
				s.AssertNets = append(s.AssertNets, netlist.NetID(i))
			}
		case n.Driver == netlist.NoDriver:
			w = values.Const(d.Period, values.VS)
			if !undefSeen[n.Base] {
				undefSeen[n.Base] = true
				s.Undefined = append(s.Undefined, n.Base)
			}
		default:
			w = values.Const(d.Period, values.VU)
		}
		s.Initial[i], s.InitialID[i] = intern.Intern(w)
	}
	sort.Strings(s.Undefined)
	return s, nil
}

// envSig fingerprints everything evaluation and checking read besides the
// runtime signal state: the design environment, each net's wire override,
// assertion content and driver presence (plus the base names of undriven
// unasserted nets, which form the cross-reference listing), and each
// primitive's kind, width, delay and constraint parameters and connection
// structure.  It is the generation guard of both the seed image and the
// warm slot table: while the signature is unchanged, a slot whose input
// handles and directives match is guaranteed to reproduce evaluation.
func envSig(d *netlist.Design) uint64 {
	h := newFNV()
	h.time(d.Period)
	h.time(d.ClockUnit)
	h.rng(d.DefaultWire)
	h.rng(d.PrecisionSkew)
	h.rng(d.ClockSkew)
	h.bit(d.WiredOr)
	for i := range d.Nets {
		n := &d.Nets[i]
		driven := n.Driver != netlist.NoDriver
		h.bit(driven)
		if n.Wire != nil {
			h.b(1)
			h.rng(*n.Wire)
		} else {
			h.b(0)
		}
		if n.Assert == nil {
			h.b(0)
			if !driven {
				h.str(n.Base)
			}
			continue
		}
		a := n.Assert
		h.b(1)
		h.b(byte(a.Kind))
		h.bit(a.LowAsserted)
		if a.Skew != nil {
			h.b(1)
			h.rng(*a.Skew)
		} else {
			h.b(0)
		}
		h.u64(uint64(len(a.Ranges)))
		for _, r := range a.Ranges {
			h.u64(math.Float64bits(r.Start))
			h.u64(math.Float64bits(r.End))
			h.time(r.WidthNS)
			h.bit(r.IsWidth)
		}
	}
	for i := range d.Prims {
		pr := &d.Prims[i]
		h.b(byte(pr.Kind))
		h.u64(uint64(pr.Width))
		h.rng(pr.Delay)
		h.rng(pr.SelectDelay)
		if pr.RF != nil {
			h.b(1)
			h.rng(pr.RF.Rise)
			h.rng(pr.RF.Fall)
		} else {
			h.b(0)
		}
		h.time(pr.Setup)
		h.time(pr.Hold)
		h.time(pr.MinHigh)
		h.time(pr.MinLow)
		h.u64(uint64(pr.Fn))
		for pi := range pr.In {
			port := &pr.In[pi]
			h.u64(uint64(len(port.Bits)))
			for _, c := range port.Bits {
				h.u64(uint64(c.Net))
				h.bit(c.Invert)
				h.str(string(c.Directives))
			}
		}
	}
	// The analytic tables: Prim.Delay already pins every fn-bound delay at
	// the run's parameter point — so two pinnings of one design differ
	// above — but the tables themselves travel with the design and feed
	// the symbolic post-pass, so a table edit must invalidate too.
	h.u64(uint64(len(d.Params)))
	for _, p := range d.Params {
		h.str(p.Name)
		h.u64(math.Float64bits(p.Default))
		h.u64(math.Float64bits(p.Lo))
		h.u64(math.Float64bits(p.Hi))
	}
	h.u64(uint64(len(d.DelayFns)))
	for i := range d.DelayFns {
		for _, a := range [2]netlist.Affine{d.DelayFns[i].Min, d.DelayFns[i].Max} {
			h.time(a.Base)
			h.u64(uint64(len(a.Coeffs)))
			for _, c := range a.Coeffs {
				h.u64(uint64(c.Param))
				h.u64(math.Float64bits(c.PS))
			}
		}
	}
	return h.sum
}

type fnv struct{ sum uint64 }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newFNV() *fnv { return &fnv{sum: fnvOffset64} }

func (h *fnv) b(x byte) {
	h.sum = (h.sum ^ uint64(x)) * fnvPrime64
}

func (h *fnv) bit(x bool) {
	if x {
		h.b(1)
	} else {
		h.b(0)
	}
}

// u64 mixes a whole word in one step (word-wise FNV-1a variant): envSig
// runs on every Refresh — once per verification — so the walk over ~10^5
// nets and primitives must stay well under a millisecond.
func (h *fnv) u64(x uint64) {
	h.sum = (h.sum ^ x) * fnvPrime64
}

func (h *fnv) time(t tick.Time) { h.u64(uint64(t)) }

func (h *fnv) rng(r tick.Range) {
	h.time(r.Min)
	h.time(r.Max)
}

func (h *fnv) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.b(s[i])
	}
}
