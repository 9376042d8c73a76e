package tape

import (
	"math"
	"sort"

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
	// key builder scans: source net, complement rail and pin directive
	// override, in port order, with per-primitive spans.  The columns are
	// sized from the design before they are filled.
	p.ConnSpan = make([][2]int32, len(d.Prims))
	n := 0
	for pi := range d.Prims {
		for _, port := range d.Prims[pi].In {
			n += len(port.Bits)
		}
	}
	p.ConnNet = make([]netlist.NetID, 0, n)
	p.ConnInvert = make([]bool, 0, n)
	p.ConnDirs = make([]assertion.Directives, 0, n)
	for pi := range d.Prims {
		start := int32(len(p.ConnNet))
		for _, port := range d.Prims[pi].In {
			for _, c := range port.Bits {
				p.ConnNet = append(p.ConnNet, c.Net)
				p.ConnInvert = append(p.ConnInvert, c.Invert)
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

// Refresh re-validates the design's numeric parameters and, iff the seed
// signature changed since the current image was built, rebuilds the seed
// image.  The evaluation memo and site cache need no invalidation even
// then: their keys carry every live parameter, so entries from a previous
// environment are simply never hit again.
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
	p.seeds.Store(seeds)
	return nil
}

// buildSeeds renders the §2.9 step-1 seed of every net — the assertion
// waveform (pinned for clocks), the always-stable default for undriven
// unasserted nets, UNKNOWN for driven ones — exactly as the verifier's
// per-run seeding would.  It renders and interns once per distinct
// *Assertion (every bit of a stem shares one) and once each for the S and
// U constants, in net order, so every handle is the one a per-net
// rendering would intern.
func buildSeeds(d *netlist.Design, intern *values.Interner) (*Seeds, error) {
	s := &Seeds{
		Initial:   make([]values.Waveform, len(d.Nets)),
		InitialID: make([]uint64, len(d.Nets)),
		Pinned:    make([]bool, len(d.Nets)),
		sig:       envSig(d),
	}
	type seed struct {
		w      values.Waveform
		id     uint64
		pinned bool
	}
	env := d.Env()
	var stable, unknown *seed
	byAssert := map[*assertion.Assertion]*seed{}
	var lastA *assertion.Assertion
	var last *seed
	undefSeen := map[string]bool{}
	for i := range d.Nets {
		n := &d.Nets[i]
		var sd *seed
		switch {
		case n.Assert != nil:
			// Bits of one stem are mostly consecutive nets.
			if n.Assert != lastA {
				if last = byAssert[n.Assert]; last == nil {
					aw, aerr := n.Assert.Waveform(env)
					if aerr != nil {
						return nil, serr.Newf(serr.Assertion, "verify: net %q: %v", n.Name, aerr)
					}
					last = &seed{pinned: n.Assert.Kind == assertion.Clock || n.Assert.Kind == assertion.PrecisionClock}
					last.w, last.id = intern.Intern(aw)
					byAssert[n.Assert] = last
				}
				lastA = n.Assert
			}
			sd = last
			if n.Driver != netlist.NoDriver {
				s.AssertNets = append(s.AssertNets, netlist.NetID(i))
			}
		case n.Driver == netlist.NoDriver:
			if stable == nil {
				stable = &seed{}
				stable.w, stable.id = intern.Intern(values.Const(d.Period, values.VS))
			}
			sd = stable
			if !undefSeen[n.Base] {
				undefSeen[n.Base] = true
				s.Undefined = append(s.Undefined, n.Base)
			}
		default:
			if unknown == nil {
				unknown = &seed{}
				unknown.w, unknown.id = intern.Intern(values.Const(d.Period, values.VU))
			}
			sd = unknown
		}
		s.Initial[i], s.InitialID[i], s.Pinned[i] = sd.w, sd.id, sd.pinned
	}
	sort.Strings(s.Undefined)
	return s, nil
}

// envSig fingerprints everything buildSeeds reads: the assertion
// environment (period, clock unit and the two skews) and, per net, its
// driver presence, its assertion content and — for an undriven, unasserted
// net — its base name, which the cross-reference lists.  It is the
// generation guard of the seed image.  Primitive parameters and wire
// delays are not seed inputs (the memo and site keys read them live), so
// editing them keeps the image.
func envSig(d *netlist.Design) uint64 {
	h := newFNV()
	h.time(d.Period)
	h.time(d.ClockUnit)
	h.rng(d.PrecisionSkew)
	h.rng(d.ClockSkew)
	for i := range d.Nets {
		n := &d.Nets[i]
		driven := n.Driver != netlist.NoDriver
		h.bit(driven)
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
// nets must stay well under a millisecond.
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
