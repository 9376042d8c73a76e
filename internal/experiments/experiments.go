// Package experiments regenerates every table and figure of the paper's
// evaluation: the execution statistics of Table 3-1, the primitive census
// of Table 3-2, the storage accounting of Table 3-3, the figure circuits
// of Chapters 1–4, and the two comparative claims — exponential savings
// over exhaustive logic simulation (§1.4.1/§2.1) and the spurious-error
// failure mode of worst-case path searching (§1.4.2/§4.1).
package experiments

import (
	"fmt"
	"time"

	"scaldtv/internal/expand"
	"scaldtv/internal/gen"
	"scaldtv/internal/hdl"
	"scaldtv/internal/logicsim"
	"scaldtv/internal/netlist"
	"scaldtv/internal/pathsearch"
	"scaldtv/internal/report"
	"scaldtv/internal/stats"
	"scaldtv/internal/tick"
	"scaldtv/internal/values"
	"scaldtv/internal/verify"
)

// ScaleResult is one run of the paper's full-pipeline experiment (Tables
// 3-1, 3-2 and 3-3) on a generated Mark IIA-style design.
type ScaleResult struct {
	Chips  int
	Stages int

	Table31 stats.Table31
	Report  *expand.Report
	Storage stats.Storage

	Violations int
	Undefined  int
}

// RunScale generates, reads, expands and verifies a design of the given
// chip count, timing each phase the way Table 3-1 does.  workers sets the
// case-evaluation worker count (0 = GOMAXPROCS); the paper's Table 3-1 run
// is single-threaded, so pass 1 for a faithful reproduction.
func RunScale(chips, workers int) (*ScaleResult, error) {
	src := gen.Source(gen.Config{Chips: chips})

	t0 := time.Now()
	file, err := hdl.Parse(src)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	design, rep, err := expand.Expand(file)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	res, err := verify.Run(design, verify.Options{KeepWaves: true, Workers: workers})
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	xref := report.CrossReference(res)
	t4 := time.Now()
	_ = report.TimingSummary(res, 0)
	_ = report.ErrorListing(res)
	t5 := time.Now()
	_ = t3

	out := &ScaleResult{
		Chips:  gen.Stages(chips) * gen.ChipsPerStage(),
		Stages: gen.Stages(chips),
		Report: rep,
	}
	// The paper's Pass 1 — the macro table and, here, the census that
	// sizes the netlist — happens inside Expand together with emission;
	// the split is reported as one expansion phase, and Pass1 stays 0.
	out.Table31 = stats.Table31{
		Stats:   res.Stats,
		Read:    t1.Sub(t0),
		Pass2:   t2.Sub(t1),
		XRef:    t4.Sub(t3),
		Listing: t5.Sub(t4),
	}
	out.Storage = stats.Measure(design, res.Cases[len(res.Cases)-1].Waves)
	out.Violations = len(res.Violations)
	out.Undefined = len(res.Undefined)
	_ = xref
	return out, nil
}

// CaseIncrement measures the §3.3.2 claim that an additional case costs
// only the events in its affected cone.
type CaseIncrement struct {
	FirstEvals, SecondEvals   int
	FirstEvents, SecondEvents int
}

// RunCaseIncrement verifies a generated design with two cases over the
// stage control signal.  Workers is pinned to 1 so both cases run in one
// chain: the claim under test is the second case's incremental cone
// reevaluation, which a case that opens a range of its own does not get.
func RunCaseIncrement(chips int) (*CaseIncrement, error) {
	d, _, err := gen.Generate(gen.Config{Chips: chips, Cases: 2})
	if err != nil {
		return nil, err
	}
	res, err := verify.Run(d, verify.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	return &CaseIncrement{
		FirstEvals:   res.Cases[0].PrimEvals,
		SecondEvals:  res.Cases[1].PrimEvals,
		FirstEvents:  res.Cases[0].Events,
		SecondEvents: res.Cases[1].Events,
	}, nil
}

// ParallelSpeedup compares one chain of every case (Workers=1) against
// several workers, each running a contiguous range of cases as one chain,
// on a multi-case generated design.  Every range pays one full first-case
// relaxation and then reevaluates cones incrementally, so the concurrent
// run does somewhat more total work in exchange for wall-clock
// parallelism across cases (Table 3-1 shows cases dominating runtime at
// scale).
type ParallelSpeedup struct {
	Chips   int
	Cases   int
	Workers int

	SeqWall time.Duration // Workers=1 wall-clock of the case phase
	ParWall time.Duration // Workers=N wall-clock of the case phase

	SeqEvals int // total primitive evaluations, one chain
	ParEvals int // total primitive evaluations, one chain per case range
}

// Speedup is the one-chain/concurrent wall-clock ratio (>1 means the
// concurrent case ranges won).
func (p *ParallelSpeedup) Speedup() float64 {
	if p.ParWall == 0 {
		return 0
	}
	return float64(p.SeqWall) / float64(p.ParWall)
}

// RunParallelSpeedup verifies one generated design with Workers=1 and
// Workers=workers and reports both runs' cost.  The reports are
// verified identical before timings are trusted.
func RunParallelSpeedup(chips, cases, workers int) (*ParallelSpeedup, error) {
	d, _, err := gen.Generate(gen.Config{Chips: chips, Cases: cases})
	if err != nil {
		return nil, err
	}
	seq, err := verify.Run(d, verify.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	par, err := verify.Run(d, verify.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	if len(seq.Violations) != len(par.Violations) {
		return nil, fmt.Errorf("experiments: schedules disagree: %d vs %d violations",
			len(seq.Violations), len(par.Violations))
	}
	for i := range seq.Violations {
		if seq.Violations[i].String() != par.Violations[i].String() {
			return nil, fmt.Errorf("experiments: schedules disagree on violation %d: %v vs %v",
				i, seq.Violations[i], par.Violations[i])
		}
	}
	return &ParallelSpeedup{
		Chips:    chips,
		Cases:    len(seq.Cases),
		Workers:  par.Stats.Workers,
		SeqWall:  seq.Stats.WallTime,
		ParWall:  par.Stats.WallTime,
		SeqEvals: seq.Stats.PrimEvals,
		ParEvals: par.Stats.PrimEvals,
	}, nil
}

// ExpPoint is one size point of the exponential-savings experiment.
type ExpPoint struct {
	N int // cone input count

	SimCycles int           // vectors the exhaustive simulation ran
	SimEvents int           // simulator events processed
	SimTime   time.Duration // wall time of the exhaustive sweep
	SimWorst  tick.Time     // worst observed settle time

	TVEvents int           // verifier events in its single symbolic pass
	TVTime   time.Duration // wall time of the pass
	TVWorst  tick.Time     // worst-case delay from the symbolic waveform
}

// expPeriod is the cycle used by the exponential-claim circuits.
const expPeriod = 200 * tick.NS

// buildCone constructs the n-input alternating AND/OR cone, delay 1.0/2.0
// per level, in both representations.
func buildCone(n int) (*netlist.Design, *logicsim.Circuit, []int, int) {
	// Timing-verifier form.
	b := netlist.NewBuilder(fmt.Sprintf("cone-%d", n))
	b.SetPeriod(expPeriod)
	b.SetClockUnit(tick.NS)
	b.SetDefaultWire(tick.Range{})
	ins := make([]netlist.NetID, n)
	for i := range ins {
		ins[i] = b.Net(fmt.Sprintf("IN%d .S5-204", i)) // changing only 4–5 ns
	}
	prev := ins[0]
	for i := 1; i < n; i++ {
		k := netlist.KAnd
		if i%2 == 0 {
			k = netlist.KOr
		}
		o := b.Net(fmt.Sprintf("N%d", i))
		b.Gate(k, fmt.Sprintf("G%d", i), tick.R(1, 2), []netlist.NetID{o},
			netlist.Conns(prev), netlist.Conns(ins[i]))
		prev = o
	}
	d := b.MustBuild()

	// Logic-simulator form.
	var c logicsim.Circuit
	simIns := c.AddNets(n)
	sPrev := simIns[0]
	for i := 1; i < n; i++ {
		k := logicsim.GAnd
		if i%2 == 0 {
			k = logicsim.GOr
		}
		o := c.AddNet()
		c.AddGate(logicsim.Gate{Kind: k, Delay: tick.R(1, 2), In: []int{sPrev, simIns[i]}, Out: o})
		sPrev = o
	}
	return d, &c, simIns, sPrev
}

// RunExponential compares the exhaustive logic-simulation cost against the
// verifier's single symbolic pass for each cone size, checking that both
// find the same worst-case delay.
func RunExponential(sizes []int) ([]ExpPoint, error) {
	var out []ExpPoint
	for _, n := range sizes {
		d, c, simIns, simOut := buildCone(n)

		t0 := time.Now()
		worst, cycles, events := logicsim.ExhaustiveWorstSettle(c, simIns, simOut, expPeriod)
		simTime := time.Since(t0)

		t1 := time.Now()
		res, err := verify.Run(d, verify.Options{KeepWaves: true})
		if err != nil {
			return nil, err
		}
		tvTime := time.Since(t1)
		outNet, ok := d.NetByName(fmt.Sprintf("N%d", n-1))
		if !ok {
			return nil, fmt.Errorf("experiments: cone output net missing")
		}
		w := res.Cases[0].Waves[outNet].IncorporateSkew()
		// The inputs change during 4–5 ns; the output's worst-case delay
		// is how far past 5 ns its changing region extends.
		tvWorst := w.StableBack(100 * tick.NS) // stability extends back to the end of changes
		endOfChange := 100*tick.NS - tvWorst
		out = append(out, ExpPoint{
			N:         n,
			SimCycles: cycles,
			SimEvents: events,
			SimTime:   simTime,
			SimWorst:  worst,
			TVEvents:  res.Stats.Events,
			TVTime:    tvTime,
			TVWorst:   endOfChange - 5*tick.NS,
		})
	}
	return out, nil
}

// PathClaim compares the path-search baseline against the verifier on the
// Fig 2-6 value-dependent circuit.
type PathClaim struct {
	PathSearchMax   tick.Time // the reported (never sensitisable) delay
	PathSearchFlags int       // errors against the 35 ns budget
	TVPessimistic   tick.Time // verifier without case analysis
	TVCaseDelay     tick.Time // verifier with the designer's two cases
	TVCaseFlags     int       // assertion violations remaining with cases
}

const fig26HDL = `
design "FIG 2-6"
period 100ns
clockunit 1ns
defaultwire 0ns 0ns
buf "DELAY A" delay=(10,10) ("INPUT .S5-104") -> (D1)
mux2 "MUX 1" delay=(10,10) ("CONTROL SIGNAL .S0-100", "INPUT .S5-104", D1) -> (M1)
buf "DELAY B" delay=(10,10) (M1) -> (D2)
mux2 "MUX 2" delay=(10,10) ("CONTROL SIGNAL .S0-100", D2, M1) -> ("OUTPUT .S35-104")
`

// RunPathSearchClaim measures the Fig 2-6 comparison.
func RunPathSearchClaim() (*PathClaim, error) {
	parse := func(extra string) (*netlist.Design, error) {
		f, err := hdl.Parse(fig26HDL + extra)
		if err != nil {
			return nil, err
		}
		d, _, err := expand.Expand(f)
		return d, err
	}

	out := &PathClaim{}
	d, err := parse("")
	if err != nil {
		return nil, err
	}
	ps, err := pathsearch.Analyze(d)
	if err != nil {
		return nil, err
	}
	for _, e := range ps.Endpoints {
		if e.From == "INPUT .S5-104" && e.Max > out.PathSearchMax {
			out.PathSearchMax = e.Max
		}
	}
	out.PathSearchFlags = len(ps.Errors(35 * tick.NS))

	measure := func(d *netlist.Design) (tick.Time, int, error) {
		res, err := verify.Run(d, verify.Options{KeepWaves: true})
		if err != nil {
			return 0, 0, err
		}
		id, _ := d.NetByName("OUTPUT .S35-104")
		worst := tick.Time(0)
		for _, cr := range res.Cases {
			w := cr.Waves[id].IncorporateSkew()
			back := w.StableBack(80 * tick.NS)
			end := 80*tick.NS - back
			if delay := end - 5*tick.NS; delay > worst {
				worst = delay
			}
		}
		flags := 0
		for _, v := range res.Violations {
			if v.Kind == verify.AssertionViolation {
				flags++
			}
		}
		return worst, flags, nil
	}

	if out.TVPessimistic, _, err = measure(d); err != nil {
		return nil, err
	}
	d2, err := parse("\ncase \"CONTROL SIGNAL\" = 0\ncase \"CONTROL SIGNAL\" = 1\n")
	if err != nil {
		return nil, err
	}
	if out.TVCaseDelay, out.TVCaseFlags, err = measure(d2); err != nil {
		return nil, err
	}
	return out, nil
}

// SkewDemo reproduces Figs 2-8/2-9: a 10 ns pulse through a 5.0/10.0 ns OR
// gate keeps its full 10 ns guaranteed width while the skew is carried out
// of band, and erodes to 5 ns once incorporated.
type SkewDemo struct {
	CarriedMin, CarriedMax           tick.Time
	IncorporatedMin, IncorporatedMax tick.Time
}

// RunSkewDemo measures the Fig 2-8/2-9 pulse widths.
func RunSkewDemo() SkewDemo {
	in := values.Const(50*tick.NS, values.V0).Paint(10*tick.NS, 20*tick.NS, values.V1)
	out := in.Delay(tick.R(5, 10))
	carried := out.HighPulses()[0]
	inc := out.IncorporateSkew().HighPulses()[0]
	return SkewDemo{
		CarriedMin: carried.MinWidth, CarriedMax: carried.MaxWidth,
		IncorporatedMin: inc.MinWidth, IncorporatedMax: inc.MaxWidth,
	}
}
