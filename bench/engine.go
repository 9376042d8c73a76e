package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"scaldtv/internal/expand"
	"scaldtv/internal/gen"
	"scaldtv/internal/hdl"
	"scaldtv/internal/netlist"
	"scaldtv/internal/report"
	"scaldtv/internal/tape"
	"scaldtv/internal/verify"
)

// Every engine workload runs one case worker: the scaldtvd default and
// the paper's single-threaded Table 3-1 set-up.
var engineOpts = verify.Options{Workers: 1}

// rngFor returns the generator of one input choice, a pure function of
// the seed and the stream, so the same seed gives the same inputs in
// every run whatever the op timings.
func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// compileSource is the front end, parse then macro expansion, with a
// span around each layer.
func compileSource(t *tracer, src string) (*netlist.Design, error) {
	t.begin("hdl.parse")
	f, err := hdl.Parse(src)
	t.end()
	if err != nil {
		return nil, err
	}
	mark := t.allocMark()
	t.begin("expand.expand")
	d, _, err := expand.Expand(f)
	t.end()
	t.allocMB("expand.alloc_mb", mark)
	if err != nil {
		return nil, err
	}
	t.value("expand.prims", float64(len(d.Prims)))
	return d, nil
}

// renderJSON is the report layer.
func renderJSON(t *tracer, res *verify.Result) ([]byte, error) {
	t.begin("report.json")
	out, err := report.JSON(res)
	t.end()
	t.value("report.bytes", float64(len(out)))
	return out, err
}

// recordStats copies the counters a verification reports about itself.
func recordStats(t *tracer, s verify.Stats) {
	t.ms("verify.build_ms", s.BuildTime)
	t.ms("verify.relax_ms", s.VerifyTime)
	t.ms("verify.check_ms", s.CheckTime)
	t.value("verify.events", float64(s.Events))
	t.value("verify.prim_evals", float64(s.PrimEvals))
	if n := s.CacheHits + s.CacheMisses; n > 0 {
		t.value("verify.memo_hit_ratio", float64(s.CacheHits)/float64(n))
	}
}

// ps formats a picosecond count as an HDL time.
func ps(v int) string { return fmt.Sprintf("%d.%03dns", v/1000, v%1000) }

// chips picks the design size: full, or the smoke test's few stages.
func chips(cfg config, full, small int) int {
	if cfg.small {
		return small
	}
	return full
}

// ---- cold_1k ----

// coldBench verifies a new design per op.  Its set-up is one untimed
// warm-up op, whose result it keeps, so that heap_mb holds one verified
// 1003-chip design.
type coldBench struct {
	cfg   config
	chips int
	kept  *verify.Result
}

func prepareCold(cfg config) (bench, error) {
	return &coldBench{cfg: cfg, chips: chips(cfg, 1003, 51)}, nil
}

// shapeConfig is the 2-case Mark IIA design of one of 16 shapes: inject
// 0-3 slow paths, decode depth 2 or 3, feedback on none or 5% of stages.
func shapeConfig(chips, shape int) gen.Config {
	return gen.Config{Chips: chips, Inject: shape % 4, Depth: 2 + shape/4%2, Feedback: 0.05 * float64(shape/8), Cases: 2}
}

// coldInput is one op's design: a Mark IIA configuration, with a
// default-wire delay no other op of the run uses, so no memo, warm slot
// or store could ever serve it.
type coldInput struct {
	src    string
	inject int
}

// makeColdInput draws op id's configuration: each block of 16 ops covers
// the 16 inject × depth × feedback choices once, in a seeded order.
// Independent draws would let the share of the largest designs, and with
// it the p90 latency, wander from run to run.  The warm-up op (id -1),
// whose result the set-up keeps, is the largest shape on every seed, so
// that heap_mb does not vary with the seed.
func makeColdInput(seed, id int64, chips int) coldInput {
	shape := 15
	if id >= 0 {
		shape = rngFor(seed, id/16).Perm(16)[id%16]
	}
	cfg := shapeConfig(chips, shape)
	// id+1 is unique per op (the warm-up op is -1): it picks the minimum
	// wire delay in ps, then shortens the maximum by a ps per thousand ops.
	k := int(id + 1)
	wire := fmt.Sprintf("defaultwire %s %s", ps(k%1000), ps(2000-k/1000%500))
	return coldInput{src: strings.Replace(gen.Source(cfg), "defaultwire 0ns 2ns", wire, 1), inject: cfg.Inject}
}

func (b *coldBench) setup() error {
	in := makeColdInput(b.cfg.Seed, -1, b.chips)
	res, _, err := b.pipeline(newTracer(false, time.Now(), -1), in.src)
	b.kept = res
	return err
}

func (b *coldBench) op(_ int, id int64, c *opCtx) (time.Duration, error) {
	var in coldInput
	c.untimed(func() error { in = makeColdInput(b.cfg.Seed, id, b.chips); return nil })
	var out []byte
	lat, err := c.timed(func() error {
		var err error
		_, out, err = b.pipeline(c.tracer, in.src)
		return err
	})
	if err != nil {
		return lat, err
	}
	return lat, c.untimed(func() error { return checkKnownAnswer(c.received(out), in.inject) })
}

// pipeline is source to report bytes on a fresh design.  Levelization and
// tape compilation run as their own calls so each layer gets a span; the
// verification adopts both from the design's caches.
func (b *coldBench) pipeline(t *tracer, src string) (*verify.Result, []byte, error) {
	d, err := compileSource(t, src)
	if err != nil {
		return nil, nil, err
	}
	t.begin("netlist.levelize")
	d.Levelization()
	t.end()
	t.begin("tape.compile")
	_, err = tape.For(d)
	t.end()
	if err != nil {
		return nil, nil, err
	}
	mark := t.allocMark()
	t.begin("verify.run")
	res, err := verify.Run(d, engineOpts)
	t.end()
	t.allocMB("verify.alloc_mb", mark)
	if err != nil {
		return nil, nil, err
	}
	recordStats(t, res.Stats)
	out, err := renderJSON(t, res)
	return res, out, err
}

// checkKnownAnswer compares a generated design's report with what the
// generator guarantees: each injected slow path misses both the set-up
// and the hold window of its register in every case (its 12-gate chain
// changes for longer than a period), nothing else is violated, and the
// unconnected SPARE IN is the only undefined signal.
func checkKnownAnswer(rep []byte, inject int) error {
	var r struct {
		CaseLabels []string `json:"case_labels"`
		Violations []struct {
			Kind      string `json:"kind"`
			Case      string `json:"case"`
			Primitive string `json:"primitive"`
		} `json:"violations"`
		Undefined []string `json:"undefined_signals"`
	}
	if err := json.Unmarshal(rep, &r); err != nil {
		return fmt.Errorf("report does not decode: %v", err)
	}
	if len(r.CaseLabels) != 2 {
		return fmt.Errorf("report has %d cases, want 2", len(r.CaseLabels))
	}
	var got, want []string
	for _, v := range r.Violations {
		got = append(got, v.Case+"|"+v.Primitive+"|"+v.Kind)
	}
	for _, label := range r.CaseLabels {
		for i := 0; i < inject; i++ {
			for _, kind := range []string{verify.SetupViolation.String(), verify.HoldViolation.String()} {
				want = append(want, fmt.Sprintf("%s|SLOW%d REG/I CHK|%s", label, i, kind))
			}
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		return fmt.Errorf("violations %q, want %q", got, want)
	}
	if len(r.Undefined) != 1 || r.Undefined[0] != "SPARE IN" {
		return fmt.Errorf("undefined signals %q, want [SPARE IN]", r.Undefined)
	}
	return nil
}

// ---- edit_10k ----

// editBench keeps one large design verified and applies one delay edit
// per op, the designer's edit loop at scale.
type editBench struct {
	cfg    config
	chips  int
	base   string
	stages int

	src string           // the current design text, every edit so far applied
	V   *verify.Verifier // verified against src
}

func prepareEdit(cfg config) (bench, error) {
	n := chips(cfg, 10009, 170)
	cfg2 := gen.Config{Chips: n, Cases: 2, Inject: rngFor(cfg.Seed, -2).Intn(4)}
	return &editBench{cfg: cfg, chips: n, base: gen.Source(cfg2), stages: gen.Stages(n)}, nil
}

func (b *editBench) setup() error {
	b.V = nil
	d, err := compileSource(newTracer(false, time.Now(), -1), b.base)
	if err != nil {
		return err
	}
	V := verify.NewVerifier(d, engineOpts)
	if _, err := V.Verify(); err != nil {
		return err
	}
	b.src, b.V = b.base, V
	return nil
}

// weGateEdit rewrites the delay of one stage's write-enable gate.
func weGateEdit(src string, stage, minPS, maxPS int) (string, error) {
	key := fmt.Sprintf("\"S%d WE GATE\" delay=(", stage)
	i := strings.Index(src, key)
	if i < 0 {
		return "", fmt.Errorf("no %s in the source", key)
	}
	i += len(key)
	j := strings.IndexByte(src[i:], ')')
	if j < 0 {
		return "", fmt.Errorf("unterminated delay after %s", key)
	}
	return src[:i] + ps(minPS) + "," + ps(maxPS) + src[i+j:], nil
}

func (b *editBench) op(_ int, id int64, c *opCtx) (time.Duration, error) {
	var src string
	if err := c.untimed(func() error {
		rng := rngFor(b.cfg.Seed, id)
		var err error
		src, err = weGateEdit(b.src, rng.Intn(b.stages), 900+rng.Intn(201), 2700+rng.Intn(401))
		return err
	}); err != nil {
		return 0, err
	}
	var out []byte
	lat, err := c.timed(func() error {
		d, err := compileSource(c.tracer, src)
		if err != nil {
			return err
		}
		mark := c.allocMark()
		c.begin("verify.update")
		res, incremental, err := b.V.Update(d)
		c.end()
		c.allocMB("verify.alloc_mb", mark)
		if err != nil {
			return err
		}
		recordStats(c.tracer, res.Stats)
		c.ms("verify.reverify_ms", res.Stats.ReverifyTime)
		c.value("verify.dirty_prims", float64(res.Stats.DirtyPrims))
		c.value("verify.reused_waves", float64(res.Stats.ReusedWaves))
		c.value("verify.incremental_frac", b2f(incremental))
		out, err = renderJSON(c.tracer, res)
		return err
	})
	if err != nil {
		return lat, err
	}
	b.src = src
	if id%10 != 0 {
		return lat, nil
	}
	return lat, c.untimed(func() error {
		want, err := scratchReport(src, engineOpts)
		if err != nil {
			return err
		}
		if !bytes.Equal(c.received(out), want) {
			return fmt.Errorf("incremental report differs from a scratch verification")
		}
		return nil
	})
}

func (b *editBench) close() { b.V = nil }

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// scratchReport compiles and verifies a source from nothing.
func scratchReport(src string, opts verify.Options) ([]byte, error) {
	d, err := compileSource(newTracer(false, time.Now(), -1), src)
	if err != nil {
		return nil, err
	}
	res, err := verify.Run(d, opts)
	if err != nil {
		return nil, err
	}
	return report.JSON(res)
}

func (b *coldBench) close() { b.kept = nil }

// ---- delay_models ----

// delayBench alternates the two non-worst-case delay models on one
// parametric design.  Each op compiles the source afresh, like a
// scaldtv invocation.
type delayBench struct {
	cfg    config
	src    string
	points []map[string]float64
	// first holds the first op's output per (model, point): every later
	// op of the same kind must reproduce it byte for byte.
	first map[string][]byte
	// checked is the last decade of op ids whose surface was checked
	// against scratch runs.
	checked int64
	kept    *verify.Result
}

// The 16 corners every analytic op sweeps: the declared box's vertices
// and interior points, so the sweep crosses the violation boundary.
var sweepCorners = func() []map[string]float64 {
	var out []map[string]float64
	for _, load := range []float64{0.5, 1.5, 2.5, 3.5} {
		for _, temp := range []float64{0.8, 0.95, 1.1, 1.2} {
			out = append(out, map[string]float64{"load": load, "temp": temp})
		}
	}
	return out
}()

// delaySource is a Mark IIA design plus, per stage, a two-gate path whose
// delays are affine in the parameters load and temp, checked against a
// mid-cycle precision clock.  The paths launch from stable-asserted
// inputs, so every site's slack is arrival-determined over the whole
// box: the regime in which the margin surface is exact.  The slowest
// corners violate set-up, the anchor point does not.
func delaySource(seed int64, chips int) string {
	rng := rngFor(seed, -3)
	src := gen.Source(gen.Config{Chips: chips, Inject: 1, Cases: 2})
	src = strings.Replace(src, "skew clock -5ns 5ns\n",
		"skew clock -5ns 5ns\nparam load = 1.0 range 0.5 3.5\nparam temp = 1.0 range 0.8 1.2\n", 1)
	var sb strings.Builder
	sb.WriteString(src)
	sb.WriteString("\n; ---- parametric paths ----\n")
	for s := 0; s < gen.Stages(chips); s++ {
		fmt.Fprintf(&sb, "and \"S%d PG\" delay=(1.0+%.3f*load, 3.0+%.3f*load+%.3f*temp) (\"PEN .S0-7\", \"S%d PD .S0-7\") -> (\"S%d PA\")\n",
			s, 0.25+0.5*rng.Float64(), 1.5+rng.Float64(), 0.5+rng.Float64(), s, s)
		fmt.Fprintf(&sb, "buf \"S%d PB\" delay=(0.5+%.3f*temp, 2.0+%.3f*temp) (\"S%d PA\") -> (\"S%d PQ\")\n",
			s, 0.1+0.3*rng.Float64(), 0.5+rng.Float64(), s, s)
		fmt.Fprintf(&sb, "setuphold \"S%d PCHK\" setup=4.0 hold=1.0 (\"S%d PQ\", \"PCK .P4-6\")\n", s, s)
	}
	return sb.String()
}

func prepareDelay(cfg config) (bench, error) {
	rng := rngFor(cfg.Seed, -4)
	b := &delayBench{cfg: cfg, src: delaySource(cfg.Seed, chips(cfg, 340, 85)), first: map[string][]byte{}, checked: -1}
	for i := 0; i < 4; i++ {
		b.points = append(b.points, map[string]float64{
			"load": float64(500+rng.Intn(3001)) / 1000,
			"temp": float64(800+rng.Intn(401)) / 1000,
		})
	}
	return b, nil
}

// The set-up compiles the design and runs one analytic verification,
// whose result, margin surface included, it keeps for heap_mb.
func (b *delayBench) setup() error {
	d, err := compileSource(newTracer(false, time.Now(), -1), b.src)
	if err != nil {
		return err
	}
	b.kept, err = verify.Run(d, verify.Options{Workers: 1, Delays: verify.AnalyticDelays{Params: b.points[0]}})
	return err
}

// Ops alternate statistical, analytic.  Each names its kind, so that
// latency_p50_ms is the geometric mean of the two kinds' medians (see
// opLatency).
func (b *delayBench) op(_ int, id int64, c *opCtx) (time.Duration, error) {
	statistical := id%2 == 0
	point := b.points[id/2%int64(len(b.points))]
	c.kind = "statistical"
	key := c.kind
	opts := verify.Options{Workers: 1, Delays: verify.StatisticalDelays{}}
	if !statistical {
		c.kind = "analytic"
		key = fmt.Sprintf("analytic load=%v temp=%v", point["load"], point["temp"])
		opts.Delays = verify.AnalyticDelays{Params: point}
	}
	var (
		d     *netlist.Design
		res   *verify.Result
		out   []byte
		sweep [][]verify.CornerSlack
	)
	lat, err := c.timed(func() error {
		var err error
		if d, err = compileSource(c.tracer, b.src); err != nil {
			return err
		}
		mark := c.allocMark()
		c.begin("verify.run")
		res, err = verify.Run(d, opts)
		run := c.end()
		c.allocMB("verify.alloc_mb", mark)
		if err != nil {
			return err
		}
		recordStats(c.tracer, res.Stats)
		// The delay-model pass runs after relaxation, inside Run: it is
		// what remains of Run after tape compile, set-up and the case
		// phase.
		s := res.Stats
		pass := run - s.TapeCompileTime - s.BuildTime - s.WallTime
		if statistical {
			c.ms("pathsearch.dist_ms", pass)
			c.value("pathsearch.sites", float64(len(res.SiteProbs)))
		} else {
			c.ms("pathsearch.analytic_ms", pass)
			c.value("pathsearch.sites", float64(len(res.MarginSurface.Sites)))
			c.begin("verify.surface_eval")
			for _, corner := range sweepCorners {
				vio, err := res.MarginSurface.Violations(corner)
				if err != nil {
					return err
				}
				sweep = append(sweep, vio)
			}
			c.end()
		}
		out, err = renderJSON(c.tracer, res)
		return err
	})
	if err != nil {
		return lat, err
	}
	return lat, c.untimed(func() error {
		out = fmt.Appendf(c.received(out), "\n%v\n", sweep)
		if want, ok := b.first[key]; !ok {
			b.first[key] = out
		} else if !bytes.Equal(out, want) {
			return fmt.Errorf("%s: output differs from the first op of its kind", key)
		}
		if statistical || id/10 == b.checked {
			return nil
		}
		b.checked = id / 10
		return checkSurface(d, res.MarginSurface, sweepCorners[int(id/10)%len(sweepCorners)])
	})
}

// checkSurface compares the margin surface at a corner with a scratch
// verification pinned there, site by site.
func checkSurface(d *netlist.Design, ms *verify.MarginSurface, corner map[string]float64) error {
	got, err := ms.At(corner)
	if err != nil {
		return err
	}
	res, err := verify.Run(d, verify.Options{Workers: 1, Delays: verify.AnalyticDelays{Params: corner}})
	if err != nil {
		return err
	}
	sites := res.MarginSurface.Sites
	if len(sites) != len(got) {
		return fmt.Errorf("corner %v: surface has %d sites, the pinned run %d", corner, len(got), len(sites))
	}
	for i := range sites {
		if got[i] != sites[i].Slack0 {
			return fmt.Errorf("corner %v: site %s slack %v from the surface, %v from a pinned run", corner, sites[i].Prim, got[i], sites[i].Slack0)
		}
	}
	return nil
}

func (b *delayBench) close() { b.kept = nil }
