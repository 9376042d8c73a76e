// Command bench is scaldtv's end-to-end benchmark: HDL source in, report
// bytes out, over four seeded workloads that stress different layers.
//
//	go run . -workload cold_1k -seed 1 -seconds 20 -trace 0
//
// It prints every metric by name and unit, checks every report the
// program produces, and ends with one JSON line:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with a
// no-op span recorder.  With -trace 1 half the ops record spans around
// each layer call, and the metrics are the per-layer ones plus
// trace_overhead_frac, the traced ops' latency over the untraced ops'
// minus one.  -compare a.ndjson b.ndjson compares two sets of runs
// written with -out.  See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// config is one benchmark invocation.
type config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// MinOps keeps a run measuring past Seconds until this many ops
	// completed, so the p90 latency always has ten samples beyond it.
	MinOps int
	// TmpDir holds the service workload's store directory.
	TmpDir string
	// small shrinks every design to a few stages, for the smoke test.
	small bool
	// corrupt flips a byte of every report before its check, for the
	// test that wrong reports are counted as failed.
	corrupt bool
}

// workload is one set of inputs.  prepare builds everything the
// benchmark itself needs (sources, expected reports) outside any timing.
type workload struct {
	name    string
	why     string
	clients int
	// procs is the GOMAXPROCS the workload runs at.  The engine workloads
	// verify on one case worker, so a second processor would only run the
	// garbage collector beside the op; on a 2-CPU host the 2 s window
	// medians of one cold_1k run ranged over 40-54 ms with it, 39-42 ms
	// without.
	procs   int
	prepare func(cfg config) (bench, error)
}

// bench is a prepared workload.  setup builds, or rebuilds, the state
// the ops run against; it is what setup_s times.  op runs one operation
// and returns the latency of its timed part.  A bench with transient
// state, such as open sessions, also has a settle method, run after the
// last op and before the heap is read.
type bench interface {
	setup() error
	op(client int, id int64, c *opCtx) (time.Duration, error)
	close()
}

var workloads = []workload{
	{name: "cold_1k", clients: 1, procs: 1, prepare: prepareCold,
		why: "every op is a 1003-chip design never seen before: parse, expand, levelize, tape compile and verify all run cold"},
	{name: "edit_10k", clients: 1, procs: 1, prepare: prepareEdit,
		why: "one delay edit per op on a retained 10009-chip session: recompile plus incremental Verifier.Update"},
	{name: "service_mix", clients: 2, procs: 2, prepare: prepareService,
		why: "two closed-loop HTTP clients on scaldtvd with a store: cached, warm and cold verifies plus session edits"},
	{name: "delay_models", clients: 1, procs: 1, prepare: prepareDelay,
		why: "340-chip design with parametric delays: analytic verify with a 16-corner sweep, and statistical verify"},
}

// opCtx is handed to each op: its tracer, and the accounting that keeps
// the benchmark's own work out of the measured allocation.
type opCtx struct {
	*tracer
	countAlloc   bool // only one goroutine allocates, so TotalAlloc deltas are exact
	untimedAlloc uint64
	corrupt      bool
	// kind names the op's kind, for a workload that mixes kinds of
	// different cost in fixed shares (see opLatency); "" otherwise.
	kind string
}

// timed runs the op's measured part inside the op's root span and
// returns its wall time.  Spans f leaves open (on an error path) are
// closed with it.
func (c *opCtx) timed(f func() error) (time.Duration, error) {
	start := time.Now()
	c.begin("op")
	err := f()
	for c.on && len(c.stack) > 0 {
		c.end()
	}
	return time.Since(start), err
}

// untimed runs benchmark-own work inside an op, such as making the
// op's input or checking its report, and keeps its allocation out of
// alloc_mb_per_op.
func (c *opCtx) untimed(f func() error) error {
	if !c.countAlloc {
		return f()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	err := f()
	runtime.ReadMemStats(&m)
	c.untimedAlloc += m.TotalAlloc - before
	return err
}

// received is where an op's report passes from the program to the
// benchmark's check.  With cfg.corrupt it flips one byte, at a place that
// depends on the op, so that no two corrupted reports agree.
func (c *opCtx) received(out []byte) []byte {
	if !c.corrupt || len(out) == 0 {
		return out
	}
	out = append([]byte(nil), out...)
	out[int(c.op)%len(out)] ^= 1
	return out
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type sample struct {
	lat    time.Duration
	kind   string
	traced bool
	failed bool
}

// opLatency is the latency statistic latency_p50_ms reports: the
// geometric mean, over the op kinds of the samples, of each kind's median
// latency.  On a workload of one kind it is the median.  On delay_models,
// whose two kinds alternate and differ in cost by about 3x, the median of
// all ops would fall in the gap between the two modes and jump with one
// op more of either kind.  The geometric mean of the two medians is
// steady, and a slowdown by a factor f of either kind, cheap or costly,
// moves it by the same factor √f.
func opLatency(samples []sample) float64 {
	byKind := map[string][]float64{}
	for _, s := range samples {
		byKind[s.kind] = append(byKind[s.kind], msOf(s.lat))
	}
	var logSum float64
	for _, lats := range byKind {
		logSum += math.Log(median(lats))
	}
	return math.Exp(logSum / float64(len(byKind)))
}

// segments is how many parts a run has, each opened by a set-up; setup_s
// is the median of their set-ups.  The set-ups are spread over the run so
// that a slow spell of the host moves only some of them.
const segments = 9

// runWorkload prepares the workload and runs it in segments, each a
// set-up followed by ops, until both cfg.Seconds and cfg.MinOps are
// reached over all segments; then it computes the metrics.  Human-readable
// lines go to out; the recorder holds the traced ops.
func runWorkload(w workload, cfg config, out func(string)) (result, *recorder, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	b, err := w.prepare(cfg)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	defer b.close()

	rec := &recorder{}
	epoch := time.Now()
	samples := make([][]sample, w.clients)
	ctxs := make([]*opCtx, w.clients)
	for c := range ctxs {
		ctxs[c] = &opCtx{countAlloc: w.clients == 1, corrupt: cfg.corrupt}
	}
	var (
		next     atomic.Int64
		logMu    sync.Mutex
		setups   []float64
		wall     time.Duration // time spent in the ops, summed over segments
		alloc    uint64
		gcs      uint32
		gcPauses uint64
	)
	for seg := 1; seg <= segments; seg++ {
		runtime.GC()
		start := time.Now()
		if err := b.setup(); err != nil {
			return result{}, nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())

		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		segStart := time.Now()
		// The segment ends once the run as a whole has its share of the
		// time and of the ops.
		segOps := int64(cfg.MinOps * seg / segments)
		segEnd := time.Duration(cfg.Seconds*float64(time.Second)*float64(seg)/float64(segments)) - wall
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				ctx := ctxs[c]
				for next.Load() < segOps || time.Since(segStart) < segEnd {
					id := next.Add(1) - 1
					// Half the ops are traced, in pairs, so that both
					// kinds of an alternating workload are.
					traced := cfg.Trace && id%4 < 2
					ctx.tracer = newTracer(traced, epoch, id)
					ctx.kind = ""
					lat, err := b.op(c, id, ctx)
					if err != nil {
						logMu.Lock()
						fmt.Fprintf(os.Stderr, "%s: op %d failed: %v\n", w.name, id, err)
						logMu.Unlock()
					}
					rec.add(ctx.tracer)
					samples[c] = append(samples[c], sample{lat: lat, kind: ctx.kind, traced: traced, failed: err != nil})
				}
			}(c)
		}
		wg.Wait()
		wall += time.Since(segStart)
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		gcs += m1.NumGC - m0.NumGC
		gcPauses += m1.PauseTotalNs - m0.PauseTotalNs
	}
	if s, ok := b.(interface{ settle() error }); ok {
		if err := s.settle(); err != nil {
			return result{}, nil, fmt.Errorf("%s: settle: %w", w.name, err)
		}
	}
	// The second collection empties the sync.Pool victim caches, which
	// the first only demotes: heap_mb reads what the workload keeps.
	runtime.GC()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(b)

	var all []float64
	var merged, traced, untraced []sample
	var busy time.Duration
	var untimedAlloc uint64
	failed := 0
	for c := range samples {
		untimedAlloc += ctxs[c].untimedAlloc
		for _, s := range samples[c] {
			all = append(all, msOf(s.lat))
			merged = append(merged, s)
			busy += s.lat
			if s.traced {
				traced = append(traced, s)
			} else {
				untraced = append(untraced, s)
			}
			if s.failed {
				failed++
			}
		}
	}
	ops := len(all)
	if ops == 0 {
		return result{}, nil, fmt.Errorf("%s: no op completed", w.name)
	}
	res := result{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: map[string]metricValue{}}
	if cfg.Trace {
		vals := rec.layerMetrics()
		vals["go.gc_cycles_per_op"] = float64(gcs) / float64(ops)
		vals["go.gc_pause_ms"] = float64(gcPauses) / 1e6 / float64(ops)
		if len(traced) > 0 && len(untraced) > 0 {
			vals["trace_overhead_frac"] = opLatency(traced)/opLatency(untraced) - 1
		}
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
		}
	} else {
		vals := map[string]float64{
			"latency_p50_ms":  opLatency(merged),
			"alloc_mb_per_op": float64(alloc-untimedAlloc) / 1e6 / float64(ops),
			"heap_mb":         float64(m2.HeapAlloc) / 1e6,
			"setup_s":         median(setups),
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
		}
	}

	out(fmt.Sprintf("workload %s  seed %d  trace %v: %d ops, %d failed (ops_failed_frac %.4f ratio), %.1f s measured",
		w.name, cfg.Seed, cfg.Trace, ops, failed, float64(failed)/float64(ops), wall.Seconds()))
	// The p90 and the throughput are printed, not gated: on a shared host
	// their run-to-run spread is wider than any bound BENCHMARK.json may
	// set (README.md).
	out(fmt.Sprintf("  %-28s %14.4f ms (of %d ops; not gated)", "latency_p90_ms", quantile(all, 0.9), ops))
	out(fmt.Sprintf("  %-28s %14.4f ops/s (%d-client closed loop; not gated)", "throughput_ops_s",
		float64(ops)/(busy.Seconds()/float64(w.clients)), w.clients))
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		out(fmt.Sprintf("  %-28s %14.4f %s", name, v.Value, v.Unit))
	}
	if cfg.Trace {
		for _, l := range rec.selfTable() {
			out(l)
		}
	}
	return res, rec, nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// record is one run as -out appends it, the input of -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

const (
	// runSeconds is how long a run measures by default, the run_seconds
	// of BENCHMARK.json.
	runSeconds = 20
	// minOps keeps a run measuring until the p90 latency has ten samples
	// beyond it.
	minOps = 100
)

// spec is BENCHMARK.json: how to run the benchmark and what it reports.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []metric       `json:"end_to_end"`
	PerLayer   []metric       `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkJSON renders BENCHMARK.json from the workload and metric tables.
func benchmarkJSON() ([]byte, error) {
	s := spec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{Name: w.name, Why: w.why})
	}
	out, err := json.MarshalIndent(s, "", "  ")
	return append(out, '\n'), err
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name    = flag.String("workload", "all", "workload to run: cold_1k, edit_10k, service_mix, delay_models or all")
		seed    = flag.Int64("seed", 1, "input seed; 1 is the baseline seed, 2 is held out for claims")
		seconds = flag.Float64("seconds", runSeconds, "how long each workload measures, at least; a run also lasts until 100 ops completed")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		spans   = flag.String("spans", "", "with -trace 1, write every span to this ndjson file")
		outPath = flag.String("out", "", "append each run's result to this ndjson file, for -compare")
		tmp     = flag.String("tmp", "", "directory for the service workload's store (default: the system temp dir)")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments")
		specOut = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *specOut {
		out, err := benchmarkJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(out)
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return err
		}
		if !ok {
			return errors.New("the two sets of runs do not agree within the bounds")
		}
		return nil
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, MinOps: minOps, TmpDir: *tmp}
	var run []workload
	if *name == "all" {
		run = workloads
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		run = []workload{w}
	}
	var spanFile *os.File
	if *spans != "" && cfg.Trace {
		f, err := os.Create(*spans)
		if err != nil {
			return err
		}
		defer f.Close()
		spanFile = f
	}
	allCorrect := true
	for _, w := range run {
		res, rec, err := runWorkload(w, cfg, func(s string) { fmt.Println(s) })
		if err != nil {
			return err
		}
		if spanFile != nil {
			if err := rec.writeSpans(spanFile, w.name); err != nil {
				return fmt.Errorf("writing spans: %w", err)
			}
		}
		if *outPath != "" {
			if err := appendRecord(*outPath, record{Workload: w.name, Seed: cfg.Seed, Trace: cfg.Trace, Result: res}); err != nil {
				return fmt.Errorf("writing %s: %w", *outPath, err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		allCorrect = allCorrect && res.Correct
	}
	if spanFile != nil {
		if err := spanFile.Close(); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if !allCorrect {
		return errors.New("some operations failed or produced a wrong report")
	}
	return nil
}
