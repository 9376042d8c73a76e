// Command scaldtv is the SCALD Timing Verifier driver: it reads a design
// in the textual SCALD-like HDL, expands its macros, verifies every timing
// constraint, and prints the error, summary and cross-reference listings.
//
// Usage:
//
//	scaldtv [flags] design.scald
//
//	-lib          make the Chapter-3 component library available
//	-summary      print the Fig 3-10 timing summary listing
//	-xref         print the cross-reference listing of undefined signals
//	-stats        print execution and storage statistics
//	-case n       print the summary for case n (default 0)
//	-explore      discover the minimal case set that discharges U/C-poisoned
//	              constraint sites (automatic case exploration); declared
//	              cases are rediscovered, not required
//	-delays m     delay model: worstcase (default), statistical or
//	              analytic — the statistical model reports a violation
//	              probability per constraint site via deterministic
//	              quadrature; the analytic model evaluates parameterized
//	              delay expressions at a point and reports each site's
//	              margin surface over the declared parameter box
//	-param n=v    bind design parameter n to value v for the analytic
//	              model (repeatable; implies -delays=analytic)
//	-j n          case-evaluation workers (0 = one per CPU, 1 = sequential)
//	-watch        stay running and re-verify on every save; parameter-only
//	              edits reverify just the dirty cone incrementally
//	-store dir    persist converged runs in a content-addressed cache:
//	              already-seen designs answer without running the engine,
//	              edited designs warm-start from the nearest snapshot
//	-cpuprofile f write a CPU profile of the verification to f
//	-memprofile f write an allocation profile (after verification) to f
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"scaldtv"
	"scaldtv/internal/sections"
	"scaldtv/internal/stats"
	"scaldtv/internal/store"
)

// main only converts run's exit code into os.Exit, so the profiling defers
// inside run always flush before the process dies.
func main() {
	os.Exit(run())
}

func run() int {
	lib := flag.Bool("lib", false, "make the component library available")
	summary := flag.Bool("summary", false, "print the timing summary listing")
	xref := flag.Bool("xref", false, "print the cross-reference listing")
	statsFlag := flag.Bool("stats", false, "print execution and storage statistics")
	caseIdx := flag.Int("case", 0, "case index for the timing summary")
	exploreFlag := flag.Bool("explore", false, "discover the minimal case set discharging U/C-poisoned constraint sites")
	delaysFlag := flag.String("delays", "", "delay model: worstcase (default), statistical or analytic")
	params := map[string]float64{}
	flag.Func("param", "bind design parameter name=value for the analytic model (repeatable)", func(s string) error {
		name, val, ok := strings.Cut(s, "=")
		if !ok || name == "" {
			return fmt.Errorf("want name=value, got %q", s)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("parameter %s: %v", name, err)
		}
		params[name] = v
		return nil
	})
	autoCorr := flag.Bool("autocorr", false, "automatically insert CORR delays into register feedback paths (§4.2.3)")
	art := flag.Bool("art", false, "print ASCII timing diagrams")
	artWidth := flag.Int("artwidth", 64, "timing diagram width in columns")
	lintFlag := flag.Bool("lint", false, "run the structural design-rule checks")
	jsonFlag := flag.Bool("json", false, "emit the result as JSON (suppresses the listings)")
	dotFlag := flag.Bool("dot", false, "emit the design as a Graphviz digraph and exit")
	slack := flag.Int("slack", 0, "print the N most critical constraint margins with a cycle-time estimate")
	minPeriod := flag.Bool("minperiod", false, "bisect for the shortest clean clock period (§1.1) and exit")
	sectionsFlag := flag.Bool("sections", false, "verify each file as an independent section and cross-check interface assertions (§2.5.2)")
	workers := flag.Int("j", 0, "case-evaluation workers: 0 = one per CPU, 1 = sequential with incremental cone reuse")
	watchFlag := flag.Bool("watch", false, "re-verify on every save, reusing converged waveforms for parameter-only edits")
	storeDir := flag.String("store", "", "persist converged runs in this content-addressed cache directory")
	storeMax := flag.Int64("store-max", 0, "store size budget in bytes (0 = the 256 MiB default)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile taken after verification to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "scaldtv:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise the retained-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "scaldtv:", err)
			}
		}()
	}
	delays, err := scaldtv.ParseDelayModel(*delaysFlag)
	if err != nil {
		return fail(err)
	}
	if len(params) > 0 {
		if !scaldtv.IsWorstCase(delays) && *delaysFlag != "analytic" {
			return fail(fmt.Errorf("-param requires the analytic delay model, not -delays=%s", *delaysFlag))
		}
		delays = scaldtv.AnalyticDelays{Params: params}
	}
	baseOpts := scaldtv.Options{Workers: *workers, Explore: *exploreFlag, Delays: delays}
	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir, *storeMax); err != nil {
			return fail(err)
		}
	}

	if *sectionsFlag {
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "usage: scaldtv -sections a.scald b.scald ...")
			return 2
		}
		srcs := map[string]string{}
		for _, path := range flag.Args() {
			data, err := os.ReadFile(path)
			if err != nil {
				return fail(err)
			}
			text := string(data)
			if *lib {
				text += "\n" + scaldtv.Library
			}
			srcs[path] = text
		}
		rep, err := sections.Verify(srcs, baseOpts)
		if err != nil {
			return fail(err)
		}
		fmt.Print(rep.String())
		if !rep.Clean() {
			return 1
		}
		return 0
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: scaldtv [flags] design.scald")
		flag.PrintDefaults()
		return 2
	}
	if *watchFlag {
		if err := watch(flag.Arg(0), *lib, baseOpts, st, os.Stdout, 200*time.Millisecond, 0); err != nil {
			return fail(err)
		}
		return 0
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return fail(err)
	}
	text := string(src)
	if *lib {
		text = text + "\n" + scaldtv.Library
	}
	design, rep, err := scaldtv.CompileWithReport(text)
	if err != nil {
		return fail(err)
	}
	if *autoCorr {
		ins, err := scaldtv.AutoCorr(design)
		if err != nil {
			return fail(err)
		}
		for _, in := range ins {
			fmt.Printf("autocorr: inserted %s ns fictitious delay into feedback of %s (via %s)\n",
				in.Delay, in.Storage, in.Via)
		}
	}
	if *dotFlag {
		fmt.Print(scaldtv.DOT(design))
		return 0
	}
	if *minPeriod {
		hi := design.Period * 4
		min, err := scaldtv.MinimumPeriod(text, scaldtv.NS(0.5), hi, scaldtv.NS(0.25))
		if err != nil {
			return fail(err)
		}
		if min == 0 {
			fmt.Printf("no clean period found up to %s ns\n", hi)
			return 1
		}
		fmt.Printf("minimum clean clock period: %s ns (declared: %s ns)\n", min, design.Period)
		return 0
	}
	opts := baseOpts
	opts.KeepWaves = *summary || *art
	opts.Margins = *slack > 0
	var res *scaldtv.Result
	if st != nil && (opts.Explore || !scaldtv.IsWorstCase(opts.Delays)) {
		// Restored snapshots cannot carry the exploration, statistical or
		// margin-surface sections, so these modes always run the engine
		// directly.
		fmt.Fprintln(os.Stderr, "scaldtv: store: bypassed (-explore/-delays run the engine directly)")
		st = nil
	}
	if st != nil {
		// Store-mediated run: an already-seen design answers from its
		// persisted fixed point, an edited one warm-starts from the
		// nearest snapshot.  Reports stay byte-identical to a cold run;
		// provenance goes to stderr so stdout does not change shape.
		oc, err := store.Verify(context.Background(), st, design, text, opts, true)
		if err != nil {
			return fail(err)
		}
		res = oc.Res
		fmt.Fprintf(os.Stderr, "scaldtv: store: %s\n", oc.Provenance)
	} else if res, err = scaldtv.Verify(design, opts); err != nil {
		return fail(err)
	}

	if *jsonFlag {
		out, err := scaldtv.JSONReport(res)
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(out)
		fmt.Println()
		if res.Errors() {
			return 1
		}
		return 0
	}

	if *lintFlag {
		findings := scaldtv.Lint(design)
		fmt.Printf("DESIGN RULE CHECKS: %d finding(s)\n", len(findings))
		for _, f := range findings {
			fmt.Printf("  %s\n", f)
		}
		fmt.Println()
	}

	fmt.Print(scaldtv.Summary(res))
	fmt.Println()
	fmt.Print(scaldtv.ErrorListing(res))
	if *exploreFlag {
		fmt.Println()
		fmt.Print(scaldtv.ExploreListing(res))
	}
	if len(res.SiteProbs) > 0 {
		fmt.Println()
		fmt.Print(scaldtv.StatListing(res))
	}
	if res.MarginSurface != nil {
		fmt.Println()
		fmt.Print(scaldtv.SurfaceListing(res))
	}
	if *xref {
		fmt.Println()
		fmt.Print(scaldtv.CrossReference(res))
	}
	if *summary {
		fmt.Println()
		fmt.Print(scaldtv.TimingSummary(res, *caseIdx))
	}
	if *art {
		fmt.Println()
		fmt.Print(scaldtv.WaveArt(res, *caseIdx, *artWidth))
	}
	if *slack > 0 {
		fmt.Println()
		fmt.Print(scaldtv.SlackListing(res, *slack))
	}
	if *statsFlag {
		fmt.Println()
		var t31 stats.Table31
		t31.FromVerify(res.Stats)
		fmt.Print(t31.String())
		fmt.Println()
		fmt.Print(stats.Table32(rep, 0))
		fmt.Println()
		fmt.Print(rep.SummaryListing())
		fmt.Println()
		fmt.Print(stats.Measure(design, nil).String())
	}
	if res.Errors() {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "scaldtv:", err)
	return 2
}
