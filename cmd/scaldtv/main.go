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
//	-stats        print execution and storage statistics: the Table 3-1
//	              phase times (reading, expansion, the listings printed),
//	              the Table 3-2 census and the expansion summary
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
//	-j n          case-evaluation workers (0 = one per CPU); each worker
//	              runs a contiguous range of cases as one chain
//	-watch        stay running and re-verify on every save; parameter-only
//	              edits reverify just the dirty cone incrementally
//	-store dir    persist the reports of converged runs in a
//	              content-addressed cache: stderr says whether the store
//	              already held the design's report (cached) or the run
//	              added it (cold); every run but -explore, under any
//	              delay model (a run that -autocorr changed skips the
//	              store)
//	-cpuprofile f write a CPU profile of the verification to f
//	-memprofile f write an allocation profile (after verification) to f
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"scaldtv"
	"scaldtv/internal/expand"
	"scaldtv/internal/hdl"
	"scaldtv/internal/sections"
	"scaldtv/internal/stats"
	"scaldtv/internal/store"
	"scaldtv/internal/verify"
)

// main only converts run's exit code into os.Exit, so the profiling defers
// inside run always flush before the process dies.
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams; it returns
// the exit status: 0 clean, 1 violations, 2 usage, compile or verify
// errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scaldtv", flag.ContinueOnError)
	fs.SetOutput(stderr)
	lib := fs.Bool("lib", false, "make the component library available")
	summary := fs.Bool("summary", false, "print the timing summary listing")
	xref := fs.Bool("xref", false, "print the cross-reference listing")
	statsFlag := fs.Bool("stats", false, "print execution and storage statistics")
	caseIdx := fs.Int("case", 0, "case index for the timing summary")
	exploreFlag := fs.Bool("explore", false, "discover the minimal case set discharging U/C-poisoned constraint sites")
	delaysFlag := fs.String("delays", "", "delay model: worstcase (default), statistical or analytic")
	params := map[string]float64{}
	fs.Func("param", "bind design parameter name=value for the analytic model (repeatable)", func(s string) error {
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
	autoCorr := fs.Bool("autocorr", false, "automatically insert CORR delays into register feedback paths (§4.2.3)")
	art := fs.Bool("art", false, "print ASCII timing diagrams")
	artWidth := fs.Int("artwidth", 64, "timing diagram width in columns")
	lintFlag := fs.Bool("lint", false, "run the structural design-rule checks")
	jsonFlag := fs.Bool("json", false, "emit the result as JSON (suppresses the listings)")
	dotFlag := fs.Bool("dot", false, "emit the design as a Graphviz digraph and exit")
	slack := fs.Int("slack", 0, "print the N most critical constraint margins with a cycle-time estimate")
	minPeriod := fs.Bool("minperiod", false, "bisect for the shortest clean clock period (§1.1) and exit")
	sectionsFlag := fs.Bool("sections", false, "verify each file as an independent section and cross-check interface assertions (§2.5.2)")
	workers := fs.Int("j", 0, "case-evaluation workers (0 = one per CPU); each worker runs a contiguous range of cases as one chain with incremental cone reuse")
	watchFlag := fs.Bool("watch", false, "re-verify on every save, reusing converged waveforms for parameter-only edits")
	storeDir := fs.String("store", "", "persist converged runs in this content-addressed cache directory")
	storeMax := fs.Int64("store-max", 0, "store size budget in bytes (0 = the 256 MiB default)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile taken after verification to this file")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "scaldtv:", err)
		return 2
	}

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
				fail(err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise the retained-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}
	delays, err := verify.ResolveDelayModel(*delaysFlag, params)
	if errors.Is(err, verify.ErrParamsNeedAnalytic) {
		err = fmt.Errorf("-param requires the analytic delay model, not -delays=%s", *delaysFlag)
	}
	if err != nil {
		return fail(err)
	}
	baseOpts := scaldtv.Options{Workers: *workers, Explore: *exploreFlag, Delays: delays}
	var st *store.Store
	if *storeDir != "" {
		if st, err = store.Open(*storeDir, *storeMax); err != nil {
			return fail(err)
		}
	}

	if *sectionsFlag {
		if fs.NArg() < 2 {
			fmt.Fprintln(stderr, "usage: scaldtv -sections a.scald b.scald ...")
			return 2
		}
		srcs := map[string]string{}
		for _, path := range fs.Args() {
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
		fmt.Fprint(stdout, rep.String())
		if !rep.Clean() {
			return 1
		}
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: scaldtv [flags] design.scald")
		fs.PrintDefaults()
		return 2
	}
	if *watchFlag {
		if err := watch(fs.Arg(0), *lib, baseOpts, st, stdout, 200*time.Millisecond, 0); err != nil {
			return fail(err)
		}
		return 0
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	text := string(src)
	if *lib {
		text = text + "\n" + scaldtv.Library
	}
	// Table 3-1's expander rows: reading is the parse, and pass 2 the
	// expansion, whose census (pass 1) it holds.
	t0 := time.Now()
	file, err := hdl.Parse(text)
	if err != nil {
		return fail(err)
	}
	t1 := time.Now()
	design, rep, err := expand.Expand(file)
	if err != nil {
		return fail(err)
	}
	t31 := stats.Table31{Read: t1.Sub(t0), Pass2: time.Since(t1)}
	if *autoCorr {
		ins, err := scaldtv.AutoCorr(design)
		if err != nil {
			return fail(err)
		}
		// The notes go to stderr under -json, so stdout stays one JSON
		// document.
		notes := stdout
		if *jsonFlag {
			notes = stderr
		}
		for _, in := range ins {
			fmt.Fprintf(notes, "autocorr: inserted %s ns fictitious delay into feedback of %s (via %s)\n",
				in.Delay, in.Storage, in.Via)
		}
		if len(ins) > 0 && st != nil {
			// The spliced design is no longer what the source text says,
			// and the store keys its entries by that text.
			fmt.Fprintln(stderr, "scaldtv: store: not used (-autocorr changed the design)")
			st = nil
		}
	}
	if *dotFlag {
		fmt.Fprint(stdout, scaldtv.DOT(design))
		return 0
	}
	if *minPeriod {
		hi := design.Period * 4
		min, err := scaldtv.MinimumPeriod(text, scaldtv.NS(0.5), hi, scaldtv.NS(0.25))
		if err != nil {
			return fail(err)
		}
		if min == 0 {
			fmt.Fprintf(stdout, "no clean period found up to %s ns\n", hi)
			return 1
		}
		fmt.Fprintf(stdout, "minimum clean clock period: %s ns (declared: %s ns)\n", min, design.Period)
		return 0
	}
	opts := baseOpts
	opts.KeepWaves = *summary || *art
	opts.Margins = *slack > 0
	// The listings and the exit status read the Result, so a run with a
	// store always runs, and -json prints the stored bytes when the store
	// already held them.  Without a store this is a plain run.  Reports
	// stay byte-identical either way; provenance goes to stderr so stdout
	// does not change shape.
	oc, err := store.Verify(context.Background(), st, design, text, opts, st != nil)
	if err != nil {
		return fail(err)
	}
	if oc.Provenance != "" {
		fmt.Fprintf(stderr, "scaldtv: store: %s\n", oc.Provenance)
	}
	res := oc.Res

	if *jsonFlag {
		out, err := oc.JSON()
		if err != nil {
			return fail(err)
		}
		stdout.Write(out)
		fmt.Fprintln(stdout)
		if res.Errors() {
			return 1
		}
		return 0
	}

	if *lintFlag {
		findings := scaldtv.Lint(design)
		fmt.Fprintf(stdout, "DESIGN RULE CHECKS: %d finding(s)\n", len(findings))
		for _, f := range findings {
			fmt.Fprintf(stdout, "  %s\n", f)
		}
		fmt.Fprintln(stdout)
	}

	start := time.Now()
	listing := scaldtv.Summary(res) + "\n" + scaldtv.ErrorListing(res)
	t31.Listing = time.Since(start)
	fmt.Fprint(stdout, listing)
	if *exploreFlag {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, scaldtv.ExploreListing(res))
	}
	if len(res.SiteProbs) > 0 {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, scaldtv.StatListing(res))
	}
	if res.MarginSurface != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, scaldtv.SurfaceListing(res))
	}
	if *xref {
		start := time.Now()
		listing := scaldtv.CrossReference(res)
		t31.XRef = time.Since(start)
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, listing)
	}
	if *summary {
		start := time.Now()
		listing := scaldtv.TimingSummary(res, *caseIdx)
		t31.Listing += time.Since(start)
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, listing)
	}
	if *art {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, scaldtv.WaveArt(res, *caseIdx, *artWidth))
	}
	if *slack > 0 {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, scaldtv.SlackListing(res, *slack))
	}
	if *statsFlag {
		fmt.Fprintln(stdout)
		t31.Stats = res.Stats
		fmt.Fprint(stdout, t31.String())
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, stats.Table32(rep, 0))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, rep.SummaryListing())
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, stats.Measure(design, nil).String())
	}
	if res.Errors() {
		return 1
	}
	return 0
}
