// Command scaldpath runs the worst-case path-searching baseline (§1.4.2,
// GRASP/RAS style) over a design in the textual HDL, printing the critical
// paths and — given a -budget — the endpoints that exceed it.  Comparing
// its output with scaldtv on value-dependent circuits (Fig 2-6)
// demonstrates the spurious errors the Timing Verifier eliminates.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"scaldtv"
	"scaldtv/internal/pathsearch"
	"scaldtv/internal/tick"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns
// the exit status: 0 clean, 1 endpoints over the budget, 2 usage or
// design errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scaldpath", flag.ContinueOnError)
	fs.SetOutput(stderr)
	lib := fs.Bool("lib", false, "make the component library available")
	budget := fs.String("budget", "", "flag endpoints slower than this (e.g. 35ns)")
	statistical := fs.Bool("stat", false, "probability-based analysis (§4.2.4): the quadrature of -delays=statistical, mean and kσ arrivals")
	ksigma := fs.Float64("ksigma", 3, "with -stat: read arrivals at the Φ(k) quantile")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: scaldpath [flags] design.scald")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "scaldpath:", err)
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	text := string(src)
	if *lib {
		text += "\n" + scaldtv.Library
	}
	design, err := scaldtv.Compile(text)
	if err != nil {
		return fail(err)
	}
	if *statistical {
		sites, loops, err := pathsearch.AnalyzeDist(design, 0)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, pathsearch.StatString(sites, loops, *ksigma))
		if *budget != "" {
			t, err := tick.Parse(*budget)
			if err != nil {
				return fail(err)
			}
			errs := pathsearch.StatErrors(sites, t, *ksigma)
			fmt.Fprintf(stdout, "\n%d endpoint(s) exceed the %s budget at %.1fσ\n", len(errs), t, *ksigma)
			if len(errs) > 0 {
				return 1
			}
		}
		return 0
	}
	a, err := pathsearch.Analyze(design)
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, a.String())
	if *budget != "" {
		t, err := tick.Parse(*budget)
		if err != nil {
			return fail(err)
		}
		errs := a.Errors(t)
		fmt.Fprintf(stdout, "\n%d endpoint(s) exceed the %s budget\n", len(errs), t)
		for _, e := range errs {
			fmt.Fprintf(stdout, "  %s → %s: %s/%s ns\n", e.From, e.To, e.Min, e.Max)
		}
		if len(errs) > 0 {
			return 1
		}
	}
	return 0
}
