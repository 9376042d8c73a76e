// Command scaldpath runs the worst-case path-searching baseline (§1.4.2,
// GRASP/RAS style) over a design in the textual HDL, printing the critical
// paths and — given a -budget — the endpoints that exceed it.  Comparing
// its output with scaldtv on value-dependent circuits (Fig 2-6)
// demonstrates the spurious errors the Timing Verifier eliminates.
package main

import (
	"flag"
	"fmt"
	"os"

	"scaldtv"
	"scaldtv/internal/pathsearch"
	"scaldtv/internal/tick"
)

func main() {
	lib := flag.Bool("lib", false, "make the component library available")
	budget := flag.String("budget", "", "flag endpoints slower than this (e.g. 35ns)")
	statistical := flag.Bool("stat", false, "probability-based analysis (§4.2.4): the quadrature of -delays=statistical, mean and kσ arrivals")
	ksigma := flag.Float64("ksigma", 3, "with -stat: read arrivals at the Φ(k) quantile")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: scaldpath [flags] design.scald")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	text := string(src)
	if *lib {
		text += "\n" + scaldtv.Library
	}
	design, err := scaldtv.Compile(text)
	if err != nil {
		fail(err)
	}
	if *statistical {
		sites, _, err := pathsearch.AnalyzeDist(design, 0)
		if err != nil {
			fail(err)
		}
		fmt.Print(pathsearch.StatString(sites, *ksigma))
		if *budget != "" {
			t, err := tick.Parse(*budget)
			if err != nil {
				fail(err)
			}
			errs := pathsearch.StatErrors(sites, t, *ksigma)
			fmt.Printf("\n%d endpoint(s) exceed the %s budget at %.1fσ\n", len(errs), t, *ksigma)
			if len(errs) > 0 {
				os.Exit(1)
			}
		}
		return
	}
	a, err := pathsearch.Analyze(design)
	if err != nil {
		fail(err)
	}
	fmt.Print(a.String())
	if *budget != "" {
		t, err := tick.Parse(*budget)
		if err != nil {
			fail(err)
		}
		errs := a.Errors(t)
		fmt.Printf("\n%d endpoint(s) exceed the %s budget\n", len(errs), t)
		for _, e := range errs {
			fmt.Printf("  %s → %s: %s/%s ns\n", e.From, e.To, e.Min, e.Max)
		}
		if len(errs) > 0 {
			os.Exit(1)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "scaldpath:", err)
	os.Exit(2)
}
