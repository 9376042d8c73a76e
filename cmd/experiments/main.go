// Command experiments regenerates every table and figure of the paper's
// evaluation and prints paper-vs-measured comparisons.  Its -markdown
// output is the source of EXPERIMENTS.md.
//
//	experiments -all
//	experiments -table 3-1 -chips 6357
//	experiments -claim exponential
package main

import (
	"flag"
	"fmt"
	"os"

	"scaldtv/internal/experiments"
	"scaldtv/internal/stats"
)

func main() {
	table := flag.String("table", "", "regenerate one table: 3-1, 3-2 or 3-3")
	claim := flag.String("claim", "", "regenerate one claim: exponential, pathsearch, skew, cases, parallel")
	all := flag.Bool("all", false, "regenerate everything")
	chips := flag.Int("chips", 6357, "chip count for the scale experiment")
	workers := flag.Int("j", 1, "case-evaluation workers (0 = GOMAXPROCS; the paper's runs are single-threaded)")
	flag.Parse()

	if !*all && *table == "" && *claim == "" {
		fmt.Fprintln(os.Stderr, "usage: experiments -all | -table 3-1|3-2|3-3 | -claim exponential|pathsearch|skew|cases|parallel")
		os.Exit(2)
	}
	switch *claim {
	case "", "exponential", "pathsearch", "skew", "cases", "parallel":
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown claim %q (want exponential, pathsearch, skew, cases or parallel)\n", *claim)
		os.Exit(2)
	}

	var scale *experiments.ScaleResult
	needScale := *all || *table != ""
	if needScale {
		var err error
		scale, err = experiments.RunScale(*chips, *workers)
		if err != nil {
			fail(err)
		}
	}

	if *all || *table == "3-1" {
		fmt.Printf("==== Table 3-1: execution statistics (%d chips, %d stages) ====\n\n",
			scale.Chips, scale.Stages)
		fmt.Print(scale.Table31.String())
		fmt.Println()
		fmt.Println("paper (S-1 Mark I, ≈IBM 370/168): expander 16.52 min, verifier 12.14 min,")
		fmt.Println("20,052 events, 49 ms/primitive, 20 ms/event, single case")
		fmt.Println()
	}
	if *all || *table == "3-2" {
		fmt.Println("==== Table 3-2: primitive census ====")
		fmt.Println()
		fmt.Print(stats.Table32(scale.Report, scale.Chips))
		fmt.Println()
		fmt.Println("paper: 22 types, 8,282 vectored primitives (53,833 unvectorised),")
		fmt.Println("average width 6.5 bits, 1.3 primitives per chip")
		fmt.Println()
	}
	if *all || *table == "3-3" {
		fmt.Println("==== Table 3-3: storage accounting ====")
		fmt.Println()
		fmt.Print(scale.Storage.String())
		fmt.Println()
		fmt.Println("paper: circuit description 37.8%, signal values next (33,152 lists,")
		fmt.Println("2.97 value records and ~56 bytes per signal), names 11.6%,")
		fmt.Println("strings 10.6%, call list 6.9%, misc 0.7%")
		fmt.Println()
	}

	if *all || *claim == "exponential" {
		fmt.Println("==== Claim (§1.4.1/§2.1): exponential savings over exhaustive logic simulation ====")
		fmt.Println()
		pts, err := experiments.RunExponential([]int{4, 6, 8, 10, 12, 14})
		if err != nil {
			fail(err)
		}
		fmt.Printf("  %3s %12s %12s %12s %10s %12s %12s\n",
			"n", "sim-vectors", "sim-events", "sim-time", "tv-events", "tv-time", "worst-delay")
		for _, p := range pts {
			agree := "agree"
			if p.SimWorst != p.TVWorst {
				agree = fmt.Sprintf("MISMATCH %s vs %s", p.SimWorst, p.TVWorst)
			}
			fmt.Printf("  %3d %12d %12d %12v %10d %12v %9s ns (%s)\n",
				p.N, p.SimCycles, p.SimEvents, p.SimTime, p.TVEvents, p.TVTime, p.SimWorst, agree)
		}
		fmt.Println()
		fmt.Println("the simulator's cost doubles per input; the verifier's single symbolic")
		fmt.Println("pass grows only with the gate count, finding the identical worst case")
		fmt.Println()
	}
	if *all || *claim == "pathsearch" {
		fmt.Println("==== Claim (§1.4.2/§4.1): spurious errors from worst-case path search ====")
		fmt.Println()
		r, err := experiments.RunPathSearchClaim()
		if err != nil {
			fail(err)
		}
		fmt.Printf("  path search (GRASP/RAS style):   %s ns max, %d spurious error(s) at 35 ns\n",
			r.PathSearchMax, r.PathSearchFlags)
		fmt.Printf("  verifier, no case analysis:      %s ns (same pessimism)\n", r.TVPessimistic)
		fmt.Printf("  verifier, two designer cases:    %s ns, %d error(s)\n", r.TVCaseDelay, r.TVCaseFlags)
		fmt.Println()
		fmt.Println("paper: the Fig 2-6 delay is 40 ns without case analysis, 30 ns with")
		fmt.Println()
	}
	if *all || *claim == "skew" {
		fmt.Println("==== Figs 2-8/2-9: out-of-band skew preserves pulse widths ====")
		fmt.Println()
		d := experiments.RunSkewDemo()
		fmt.Printf("  10 ns pulse through a 5.0/10.0 ns gate:\n")
		fmt.Printf("    skew carried out of band:  guaranteed width %s ns (paper: unchanged)\n", d.CarriedMin)
		fmt.Printf("    skew incorporated (R/F):   guaranteed %s, maximum %s ns\n", d.IncorporatedMin, d.IncorporatedMax)
		fmt.Println()
	}
	if *all || *claim == "cases" {
		fmt.Println("==== Claim (§3.3.2): incremental case-analysis cost ====")
		fmt.Println()
		r, err := experiments.RunCaseIncrement(510)
		if err != nil {
			fail(err)
		}
		fmt.Printf("  case 1 (full evaluation):    %6d primitive evals, %6d events\n", r.FirstEvals, r.FirstEvents)
		fmt.Printf("  case 2 (incremental):        %6d primitive evals, %6d events\n", r.SecondEvals, r.SecondEvents)
		fmt.Println()
	}
	if *all || *claim == "parallel" {
		j := *workers
		if j <= 1 {
			j = 0 // GOMAXPROCS: the interesting configuration for this claim
		}
		fmt.Println("==== Concurrent case evaluation: wall-clock vs one case chain ====")
		fmt.Println()
		r, err := experiments.RunParallelSpeedup(510, 8, j)
		if err != nil {
			fail(err)
		}
		fmt.Printf("  %d chips, %d cases\n", r.Chips, r.Cases)
		fmt.Printf("  1 worker (one chain):                 %10v wall, %8d prim evals\n", r.SeqWall, r.SeqEvals)
		fmt.Printf("  %d workers (one chain per case range): %10v wall, %8d prim evals\n", r.Workers, r.ParWall, r.ParEvals)
		fmt.Printf("  wall-clock speedup: %.2fx (reports verified identical)\n", r.Speedup())
		fmt.Println()
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
