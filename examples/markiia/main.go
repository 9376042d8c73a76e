// The paper's headline experiment end to end: generate an S-1 Mark IIA
// style design at the 6357-chip scale (§3.3), push it through the full
// read → macro-expand → verify pipeline, and print the Table 3-1, 3-2 and
// 3-3 statistics next to the paper's numbers.
//
//	go run ./examples/markiia [-chips n]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"scaldtv"
	"scaldtv/internal/gen"
	"scaldtv/internal/stats"
)

func main() {
	chips := flag.Int("chips", 6357, "target MSI chip count")
	flag.Parse()

	fmt.Printf("generating a Mark IIA-style design: %d chips (%d pipeline stages)...\n",
		gen.Stages(*chips)*gen.ChipsPerStage(), gen.Stages(*chips))
	src := gen.Source(gen.Config{Chips: *chips})
	fmt.Printf("  %d bytes of HDL source\n\n", len(src))

	t0 := time.Now()
	design, rep, err := scaldtv.CompileWithReport(src)
	if err != nil {
		log.Fatal(err)
	}
	t1 := time.Now()
	res, err := scaldtv.Verify(design, scaldtv.Options{KeepWaves: true})
	if err != nil {
		log.Fatal(err)
	}
	t2 := time.Now()

	// Parse and expansion are fused in CompileWithReport, so Read is 0.
	t31 := stats.Table31{Stats: res.Stats, Pass2: t1.Sub(t0)}
	fmt.Print(t31.String())
	fmt.Println()
	fmt.Print(stats.Table32(rep, gen.Stages(*chips)*gen.ChipsPerStage()))
	fmt.Println()
	fmt.Print(stats.Measure(design, res.Cases[0].Waves).String())
	fmt.Println()
	fmt.Print(scaldtv.ErrorListing(res))
	fmt.Println()
	fmt.Printf("total wall time: %v (the paper's S-1 Mark I took 28.66 minutes)\n", t2.Sub(t0))
	fmt.Println()
	fmt.Println("paper (Table 3-1..3-3): 8,282 primitives (53,833 unvectorised, avg width 6.5),")
	fmt.Println("20,052 events, 33,152 value lists at 2.97 records / ~56 bytes each")
}
