// Command manbench runs the reproduction experiments that no test,
// benchmark or loadgen run already proves (E1, E4, E5, E8 and E9; see
// DESIGN.md and EXPERIMENTS.md) and prints their tables.
//
// Usage:
//
//	manbench                 # run every experiment
//	manbench -exp e4         # run one experiment
//	manbench -quick          # shrunken sweeps
//	manbench -seed 7         # fix the random processes
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	ids := make([]string, 0, len(experiments.All()))
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	choices := strings.Join(ids, ", ") + ", or all"
	exp := flag.String("exp", "all", "experiment to run ("+choices+")")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast run")
	seed := flag.Int64("seed", 42, "seed for all random processes")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := experiments.Options{Quick: *quick, Seed: *seed}
	var selected []experiments.Experiment
	if *exp == "all" {
		selected = experiments.All()
	} else {
		e, ok := experiments.Lookup(strings.ToLower(*exp))
		if !ok {
			fmt.Fprintf(os.Stderr, "manbench: unknown experiment %q (%s)\n", *exp, choices)
			os.Exit(2)
		}
		selected = []experiments.Experiment{e}
	}

	for _, e := range selected {
		fmt.Printf("==== %s — %s ====\n", strings.ToUpper(e.ID), e.Title)
		start := time.Now()
		if err := e.Run(os.Stdout, opts); err != nil {
			fmt.Fprintf(os.Stderr, "manbench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
