// Command cfbench runs the paper-reproduction experiments registered in
// internal/experiments; -list prints the index, one artifact per ID.
//
//	cfbench -list                 # enumerate experiments
//	cfbench -exp E1 -scale 0.2    # run one at 20% scale
//	cfbench -all -scale 1         # the full evaluation (minutes)
package main

import (
	"flag"
	"fmt"
	"os"

	"samplecf/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "cfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		list    = flag.Bool("list", false, "list experiments")
		exp     = flag.String("exp", "", "experiment id to run (e.g. E1)")
		all     = flag.Bool("all", false, "run every experiment")
		scale   = flag.Float64("scale", 0.2, "scale factor: 1.0 = full published parameterization")
		seed    = flag.Uint64("seed", 42, "master seed")
		verbose = flag.Bool("v", false, "per-trial progress")
	)
	flag.Parse()

	cfg := experiments.Config{Scale: *scale, Seed: *seed, Verbose: *verbose}
	switch {
	case *list:
		fmt.Println("ID    Artifact                                  Title")
		fmt.Println("----  ----------------------------------------  -----")
		for _, e := range experiments.All() {
			fmt.Printf("%-4s  %-40s  %s\n", e.ID, e.Artifact, e.Title)
		}
		return nil
	case *all:
		return experiments.RunAll(cfg, os.Stdout)
	case *exp != "":
		e, err := experiments.ByID(*exp)
		if err != nil {
			return err
		}
		return experiments.Run(e, cfg, os.Stdout)
	default:
		flag.Usage()
		return fmt.Errorf("provide -list, -exp ID, or -all")
	}
}
