// Command benchmark is the repository's benchmark: one invocation runs one
// workload once and prints one JSON result line (see README.md and
// ../BENCHMARK.json). It measures every layer from outside, by timing calls
// into public functions and reading public counters.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var o options
	var trace, runs int
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: engine_mix, engine_churn, wire_read or wire_repl")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "seconds measured")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny key spaces and phases (for the tests)")
	flag.StringVar(&o.outDir, "out", os.Getenv("BENCH_OUT"), "directory for result, trace and run-set files")
	flag.IntVar(&runs, "runs", 0, "steadiness kit: run every workload (or --workload) this many times, seeds seed..seed+runs-1, and print medians, quartiles and spreads")
	flag.BoolVar(&compare, "compare", false, "compare two run-set files: -compare a.json b.json")
	flag.Parse()
	o.trace = trace != 0
	o.log = os.Stderr
	if o.outDir == "" {
		o.outDir = "benchmark/out"
	}

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two run-set files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case runs > 0:
		if err := steadiness(os.Stdout, o, runs); err != nil {
			fatal(err)
		}
	default:
		res, err := run(o)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.line())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
