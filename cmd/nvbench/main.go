// Command nvbench regenerates every table and figure from the evaluation
// section of "Log-Free Concurrent Data Structures" (USENIX ATC 2018) on the
// simulated-NVRAM reproduction.
//
// Usage:
//
//	nvbench [flags] <experiment>...
//	nvbench -dur 1s -threads 8 -maxsize 1048576 fig5 fig8
//	nvbench all
//
// Experiments: table1, fig5, fig6, fig7, fig8, fig9a, fig9b, fig10, fig11.
//
// Absolute numbers depend on the host; the claims under reproduction are
// the relative ones (README §Performance has the latency model behind them).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
)

func main() {
	dur := flag.Duration("dur", 300*time.Millisecond, "measured duration per benchmark point")
	csv := flag.Bool("csv", false, "emit comma-separated values instead of aligned tables")
	threads := flag.Int("threads", 8, "concurrent worker threads (the paper uses 8)")
	maxSize := flag.Int("maxsize", 1<<20, "cap on structure sizes (paper max: 4194304)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention profile (full sampling) to this file")
	blockProfile := flag.String("blockprofile", "", "write a blocking profile (full sampling) to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nvbench [flags] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: table1 fig5 fig6 fig7 fig8 fig9a fig9b fig10 fig11 fig11-tcp all\n")
		fmt.Fprintf(os.Stderr, "ablations:   ablation-area ablation-lc ablation-gen (not part of 'all')\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	o := bench.FigureOptions{Duration: *dur, MaxSize: *maxSize, Threads: *threads}
	type experiment struct {
		name string
		run  func() (*bench.Table, error)
	}
	all := []experiment{
		{"table1", func() (*bench.Table, error) { return bench.Table1(), nil }},
		{"fig5", func() (*bench.Table, error) { return bench.Fig5(o) }},
		{"fig6", func() (*bench.Table, error) { return bench.Fig6(o) }},
		{"fig7", func() (*bench.Table, error) { return bench.Fig7(o) }},
		{"fig8", func() (*bench.Table, error) { return bench.Fig8(o) }},
		{"fig9a", func() (*bench.Table, error) { return bench.Fig9a(o) }},
		{"fig9b", func() (*bench.Table, error) { return bench.Fig9b(o) }},
		{"fig10", func() (*bench.Table, error) { return bench.Fig10(o) }},
		{"fig11", func() (*bench.Table, error) { return bench.Fig11(o) }},
		{"fig11-tcp", func() (*bench.Table, error) { return bench.Fig11TCP(o) }},
		{"ablation-area", func() (*bench.Table, error) { return bench.AblationAreaShift(o) }},
		{"ablation-lc", func() (*bench.Table, error) { return bench.AblationLinkCacheBuckets(o) }},
		{"ablation-gen", func() (*bench.Table, error) { return bench.AblationGenSize(o) }},
	}
	byName := make(map[string]experiment, len(all))
	for _, e := range all {
		byName[e.name] = e
	}
	paperSet := all[:10] // "all" = the paper's tables/figures, not the ablations

	var todo []experiment
	for _, arg := range flag.Args() {
		if arg == "all" {
			todo = paperSet
			break
		}
		e, ok := byName[arg]
		if !ok {
			fmt.Fprintf(os.Stderr, "nvbench: unknown experiment %q\n", arg)
			os.Exit(2)
		}
		todo = append(todo, e)
	}

	// Profile hooks, so the serialization hunt behind the sharded-pool work
	// is reproducible: -mutexprofile/-blockprofile answer "is a lock or a
	// channel the ceiling?", -cpuprofile answers "then what is?".
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "nvbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", *mutexProfile)
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", *blockProfile)
	}

	for _, e := range todo {
		start := time.Now()
		tab, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		if *csv {
			tab.FprintCSV(os.Stdout)
		} else {
			tab.Fprint(os.Stdout)
		}
		fmt.Printf("(%s took %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
}

// writeProfile dumps a named runtime profile (mutex, block) to path.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvbench: %v\n", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "nvbench: write %s profile: %v\n", name, err)
	}
}
