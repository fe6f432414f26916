// Command ssbench regenerates the tables and figures of the SourceSync
// paper's evaluation (§8) at full size and prints their series as text.
//
// Usage:
//
//	ssbench [flags] <experiment>
//
// `ssbench -list` prints the registered experiments, which "all" runs in
// order; docs/EXPERIMENTS.md documents each one.
//
// The rendering itself lives in internal/experiments, shared with the
// ssserve daemon — this command only translates flags into
// experiments.Params and reports wall-clock timings on stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

var (
	seed     = flag.Int64("seed", 1, "base random seed")
	quick    = flag.Bool("quick", false, "run shrunken workloads (~10x faster)")
	workers  = flag.Int("workers", 0, "worker count: 0 = GOMAXPROCS, 1 = serial (results are identical either way)")
	list     = flag.Bool("list", false, "print the registered experiment names, one per line, and exit (CI loops over this)")
	cells    = flag.String("cells", "1,2,3", "comma-separated cell counts for cellsweep's capacity-vs-cell-count table")
	csRanges = flag.String("cs", "20,30,45", "comma-separated carrier-sense ranges (meters, each > 0 and <= 1000) for cellsweep's capacity-vs-CS-range table")
	window   = flag.Float64("window", 0, "fixed-time-window saturation mode for cell, cellsweep, metro and backlogged -scenario specs: drain unbounded backlogs for this many virtual seconds (0 = drain fixed per-client backlogs, or keep a spec's traffic.window_sec)")
	scenFile = flag.String("scenario", "", "path to a declarative scenario spec (JSON); with no experiment argument, runs the generic \"scenario\" experiment over it")
	cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
	memprof  = flag.String("memprofile", "", "write an allocation profile to this file at exit (go tool pprof)")
)

// params assembles the experiments.Params the flags select and validates
// them, so a bad value exits 2 before any output.
func params() experiments.Params {
	counts, err := parseList(*cells, strconv.Atoi)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -cells %q: %v\n", *cells, err)
		os.Exit(2)
	}
	ranges, err := parseList(*csRanges, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -cs %q: %v\n", *csRanges, err)
		os.Exit(2)
	}
	p := experiments.Params{
		Seed:    *seed,
		Quick:   *quick,
		Workers: *workers,
		Options: experiments.Options{
			Cells:     counts,
			CSRanges:  ranges,
			WindowSec: *window,
		},
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		usage()
		os.Exit(2)
	}
	return p
}

func main() {
	flag.Parse()
	if *list {
		for _, e := range experiments.Names() {
			fmt.Println(e)
		}
		return
	}
	p := params()
	finishProfiles := startProfiles()
	defer finishProfiles()
	if *scenFile != "" {
		data, err := os.ReadFile(*scenFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -scenario: %v\n", err)
			os.Exit(2)
		}
		sp, err := scenario.Parse(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -scenario %s: %v\n", *scenFile, err)
			os.Exit(2)
		}
		p.Scenario = sp
		if flag.NArg() == 0 {
			// A spec alone runs the generic scenario experiment over it.
			start := time.Now() //sslint:allow detwallclock stderr-only timing report; stdout stays byte-identical
			run("scenario", p)
			fmt.Fprintf(os.Stderr, "\ntotal wall clock: %.2fs (%d workers)\n",
				time.Since(start).Seconds(), engine.WorkerCount(*workers)) //sslint:allow detwallclock stderr-only timing report; stdout stays byte-identical
			return
		}
	}
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	start := time.Now() //sslint:allow detwallclock stderr-only timing report; stdout stays byte-identical
	for _, exp := range flag.Args() {
		run(strings.ToLower(exp), p)
	}
	// Timing goes to stderr so stdout stays byte-identical across runs
	// (the tables are diffed to check worker-count determinism).
	fmt.Fprintf(os.Stderr, "\ntotal wall clock: %.2fs (%d workers)\n",
		time.Since(start).Seconds(), engine.WorkerCount(*workers)) //sslint:allow detwallclock stderr-only timing report; stdout stays byte-identical
}

// startProfiles begins whatever profiling -cpuprofile/-memprofile request
// and returns the finalizer that writes the files out. Profiling observes
// the run without perturbing it — no RNG draw or event ordering depends on
// the profiler's sampling — so a profiled run's stdout stays byte-identical
// to an unprofiled one. This is the offline capture path for the netsim hot
// loop (ssserve exposes the same data live via /debug/pprof/).
func startProfiles() func() {
	var cpu *os.File
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			os.Exit(2)
		}
		cpu = f
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if *memprof != "" {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad -memprofile: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			// Settle the heap first so the live-object numbers are not
			// dominated by garbage the next GC would have reclaimed; the
			// allocs profile keeps cumulative allocation sites either way.
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
				os.Exit(2)
			}
		}
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: ssbench [-seed N] [-quick] [-workers N] [-cells N,N,...] [-cs M,M,...] [-window SEC] [-cpuprofile FILE] [-memprofile FILE] <%s|all>\n       ssbench -scenario spec.json\n       ssbench -list\n",
		strings.Join(experiments.Names(), "|"))
}

func run(exp string, p experiments.Params) {
	start := time.Now() //sslint:allow detwallclock per-experiment stderr timing; no simulation state involved
	defer func() {
		fmt.Fprintf(os.Stderr, "[%s: %.2fs wall clock]\n", exp, time.Since(start).Seconds()) //sslint:allow detwallclock per-experiment stderr timing; no simulation state involved
	}()
	if exp == "all" {
		// Expand here rather than passing "all" through, so every
		// experiment gets its own stderr timing line as it always has.
		for _, e := range experiments.Names() {
			run(e, p)
		}
		return
	}
	if err := experiments.Run(os.Stdout, exp, p); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		usage()
		os.Exit(2)
	}
}

// parseList parses a comma-separated flag value one element at a time;
// experiments.Params.Validate judges the values.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
