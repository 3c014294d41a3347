// Command tracegen emits synthetic benchmark traces as text ("<bubbles>
// <hex addr> R|W", one record per line) for inspecting the workload
// model, or summarizes them (-stats).
//
// Usage:
//
//	tracegen -bench mcf -n 1000 -seed 1          # text to stdout
//	tracegen -bench mcf -n 100000 -stats         # workload summary
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/workload"
)

func main() {
	flag.Usage = usage
	bench := flag.String("bench", "mcf", "benchmark name from Table 2")
	n := flag.Int("n", 1000, "number of trace records to emit (must be positive)")
	seed := flag.Uint64("seed", 1, "generator seed")
	base := flag.Uint64("base", 0, "address window base")
	stats := flag.Bool("stats", false, "print a summary instead of records")
	flag.Parse()

	if args := flag.Args(); len(args) > 0 {
		fmt.Fprintf(os.Stderr, "tracegen: unexpected argument %q\n", args[0])
		usage()
		os.Exit(2)
	}

	if *n <= 0 {
		fmt.Fprintf(os.Stderr, "tracegen: -n must be positive, got %d\n", *n)
		usage()
		os.Exit(2)
	}
	spec, err := workload.ByName(*bench)
	if err != nil {
		fatal(err)
	}
	gen, err := workload.NewGenerator(spec, *seed, *base, 0)
	if err != nil {
		fatal(err)
	}

	if *stats {
		printStats(spec, gen, *n)
		return
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for i := 0; i < *n; i++ {
		rec := gen.Next()
		kind := "R"
		if rec.IsWrite {
			kind = "W"
		}
		fmt.Fprintf(w, "%d %#x %s\n", rec.Bubbles, rec.Addr, kind)
	}
}

func printStats(spec workload.BenchSpec, gen *workload.Generator, n int) {
	segs := make(map[uint64]int)
	writes, bubbles := 0, 0
	for i := 0; i < n; i++ {
		rec := gen.Next()
		segs[rec.Addr/1024]++
		if rec.IsWrite {
			writes++
		}
		bubbles += rec.Bubbles
	}
	fmt.Printf("benchmark:       %s (intensive=%v)\n", spec.Name, spec.MemIntensive)
	fmt.Printf("records:         %d\n", n)
	fmt.Printf("distinct 1 kB segments: %d\n", len(segs))
	fmt.Printf("write fraction:  %.3f (spec %.2f)\n", float64(writes)/float64(n), spec.WriteFrac)
	fmt.Printf("mean bubbles:    %.1f (spec %d)\n", float64(bubbles)/float64(n), spec.Bubbles)
	max := 0
	for _, c := range segs {
		if c > max {
			max = c
		}
	}
	fmt.Printf("max segment visits: %d\n", max)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tracegen [-bench NAME] [-n N] [-seed S] [-base B] [-stats]")
	flag.PrintDefaults()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
