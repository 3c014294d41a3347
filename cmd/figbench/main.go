// Command figbench regenerates every table and figure of the paper's
// evaluation. Each subcommand prints the rows/series of one artifact;
// "all" runs the complete set.
//
// Usage:
//
//	figbench [-insts N] [-apps N] [-mixes N] [-mc N] [-cache-dir DIR] [-force] <experiment>...
//	figbench all
//	figbench -cache-dir .figcache fig8 fig10
//
// Experiments: table1 table2 fig5 fig7 fig8 fig9 fig10 fig11 fig12 fig13
// fig14 fig15 sec42 sec83 multithreaded ablation custom
//
// The custom experiment runs user-supplied workloads — anything figsim's
// -workload flag accepts, including recorded traces — through the exact
// pipeline that renders the paper's figures:
//
//	figbench -workload trace:mcf.trc,mix-100-0 custom
//
// The instruction budget trades fidelity for runtime; the shipped default
// reproduces the paper's qualitative shapes in minutes on one machine.
//
// With -cache-dir, every computed run is persisted keyed by its
// configuration fingerprint (which folds in the engine version stamp), so
// a rerun only recomputes runs the current binary would produce
// differently; -force recomputes everything and rewrites the store. See
// the "Warm cache" section of the README for the versioning contract.
//
// With -shard K/N the experiment matrix is fanned out across machines:
// each invocation enumerates the full job index of the selected
// experiments, computes only its fingerprint-ordered 1/N slice into
// -cache-dir (no tables are rendered), and writes a shard manifest
// describing the split. Collect the cache directories, merge them with
// figmerge, and rerun figbench unsharded against the merged directory:
// it recomputes nothing and renders tables byte-identical to a
// single-machine run. See ARCHITECTURE.md for the full workflow.
//
// With -worker URL the invocation instead serves a figserve coordinator:
// it adopts the coordinator's scale and experiment set (local scale and
// experiment arguments are rejected to prevent silent drift), computes
// leased slices of the matrix, and uploads the results until the
// coordinator reports the matrix complete. See the "Distributed
// dispatch" section of ARCHITECTURE.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/dispatch"
	"repro/internal/expcache"
	"repro/internal/harness"
	"repro/internal/stats"
)

func main() {
	// Flag defaults derive from harness.DefaultScale, the single source of
	// truth for the full-scale matrix — they cannot drift when the scale
	// moves again.
	def := harness.DefaultScale()
	insts := flag.Int64("insts", def.Insts, "per-core instruction target per run")
	apps := flag.Int("apps", def.SingleApps, "single-core applications to include (max 20)")
	mixes := flag.Int("mixes", def.MixesPerCategory, "eight-core mixes per category (max 5)")
	mc := flag.Int("mc", def.MCIterations, "Monte-Carlo iterations for the circuit model")
	par := flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "persistent result cache directory (empty = in-memory only)")
	force := flag.Bool("force", false, "recompute cached runs and rewrite the persistent cache")
	shard := flag.String("shard", "", "compute only slice K/N of the experiment matrix into -cache-dir (no tables are rendered; merge shards with figmerge)")
	customWl := flag.String("workload", "", "comma-separated workloads for the custom experiment (benchmarks, mixes, mt-<app>, trace:FILE)")
	worker := flag.String("worker", "", "serve a figserve coordinator at this base URL instead of running locally (scale and experiments come from the coordinator)")
	workerID := flag.String("worker-id", "", "worker name in coordinator logs (default: host-pid)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	flag.Parse()

	args := flag.Args()
	if *worker != "" {
		// Worker mode: the coordinator owns the scale and experiment set;
		// local selections would silently disagree with the fleet's matrix,
		// so refuse them rather than ignore them.
		if len(args) != 0 {
			fmt.Fprintf(os.Stderr, "figbench: -worker takes no experiment arguments (the coordinator picks the matrix); got %v\n", args)
			os.Exit(2)
		}
		id := *workerID
		if id == "" {
			host, _ := os.Hostname()
			if host == "" {
				host = "worker"
			}
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		fmt.Printf("figbench: worker %s serving %s\n", id, *worker)
		err := dispatch.RunWorker(*worker, dispatch.WorkerOptions{
			ID:          id,
			Parallelism: *par,
			Logf:        func(format string, a ...any) { fmt.Printf(format+"\n", a...) },
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "figbench: worker: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("figbench: worker done: matrix complete")
		return
	}
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "figbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer writeHeapProfile(*memProfile)
	}
	cache := expcache.New(*cacheDir)
	r := harness.NewRunnerWithCache(harness.Scale{
		Insts: *insts, SingleApps: *apps, MixesPerCategory: *mixes,
		MCIterations: *mc, Parallelism: *par,
	}, cache, *force)

	// The catalog is the harness's canonical experiment list — the same
	// one figserve workers resolve — plus the CLI-only custom experiment,
	// which needs -workload input and so cannot live in the shared set.
	catalog := append(r.Catalog(), harness.Experiment{
		Name: "custom",
		Run: func() (*stats.Table, error) {
			ws, err := harness.ParseCustomWorkloads(splitList(*customWl))
			if err != nil {
				return nil, err
			}
			return r.Custom(ws)
		},
	})

	want := make(map[string]bool)
	for _, a := range args {
		if a == "all" {
			// "all" is the paper's matrix; custom needs -workload input
			// and is only run when named explicitly.
			for _, e := range catalog {
				if e.Name != "custom" {
					want[e.Name] = true
				}
			}
			continue
		}
		found := false
		for _, e := range catalog {
			if e.Name == a {
				want[a] = true
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "figbench: unknown experiment %q\n", a)
			usage()
			os.Exit(2)
		}
	}

	if *customWl != "" && !want["custom"] {
		// -workload only feeds the custom experiment; silently ignoring it
		// would run the stock matrix and never touch the user's workloads.
		fmt.Fprintln(os.Stderr, "figbench: -workload is set but the custom experiment was not selected (name it explicitly: figbench -workload ... custom)")
		os.Exit(2)
	}

	if *shard != "" {
		// Shard mode: enumerate the selected experiments' full job
		// index, compute only this shard's fingerprint-ordered slice
		// into the cache directory, and describe the split in a
		// manifest so figmerge can validate the reassembled matrix. No
		// tables are rendered — that is the job of an unsharded rerun
		// against the merged directory, which recomputes nothing.
		k, n, err := harness.ParseShard(*shard)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figbench:", err)
			os.Exit(2)
		}
		if *cacheDir == "" {
			fmt.Fprintln(os.Stderr, "figbench: -shard requires -cache-dir (the shard's results must land somewhere)")
			os.Exit(2)
		}
		var names []string
		var builders []func() (*stats.Table, error)
		for _, e := range catalog {
			if want[e.Name] {
				names = append(names, e.Name)
				builders = append(builders, e.Run)
			}
		}
		jobs, err := r.EnumerateJobs(builders...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figbench: enumerating jobs: %v\n", err)
			os.Exit(1)
		}
		mine := harness.ShardJobs(jobs, k, n)
		fmt.Printf("shard %d/%d: %d of %d matrix jobs\n", k, n, len(mine), len(jobs))
		if _, err := r.RunJobs(mine); err != nil {
			fmt.Fprintf(os.Stderr, "figbench: %v\n", err)
			os.Exit(1)
		}
		if err := cache.WriteManifest(r.ShardManifest(jobs, k, n, names)); err != nil {
			fmt.Fprintf(os.Stderr, "figbench: %v\n", err)
			os.Exit(1)
		}
	} else {
		for _, e := range catalog {
			if !want[e.Name] {
				continue
			}
			start := time.Now()
			tab, err := e.Run()
			if err != nil {
				fmt.Fprintf(os.Stderr, "figbench: %s: %v\n", e.Name, err)
				os.Exit(1)
			}
			fmt.Println(tab.Render())
			fmt.Printf("(%s completed in %.1fs)\n\n", e.Name, time.Since(start).Seconds())
		}
	}
	if cps := r.SimCyclesPerSecond(); cps > 0 {
		fmt.Printf("simulator throughput: %d cycles in %.1fs of simulation (%.2fM sim-cycles/s)\n",
			r.SimCycles(), r.SimWallSeconds(), cps/1e6)
	}
	st := r.CacheStats()
	fmt.Printf("result cache: hits=%d (mem=%d disk=%d) misses=%d computed=%d systems=%d built+%d reused",
		st.Hits(), st.MemHits, st.DiskHits, st.Misses, st.Stores,
		r.SystemsBuilt(), r.SystemsReused())
	if *cacheDir != "" {
		fmt.Printf(" dir=%s", *cacheDir)
	}
	if *shard != "" {
		fmt.Printf(" shard=%s", *shard)
	}
	if st.DiskError > 0 {
		fmt.Printf(" disk-errors=%d", st.DiskError)
	}
	fmt.Println()
}

// writeHeapProfile snapshots the heap into path after a final GC, so the
// profile reflects live retained memory rather than collectable garbage.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figbench: -memprofile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "figbench: -memprofile: %v\n", err)
	}
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: figbench [flags] <experiment>...
experiments: all table1 table2 fig5 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 sec42 sec83 multithreaded ablation custom
(custom runs the workloads named by -workload, e.g. -workload trace:mcf.trc,mix-100-0 custom)`)
	flag.PrintDefaults()
}
