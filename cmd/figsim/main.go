// Command figsim runs one simulated system configuration on one workload
// and prints its statistics: the quickest way to inspect a single run.
// Workloads are anything the workload package resolves: Table-2
// benchmarks, eight-core mixes, or multithreaded applications.
//
// Usage:
//
//	figsim -preset FIGCache-Fast -workload mcf -insts 400000
//	figsim -preset Base -workload mix-100-0 -insts 200000
//	figsim -list
//
// Checkpoint/restore: -checkpoint-at N pauses the run once N
// instructions have retired (summed across cores) and writes the full
// machine state to -checkpoint-out as an FGSS snapshot, then finishes
// the run. -restore FILE resumes a snapshotted run instead of starting
// from cycle zero; the remaining flags must describe the snapshotted
// configuration exactly (the snapshot header pins the config
// fingerprint and the engine version, and restore refuses a mismatch).
// A restored run prints statistics bit-identical to the uninterrupted
// run — checkpointing is invisible in the results.
//
//	figsim -workload mcf -checkpoint-at 200000 -checkpoint-out mcf.fgss
//	figsim -workload mcf -restore mcf.fgss
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	preset := flag.String("preset", "FIGCache-Fast",
		"configuration: Base, LISA-VILLA, FIGCache-Slow, FIGCache-Fast, FIGCache-Ideal, LL-DRAM")
	wl := flag.String("workload", "mcf",
		"benchmark name (single-core), mix name like mix-100-0 (eight-core), or mt-<app> (multithreaded)")
	insts := flag.Int64("insts", 400_000, "per-core instruction target")
	seed := flag.Uint64("seed", 1, "trace generation seed")
	list := flag.Bool("list", false, "list available presets and workloads, then exit")
	ckptAt := flag.Int64("checkpoint-at", 0,
		"pause after this many retired instructions (total across cores) and write a snapshot (0 = off)")
	ckptOut := flag.String("checkpoint-out", "",
		"snapshot output file for -checkpoint-at")
	restore := flag.String("restore", "",
		"resume from a snapshot file instead of starting fresh (config flags must match the snapshot)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	flag.Parse()

	if *list {
		printCatalog()
		return
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer writeHeapProfile(*memProfile)
	}
	p, err := parsePreset(*preset)
	if err != nil {
		fatal(err)
	}
	mix, shared, err := findWorkload(*wl)
	if err != nil {
		fatal(err)
	}

	cfg := sim.DefaultConfig(p, mix)
	cfg.TargetInsts = *insts
	cfg.Seed = *seed
	cfg.SharedFootprint = shared
	system, err := sim.New(cfg)
	if err != nil {
		fatal(err)
	}
	if *restore != "" {
		if err := restoreSnapshot(system, *restore); err != nil {
			fatal(err)
		}
	}
	if *ckptAt > 0 {
		if *ckptOut == "" {
			fatal(fmt.Errorf("-checkpoint-at needs -checkpoint-out FILE"))
		}
		system.RunUntilRetired(*ckptAt)
		if err := writeSnapshot(system, *ckptOut); err != nil {
			fatal(err)
		}
	}
	res, err := system.Run()
	if err != nil {
		fatal(err)
	}
	printResult(system.Config(), res)
	printLatencyTail(system)
}

// writeHeapProfile snapshots the heap into path after a final GC, so the
// profile reflects live retained memory rather than collectable garbage.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figsim: -memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "figsim: -memprofile:", err)
	}
}

// writeSnapshot checkpoints the system's full state to path.
func writeSnapshot(system *sim.System, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := system.Snapshot(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// restoreSnapshot resumes the system from a snapshot file.
func restoreSnapshot(system *sim.System, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return system.Restore(f)
}

// printLatencyTail reports sampled read-latency percentiles from the
// controllers' bounded latency reservoirs: the mean alone hides the
// queueing/refresh tail. Per-channel reservoirs are merged weighted by
// each channel's read count, so a busy channel dominates the tail the
// way it dominates the traffic.
func printLatencyTail(system *sim.System) {
	ctrls := system.Controllers()
	sets := make([][]int64, len(ctrls))
	streamLens := make([]int64, len(ctrls))
	samples := 0
	for i, c := range ctrls {
		sets[i] = c.LatencySamples()
		streamLens[i] = c.NumReads
		samples += len(sets[i])
	}
	vals := stats.WeightedPercentiles(sets, streamLens, []float64{0.50, 0.90, 0.99})
	if vals == nil {
		return
	}
	tm := ctrls[0].Channel().Slow
	fmt.Printf("           read latency p50/p90/p99: %.1f / %.1f / %.1f ns (from %d sampled reads)\n",
		tm.NS(vals[0]), tm.NS(vals[1]), tm.NS(vals[2]), samples)
}

func parsePreset(name string) (sim.Preset, error) {
	for _, p := range sim.Presets() {
		if strings.EqualFold(p.String(), name) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown preset %q (try -list)", name)
}

// findWorkload resolves the -workload argument; an unknown name gets a
// closest-match suggestion so a typo'd mix name is a one-glance fix.
func findWorkload(name string) (workload.Mix, bool, error) {
	mix, shared, err := workload.FindMix(name)
	if err == nil {
		return mix, shared, nil
	}
	if s := workload.Suggest(name, workload.MixNames()); s != "" {
		return workload.Mix{}, false, fmt.Errorf("unknown workload %q — did you mean %q? (try -list)", name, s)
	}
	return workload.Mix{}, false, fmt.Errorf("%v (try -list)", err)
}

func printCatalog() {
	fmt.Println("presets:")
	for _, p := range sim.Presets() {
		fmt.Printf("  %s\n", p)
	}
	fmt.Println("single-core benchmarks (Table 2):")
	for _, s := range workload.Benchmarks() {
		class := "non-intensive"
		if s.MemIntensive {
			class = "intensive"
		}
		fmt.Printf("  %-12s %s\n", s.Name, class)
	}
	fmt.Println("eight-core mixes:")
	for _, m := range workload.EightCoreMixes() {
		fmt.Printf("  %-12s %d%% intensive\n", m.Name, m.IntensivePercent)
	}
	fmt.Println("multithreaded (prefix with mt-):")
	for _, m := range workload.MultithreadedWorkloads() {
		fmt.Printf("  mt-%s\n", m.Name)
	}
}

func printResult(cfg sim.Config, res sim.Result) {
	fmt.Printf("preset:    %s\n", res.Preset)
	fmt.Printf("workload:  %s (%d cores, %d channels)\n", res.Workload, len(res.Cores), cfg.Channels)
	fmt.Printf("cycles:    %d\n", res.Cycles)
	for _, c := range res.Cores {
		fmt.Printf("  core %-12s IPC %.4f (%d insts)\n", c.App, c.IPC, c.Insts)
	}
	fmt.Printf("IPC sum:   %.4f\n", res.IPCSum())
	fmt.Printf("LLC MPKI:  %.1f\n", res.LLCMPKI())
	fmt.Printf("DRAM:      reads %d, writes %d, avg read latency %.1f ns\n",
		res.MemReads, res.MemWrites, res.AvgReadLatencyNS)
	fmt.Printf("           ACT %d slow + %d fast, PRE %d, REF %d, RELOC %d, RBM hops %d\n",
		res.DRAM.ACT, res.DRAM.ACTFast, res.DRAM.PRE, res.DRAM.REF, res.DRAM.RELOC, res.DRAM.RBMHops)
	fmt.Printf("row buffer hit rate: %.1f%%\n", res.RowBufferHitRate()*100)
	if res.CacheHits+res.CacheMisses > 0 {
		fmt.Printf("in-DRAM cache: hit rate %.1f%%, %d insertions\n",
			res.InDRAMCacheHitRate()*100, res.Inserted)
	}
	b := energy.Compute(energy.DefaultParams(), res, len(res.Cores), cfg.Channels, res.Preset != sim.Base && res.Preset != sim.LLDRAM)
	fmt.Printf("energy:    total %.3f mJ (CPU %.3f, L1&L2 %.3f, LLC %.3f, off-chip %.3f, DRAM %.3f)\n",
		b.Total()*1e3, b.CPU*1e3, b.L1L2*1e3, b.LLC*1e3, b.OffChip*1e3, b.DRAM*1e3)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figsim:", err)
	os.Exit(1)
}
