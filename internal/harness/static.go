package harness

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/spice"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table1 renders the simulated system configuration (Table 1).
func (r *Runner) Table1() *stats.Table {
	geo := dram.Default()
	tm := dram.DDR4()
	fast := tm.Fast(dram.PaperFastScale())
	t := &stats.Table{
		Title:  "Table 1: simulated system configuration",
		Header: []string{"component", "configuration"},
	}
	t.AddRow("Processor", "8 cores, 3.2 GHz, 3-wide issue, 256-entry instruction window, 8 MSHRs/core")
	t.AddRow("Caches", "L1 4-way 64 kB, L2 8-way 256 kB, LLC 16-way 2 MB/core, 64 B blocks")
	t.AddRow("Memory controller", "64-entry RD/WR queues, FR-FCFS")
	t.AddRow("DRAM", fmt.Sprintf("DDR4-1600 (%.2f ns clock), 1 rank, %d bank groups x %d banks, %d subarrays/bank",
		tm.ClockNS, geo.BankGroups, geo.BanksPerGroup, geo.SubarraysPerBank))
	t.AddRow("", fmt.Sprintf("%d kB rows, %.0f GB/channel; 1 channel (1-core) / 4 channels (8-core)",
		geo.RowBytes/1024, float64(geo.ChannelBytes())/(1<<30)))
	t.AddRow("Address mapping", "{row, rank, bankgroup, bank, channel, column}")
	t.AddRow("FIGARO", fmt.Sprintf("RELOC granularity 64 B (rank), latency %d ns", tm.RELOC))
	t.AddRow("FIGCache", fmt.Sprintf("segment 1 kB (16 blocks, 1/8 row), 64 cache rows/bank; fast subarray tRCD/tRP/tRAS %d/%d/%d (vs %d/%d/%d)",
		fast.RCD, fast.RP, fast.RAS, tm.RCD, tm.RP, tm.RAS))
	t.AddRow("LISA-VILLA", "512 cache rows/bank, 16 interleaved fast subarrays")
	return t
}

// Table2 runs every single-core application on Base and classifies it by
// LLC MPKI, reproducing Table 2's memory-intensity split.
func (r *Runner) Table2() (*stats.Table, error) {
	mixes := r.singles
	res, err := r.runMatrix(nil, mixes)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "Table 2: benchmark classification by LLC MPKI (measured on Base)",
		Header: []string{"benchmark", "paper class", "measured MPKI", "measured class", "match"},
	}
	matches := 0
	for _, mix := range mixes {
		mpki := res.of(r.baseConfig(sim.Base, mix)).LLCMPKI()
		paperClass := "non-intensive"
		if mix.Apps[0].MemIntensive() {
			paperClass = "intensive"
		}
		measured := "non-intensive"
		if mpki > 10 {
			measured = "intensive"
		}
		match := "yes"
		if measured != paperClass {
			match = "NO"
		} else {
			matches++
		}
		t.AddRow(mix.Name, paperClass, stats.F(mpki, 1), measured, match)
	}
	t.AddNote("paper threshold: 10 LLC misses per kilo-instruction; %d/%d match", matches, len(mixes))
	return t, nil
}

// Fig5 reproduces Figure 5: the RELOC bitline transient and the derived
// timing parameter.
func (r *Runner) Fig5() (*stats.Table, error) {
	p := spice.DefaultRelocParams()
	trace, nominal, err := spice.Transient(p)
	if err != nil {
		return nil, err
	}
	worst, err := spice.MonteCarlo(p, r.scale.MCIterations, 0.05, 1)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "Figure 5: RELOC bitline transient (source holds logic 1)",
		Header: []string{"time (ns)", "src bitline (V)", "dst bitline (V)"},
	}
	step := len(trace) / 12
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(trace); i += step {
		pt := trace[i]
		t.AddRow(stats.F(pt.TimeNS, 3), stats.F(pt.SrcV, 3), stats.F(pt.DstV, 3))
	}
	last := trace[len(trace)-1]
	t.AddRow(stats.F(last.TimeNS, 3), stats.F(last.SrcV, 3), stats.F(last.DstV, 3))
	t.AddNote("nominal settle %.3f ns; Monte-Carlo worst case (%d iters, +/-5%%) %.3f ns",
		nominal, r.scale.MCIterations, worst)
	t.AddNote("guardbanded RELOC latency: %.1f ns (paper: 0.57 ns worst case -> 1 ns with 43%% guardband)",
		spice.GuardbandedLatencyNS(worst))
	return t, nil
}

// Sec42 reproduces the Section 4.2 latency/energy analysis.
func (r *Runner) Sec42() *stats.Table {
	tm := dram.DDR4()
	t := &stats.Table{
		Title:  "Section 4.2: RELOC latency and energy analysis",
		Header: []string{"quantity", "modelled", "paper"},
	}
	standalone := spice.StandaloneRelocNS(tm.NS(int64(tm.RAS)), tm.NS(int64(tm.RCD)), tm.NS(int64(tm.RP)), float64(tm.RELOC))
	t.AddRow("RELOC timing parameter", "1 ns", "1 ns")
	t.AddRow("standalone 1-column relocation (ACT+RELOC+ACT+PRE)",
		stats.F(standalone, 1)+" ns", "63.5 ns")
	t.AddRow("one-block rank-level relocation energy",
		fmt.Sprintf("%.3f uJ", energy.RelocOpJ(energy.DefaultParams())*1e6), "0.03 uJ")
	return t
}

// Sec83 reproduces the Section 8.3 hardware-overhead analysis.
func (r *Runner) Sec83() (*stats.Table, error) {
	p := spice.DefaultOverheadParams()
	geo := dram.Default()
	geo.FastSubarrays = 2
	fig := spice.ComputeFIGAROOverhead(p, geo)
	fts, err := spice.ComputeFTSOverhead(dram.Default(), 64, 16, 5)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "Section 8.3: hardware overhead",
		Header: []string{"item", "modelled", "paper"},
	}
	t.AddRow("FIGARO per-subarray additions (col MUX + row MUX + latch)",
		fmt.Sprintf("%.1f um^2, %.1f uW", fig.PerSubarrayAreaUM2, fig.PerSubarrayPowerUW),
		"58.7 um^2, 29.6 uW")
	t.AddRow("FIGARO chip area overhead", stats.F(fig.ChipAreaPercent, 2)+"%", "<0.3%")
	t.AddRow("FIGCache-Fast fast-subarray area",
		stats.F(spice.CacheAreaOverheadPercent(p, dram.Default(), 2), 2)+"%", "0.7%")
	t.AddRow("LISA-VILLA fast-subarray area",
		stats.F(spice.CacheAreaOverheadPercent(p, dram.Default(), 16), 2)+"%", "5.6%")
	t.AddRow("FTS storage per channel",
		fmt.Sprintf("%.1f kB (%d-bit tag, %d-bit entries, %d entries)",
			fts.TotalKB, fts.TagBits, fts.EntryBits, fts.EntriesPerCh),
		"26.0 kB (19-bit tag, 26-bit entries)")
	return t, nil
}

// Multithreaded runs the three multithreaded applications (Section 8.1's
// 16.8% average improvement claim) on Base and FIGCache-Fast.
func (r *Runner) Multithreaded() (*stats.Table, error) {
	// SharedFootprint is part of the fingerprint, so the multithreaded
	// runs can never collide with same-mix multiprogrammed ones.
	mtConfig := func(p sim.Preset, mix workload.Mix) sim.Config {
		cfg := r.baseConfig(p, mix)
		cfg.SharedFootprint = true
		return cfg
	}
	var jobs []sim.Config
	mixes := workload.MultithreadedWorkloads()
	for _, mix := range mixes {
		for _, p := range []sim.Preset{sim.Base, sim.FIGCacheFast} {
			jobs = append(jobs, mtConfig(p, mix))
		}
	}
	res, err := r.runAll(jobs)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "Multithreaded applications: FIGCache-Fast speedup over Base",
		Header: []string{"application", "speedup"},
	}
	var sps []float64
	for _, mix := range mixes {
		base := res.of(mtConfig(sim.Base, mix))
		fast := res.of(mtConfig(sim.FIGCacheFast, mix))
		sp := fast.WeightedSpeedupOver(base)
		sps = append(sps, sp)
		t.AddRow(mix.Name, stats.F(sp, 3))
	}
	t.AddRow("mean", stats.F(stats.Mean(sps), 3))
	t.AddNote("paper: +16.8%% average over Base")
	return t, nil
}
