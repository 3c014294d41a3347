package harness

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// sweepTable runs Base and each variant on every single-core workload
// and eight-core mix, and tabulates each variant's mean weighted speedup
// over Base per workload group: the structure shared by Figures 12-15
// and the ablation.
func (r *Runner) sweepTable(title, note string, variants []sweepVariant) (*stats.Table, error) {
	mixes, groups := r.all, r.groups

	// variantConfig is both the job builder and the lookup key builder:
	// every mutation is fingerprinted by value, so rebuilding the config
	// re-derives the identity.
	variantConfig := func(v sweepVariant, mix workload.Mix) sim.Config {
		cfg := r.baseConfig(v.preset, mix)
		if v.mutate != nil {
			v.mutate(&cfg)
		}
		return cfg
	}
	var jobs []sim.Config
	for _, mix := range mixes {
		jobs = append(jobs, r.baseConfig(sim.Base, mix))
		for _, v := range variants {
			jobs = append(jobs, variantConfig(v, mix))
		}
	}
	res, err := r.runAll(jobs)
	if err != nil {
		return nil, err
	}

	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.name
	}
	t := &stats.Table{Title: title, Header: append([]string{"workload group"}, names...)}
	for _, g := range groups {
		row := []string{g.name}
		for _, v := range variants {
			var vals []float64
			for _, m := range g.mixes {
				base := res.of(r.baseConfig(sim.Base, m))
				run := res.of(variantConfig(v, m))
				vals = append(vals, run.WeightedSpeedupOver(base))
			}
			row = append(row, stats.F(stats.Mean(vals), 3))
		}
		t.AddRow(row...)
	}
	t.AddNote("%s", note)
	return t, nil
}

// sweepVariant is one column of a sweep table: a preset and a mutation
// of its run configuration (nil keeps the preset's defaults).
type sweepVariant struct {
	name   string
	preset sim.Preset
	mutate func(*sim.Config)
}

// figVariant builds a FIGCache-Fast variant with the cache rows of
// fastSubarrays 32-row fast subarrays (the geometry follows them) and a
// mutated FIGCache configuration. A variant equal to the preset's
// defaults is the preset's own run, with no override: a FIG override
// is fingerprinted by value, so an override equal to the defaults
// would simulate the default machine again under a second identity.
func figVariant(name string, fastSubarrays int, mutate func(*core.FIGCacheConfig)) sweepVariant {
	fig := core.DefaultFIGCacheConfig()
	fig.CacheRowsPerBank = fastSubarrays * 32
	if mutate != nil {
		mutate(&fig)
	}
	v := sweepVariant{name: name, preset: sim.FIGCacheFast}
	if fig != core.DefaultFIGCacheConfig() {
		v.mutate = func(c *sim.Config) { c.FIG = &fig }
	}
	return v
}

// Fig12 reproduces Figure 12: performance versus in-DRAM cache capacity
// (1 to 16 fast subarrays), with LL-DRAM as the bound.
func (r *Runner) Fig12() (*stats.Table, error) {
	variants := []sweepVariant{
		figVariant("1 FS", 1, nil),
		figVariant("2 FS", 2, nil),
		figVariant("4 FS", 4, nil),
		figVariant("8 FS", 8, nil),
		figVariant("16 FS", 16, nil),
		{name: "LL-DRAM", preset: sim.LLDRAM},
	}
	return r.sweepTable(
		"Figure 12: weighted speedup over Base vs in-DRAM cache capacity",
		"paper: diminishing returns past 2 fast subarrays (2->4: <2.7%, 4->8: <0.8% for 100%-intensive)",
		variants)
}

// Fig13 reproduces Figure 13: performance versus row segment size
// (512 B to the full 8 kB row), with LISA-VILLA for comparison.
func (r *Runner) Fig13() (*stats.Table, error) {
	variants := []sweepVariant{
		figVariant("512B", 2, func(c *core.FIGCacheConfig) { c.SegmentBlocks = 8 }),
		figVariant("1kB", 2, func(c *core.FIGCacheConfig) { c.SegmentBlocks = 16 }),
		figVariant("2kB", 2, func(c *core.FIGCacheConfig) { c.SegmentBlocks = 32 }),
		figVariant("4kB", 2, func(c *core.FIGCacheConfig) { c.SegmentBlocks = 64 }),
		figVariant("8kB", 2, func(c *core.FIGCacheConfig) { c.SegmentBlocks = 128 }),
		{name: "LISA-VILLA", preset: sim.LISAVilla},
	}
	return r.sweepTable(
		"Figure 13: weighted speedup over Base vs row segment size",
		"paper: performance peaks at 1 kB (1/8 row); full-row segments fall below LISA-VILLA",
		variants)
}

// Fig14 reproduces Figure 14: in-DRAM cache replacement policies.
func (r *Runner) Fig14() (*stats.Table, error) {
	variants := []sweepVariant{
		figVariant("Random", 2, func(c *core.FIGCacheConfig) { c.Replacement = core.ReplRandom }),
		figVariant("LRU", 2, func(c *core.FIGCacheConfig) { c.Replacement = core.ReplLRU }),
		figVariant("SegmentBenefit", 2, func(c *core.FIGCacheConfig) { c.Replacement = core.ReplSegmentBenefit }),
		figVariant("RowBenefit", 2, func(c *core.FIGCacheConfig) { c.Replacement = core.ReplRowBenefit }),
	}
	return r.sweepTable(
		"Figure 14: weighted speedup over Base vs replacement policy",
		"paper: all policies >= +12.5%; RowBenefit best, +4.1% over SegmentBenefit on 100%-intensive",
		variants)
}

// Fig15 reproduces Figure 15: row segment insertion thresholds.
func (r *Runner) Fig15() (*stats.Table, error) {
	variants := []sweepVariant{
		figVariant("Threshold 1", 2, func(c *core.FIGCacheConfig) { c.InsertThreshold = 1 }),
		figVariant("Threshold 2", 2, func(c *core.FIGCacheConfig) { c.InsertThreshold = 2 }),
		figVariant("Threshold 4", 2, func(c *core.FIGCacheConfig) { c.InsertThreshold = 4 }),
		figVariant("Threshold 8", 2, func(c *core.FIGCacheConfig) { c.InsertThreshold = 8 }),
	}
	return r.sweepTable(
		"Figure 15: weighted speedup over Base vs insertion threshold",
		"paper: threshold 1 (insert-any-miss) best for memory-intensive workloads",
		variants)
}
