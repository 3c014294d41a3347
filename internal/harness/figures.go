package harness

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// perfPresets are the configurations plotted in Figures 7 and 8.
var perfPresets = []sim.Preset{
	sim.LISAVilla, sim.FIGCacheSlow, sim.FIGCacheFast, sim.FIGCacheIdeal, sim.LLDRAM,
}

// runMatrix runs every (preset, mix) pair of the given sets, always
// including Base for normalization.
func (r *Runner) runMatrix(presets []sim.Preset, mixes []workload.Mix) (results, error) {
	var jobs []sim.Config
	all := append([]sim.Preset{sim.Base}, presets...)
	for _, mix := range mixes {
		for _, p := range all {
			jobs = append(jobs, r.baseConfig(p, mix))
		}
	}
	return r.runAll(jobs)
}

// Fig7 reproduces Figure 7: single-thread application speedups over Base,
// grouped by memory intensity, for every caching configuration.
func (r *Runner) Fig7() (*stats.Table, error) {
	mixes := r.singles
	res, err := r.runMatrix(perfPresets, mixes)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "Figure 7: single-thread speedup over Base",
		Header: append([]string{"app", "class"}, presetNames(perfPresets)...),
	}
	groupSpeedups := map[string]map[sim.Preset][]float64{
		"intensive": make(map[sim.Preset][]float64), "non-intensive": make(map[sim.Preset][]float64),
	}
	for _, mix := range mixes {
		base := res.of(r.baseConfig(sim.Base, mix))
		class := "non-intensive"
		if mix.Apps[0].MemIntensive() {
			class = "intensive"
		}
		row := []string{mix.Name, class}
		for _, p := range perfPresets {
			sp := stats.Speedup(base.Cores[0].IPC, res.of(r.baseConfig(p, mix)).Cores[0].IPC)
			groupSpeedups[class][p] = append(groupSpeedups[class][p], sp)
			row = append(row, stats.F(sp, 3))
		}
		t.AddRow(row...)
	}
	for _, class := range []string{"non-intensive", "intensive"} {
		row := []string{"geomean", class}
		for _, p := range perfPresets {
			row = append(row, stats.F(stats.GeoMean(groupSpeedups[class][p]), 3))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: memory-intensive FIGCache-Fast avg +16.1%% (up to +22.5%%); non-intensive +1.5%%")
	return t, nil
}

// Fig8 reproduces Figure 8: eight-core weighted speedup over Base per
// memory-intensity category.
func (r *Runner) Fig8() (*stats.Table, error) {
	mixes := r.eights
	res, err := r.runMatrix(perfPresets, mixes)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "Figure 8: eight-core weighted speedup over Base",
		Header: append([]string{"category"}, presetNames(perfPresets)...),
	}
	perCat := make(map[int]map[sim.Preset][]float64)
	var allCats map[sim.Preset][]float64 = make(map[sim.Preset][]float64)
	for _, mix := range mixes {
		base := res.of(r.baseConfig(sim.Base, mix))
		if perCat[mix.IntensivePercent] == nil {
			perCat[mix.IntensivePercent] = make(map[sim.Preset][]float64)
		}
		for _, p := range perfPresets {
			ws := res.of(r.baseConfig(p, mix)).WeightedSpeedupOver(base)
			perCat[mix.IntensivePercent][p] = append(perCat[mix.IntensivePercent][p], ws)
			allCats[p] = append(allCats[p], ws)
		}
	}
	for _, pct := range []int{25, 50, 75, 100} {
		row := []string{fmt.Sprintf("%d%% intensive", pct)}
		for _, p := range perfPresets {
			row = append(row, stats.F(stats.Mean(perCat[pct][p]), 3))
		}
		t.AddRow(row...)
	}
	row := []string{fmt.Sprintf("all %d mixes", len(mixes))}
	for _, p := range perfPresets {
		row = append(row, stats.F(stats.Mean(allCats[p]), 3))
	}
	t.AddRow(row...)
	t.AddNote("paper: FIGCache-Fast avg +16.3%% over Base (3.9/12.9/21.8/27.1%% per category), +4.7%% over LISA-VILLA")
	return t, nil
}

// cachePresets are the configurations of Figures 9 and 10.
var cachePresets = []sim.Preset{sim.LISAVilla, sim.FIGCacheSlow, sim.FIGCacheFast}

// hitRateTable builds Figures 9/10 from a per-result metric.
func (r *Runner) hitRateTable(title, note string, metric func(sim.Result) float64) (*stats.Table, error) {
	mixes, groups := r.all, r.groups
	res, err := r.runMatrix(cachePresets, mixes)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  title,
		Header: append([]string{"workload group"}, presetNames(cachePresets)...),
	}
	for _, g := range groups {
		row := []string{g.name}
		for _, p := range cachePresets {
			var vals []float64
			for _, m := range g.mixes {
				vals = append(vals, metric(res.of(r.baseConfig(p, m))))
			}
			row = append(row, stats.F(stats.Mean(vals)*100, 1)+"%")
		}
		t.AddRow(row...)
	}
	t.AddNote("%s", note)
	return t, nil
}

// Fig9 reproduces Figure 9: in-DRAM cache hit rates.
func (r *Runner) Fig9() (*stats.Table, error) {
	return r.hitRateTable(
		"Figure 9: in-DRAM cache hit rate",
		"paper: FIGCache hit rates comparable to LISA-VILLA despite 8x fewer cache rows",
		func(res sim.Result) float64 { return res.InDRAMCacheHitRate() })
}

// Fig10 reproduces Figure 10: DRAM row-buffer hit rates, including Base.
func (r *Runner) Fig10() (*stats.Table, error) {
	t, err := r.hitRateTable(
		"Figure 10: DRAM row buffer hit rate",
		"paper: FIGCache row-buffer hit rate ~18% above LISA-VILLA's on average",
		func(res sim.Result) float64 { return res.RowBufferHitRate() })
	return t, err
}

// Fig11 reproduces Figure 11: system energy breakdown normalized to Base.
func (r *Runner) Fig11() (*stats.Table, error) {
	energyPresets := []sim.Preset{sim.FIGCacheSlow, sim.FIGCacheFast}
	mixes, groups := r.all, r.groups
	res, err := r.runMatrix(energyPresets, mixes)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "Figure 11: system energy normalized to Base (component shares of Base)",
		Header: []string{"workload group", "config", "CPU", "L1&L2", "LLC", "off-chip", "DRAM", "total"},
	}
	params := energy.DefaultParams()
	for _, g := range groups {
		var baseTotals []float64
		breakdown := func(p sim.Preset, m workload.Mix) energy.Breakdown {
			return energy.Compute(params, res.of(r.baseConfig(p, m)), g.cores, g.channels)
		}
		for _, m := range g.mixes {
			baseTotals = append(baseTotals, breakdown(sim.Base, m).Total())
		}
		for _, p := range []sim.Preset{sim.Base, sim.FIGCacheSlow, sim.FIGCacheFast} {
			var cpu, l12, llc, off, dr, tot []float64
			for i, m := range g.mixes {
				b := breakdown(p, m)
				cpu = append(cpu, b.CPU/baseTotals[i])
				l12 = append(l12, b.L1L2/baseTotals[i])
				llc = append(llc, b.LLC/baseTotals[i])
				off = append(off, b.OffChip/baseTotals[i])
				dr = append(dr, b.DRAM/baseTotals[i])
				tot = append(tot, b.Total()/baseTotals[i])
			}
			t.AddRow(g.name, p.String(),
				stats.F(stats.Mean(cpu)*100, 1)+"%", stats.F(stats.Mean(l12)*100, 1)+"%",
				stats.F(stats.Mean(llc)*100, 1)+"%", stats.F(stats.Mean(off)*100, 1)+"%",
				stats.F(stats.Mean(dr)*100, 1)+"%", stats.F(stats.Mean(tot)*100, 1)+"%")
		}
	}
	t.AddNote("paper: intensive 1-core energy -6.9%% (Slow) and -11.1%% (Fast) vs Base; 8-core avg DRAM energy -7.8%%")
	return t, nil
}

func presetNames(ps []sim.Preset) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}
