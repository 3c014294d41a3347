package harness

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// CustomWorkload is one user-supplied workload for the custom experiment:
// any mix the workload package can resolve — benchmarks, mix names, or
// multithreaded applications.
type CustomWorkload struct {
	Mix workload.Mix
	// Shared makes all cores address one window (multithreaded apps).
	Shared bool
}

// ParseCustomWorkloads resolves a list of workload arguments (as figsim's
// -workload flag spells them) into custom-experiment workloads.
func ParseCustomWorkloads(names []string) ([]CustomWorkload, error) {
	var out []CustomWorkload
	for _, name := range names {
		mix, shared, err := workload.FindMix(name)
		if err != nil {
			return nil, err
		}
		out = append(out, CustomWorkload{Mix: mix, Shared: shared})
	}
	return out, nil
}

// Custom runs every evaluated preset over user-supplied workloads and
// tabulates IPC and weighted speedup over Base — the same pipeline (and
// result cache, and fingerprints) that produces the paper's figures,
// pointed at the workloads the user names. Rows keep the order the
// workloads were given in.
func (r *Runner) Custom(workloads []CustomWorkload) (*stats.Table, error) {
	if len(workloads) == 0 {
		return nil, fmt.Errorf("harness: custom experiment needs at least one workload (figbench -workload NAME[,NAME...] custom)")
	}
	cfgOf := func(p sim.Preset, w CustomWorkload) sim.Config {
		cfg := r.baseConfig(p, w.Mix)
		cfg.SharedFootprint = w.Shared
		return cfg
	}
	var jobs []sim.Config
	for _, w := range workloads {
		for _, p := range sim.Presets() {
			jobs = append(jobs, cfgOf(p, w))
		}
	}
	res, err := r.runAll(jobs)
	if err != nil {
		return nil, err
	}

	t := &stats.Table{
		Title:  "Custom workloads: IPC sum (Base) and weighted speedup over Base",
		Header: append([]string{"workload", "cores", "Base IPC"}, presetNames(perfPresets)...),
	}
	for _, w := range workloads {
		base := res.of(cfgOf(sim.Base, w))
		row := []string{w.Mix.Name, fmt.Sprintf("%d", len(w.Mix.Apps)), stats.F(base.IPCSum(), 3)}
		for _, p := range perfPresets {
			row = append(row, stats.F(res.of(cfgOf(p, w)).WeightedSpeedupOver(base), 3))
		}
		t.AddRow(row...)
	}
	t.AddNote("speedups are weighted per core against the Base run of the same workload")
	return t, nil
}
