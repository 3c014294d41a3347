package harness

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Ablations compares FIGCache-Fast's default design with two reversed
// choices: executing each insertion's relocation at miss time instead
// of deferring it to row close (Section 8.1), and relocating over
// RowClone-PSM, which copies across the shared global data bus and
// blocks every bank in the channel, instead of FIGARO (Section 10).
func (r *Runner) Ablations() (*stats.Table, error) {
	return r.sweepTable(
		"Ablation: relocation execution policy (FIGCache-Fast weighted speedup over Base)",
		"deferring relocation to row close preserves queued row hits (Section 8.1); immediate execution steals them",
		[]sweepVariant{
			{name: "deferred (default)", preset: sim.FIGCacheFast},
			{name: "immediate reloc", preset: sim.FIGCacheFast, mutate: func(c *sim.Config) { c.ImmediateReloc = true }},
			{name: "RowClone-PSM", preset: sim.FIGCacheFast, mutate: func(c *sim.Config) {
				fig := core.DefaultFIGCacheConfig()
				fig.Substrate = core.SubstrateRowClonePSM
				c.FIG = &fig
			}},
		})
}
