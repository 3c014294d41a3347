package harness

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestSweepFingerprintsGolden pins the fingerprint of one job of each
// sweep that overrides the FIGCache-Fast defaults, as the sweep builders
// enumerate it: the one-core job of Fig. 12's 16-fast-subarray column,
// Fig. 13's 8 kB segments, Fig. 14's Random policy, Fig. 15's threshold
// 8, and the ablation's immediate-relocation and RowClone-PSM columns.
// These hashes are the on-disk identities of the cached sweep results,
// so a change to how a sweep builds its configuration, or to how
// sim.Config fingerprints an override, fails here unless it comes with
// a sim.EngineVersion bump (and then these constants are re-pinned).
func TestSweepFingerprintsGolden(t *testing.T) {
	r := NewRunner(Scale{Insts: 60_000, SingleApps: 1, MixesPerCategory: 1})
	golden := []struct {
		name  string
		build func() (*stats.Table, error)
		pick  func(sim.Config) bool
		want  string
	}{
		{"fig12/16 FS", r.Fig12, func(c sim.Config) bool { return c.FIG != nil && c.FIG.CacheRowsPerBank == 512 },
			"b1e309868943e00c629b2cd50c436e38db047b4ccede51f0ff0d164f469ced65"},
		{"fig13/8kB", r.Fig13, func(c sim.Config) bool { return c.FIG != nil && c.FIG.SegmentBlocks == 128 },
			"f93924804e367dea6f8563940ffa7d4c88785ec366958b3fffdaeed1834a49fc"},
		{"fig14/Random", r.Fig14, func(c sim.Config) bool { return c.FIG != nil && c.FIG.Replacement == core.ReplRandom },
			"762ff76873eaf1d05a0b888fe0715127b49d05e47e532767da1c9776b0ee8667"},
		{"fig15/Threshold 8", r.Fig15, func(c sim.Config) bool { return c.FIG != nil && c.FIG.InsertThreshold == 8 },
			"f0cb815cc3a81676285b20d808d7c4bb0caf65d730a4fc5effdf8843c0b40487"},
		{"ablation/immediate reloc", r.Ablations, func(c sim.Config) bool { return c.ImmediateReloc },
			"4a7a6344bcfabdafaa77aaec9e6f620074c144b86fdb03876fa9926d3c03ed00"},
		{"ablation/RowClone-PSM", r.Ablations, func(c sim.Config) bool {
			return c.FIG != nil && c.FIG.Substrate == core.SubstrateRowClonePSM
		}, "31047d7cdd9a72f3421771530482233b871e9a1311aed29f6f2383585ac85515"},
	}
	for _, g := range golden {
		jobs, fps, err := r.EnumerateJobs(g.build)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for i, cfg := range jobs {
			if len(cfg.Mix.Apps) == 1 && g.pick(cfg) {
				got = append(got, fps[i].String())
			}
		}
		if len(got) != 1 || got[0] != g.want {
			t.Errorf("%s: one-core job fingerprints %v, want [%s]\n(cached sweep results are orphaned; see comment above)", g.name, got, g.want)
		}
	}
}

// TestOneIdentityPerRun enumerates the whole catalog at quick and at
// default scale and checks that each machine it simulates has one
// identity: no job carries a FIG override equal to the FIGCache-Fast
// defaults, and the default column of each sensitivity sweep (Fig. 12's
// "2 FS", Fig. 13's "1kB", Fig. 14's "RowBenefit", Fig. 15's "Threshold
// 1") is the FIGCache-Fast run Figures 7-11 make. It pins the distinct
// job counts: 80 for fig7-fig10 and fig12 at quick scale (figperf's
// matrix-quick) and 886 for the whole catalog at default scale.
func TestOneIdentityPerRun(t *testing.T) {
	for _, tc := range []struct {
		name        string
		scale       Scale
		experiments []string
		want        int
	}{
		{"quick", QuickScale(), []string{"fig7", "fig8", "fig9", "fig10", "fig12"}, 80},
		{"default", DefaultScale(), nil, 886},
	} {
		r := NewRunner(tc.scale)
		var catalog []func() (*stats.Table, error)
		for _, e := range r.Catalog() {
			catalog = append(catalog, e.Run)
		}
		jobs, _, err := r.EnumerateJobs(catalog...)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range jobs {
			if cfg.FIG != nil && *cfg.FIG == core.DefaultFIGCacheConfig() {
				t.Errorf("%s: %s overrides FIG with the defaults", tc.name, cfg.Describe())
			}
		}
		if tc.experiments != nil {
			_, builders, err := r.SelectExperiments(tc.experiments)
			if err != nil {
				t.Fatal(err)
			}
			if jobs, _, err = r.EnumerateJobs(builders...); err != nil {
				t.Fatal(err)
			}
		}
		if len(jobs) != tc.want {
			t.Errorf("%s: %d distinct jobs, want %d", tc.name, len(jobs), tc.want)
		}

		for _, sweep := range []struct {
			name  string
			build func() (*stats.Table, error)
		}{{"fig12", r.Fig12}, {"fig13", r.Fig13}, {"fig14", r.Fig14}, {"fig15", r.Fig15}} {
			_, fps, err := r.EnumerateJobs(sweep.build)
			if err != nil {
				t.Fatal(err)
			}
			for _, mix := range r.all {
				if fp := r.baseConfig(sim.FIGCacheFast, mix).Fingerprint(); !slices.Contains(fps, fp) {
					t.Errorf("%s %s: no column is FIGCache-Fast's default run on %s", tc.name, sweep.name, mix.Name)
				}
			}
		}
	}
}
