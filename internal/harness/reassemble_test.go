package harness_test

import (
	"testing"

	"repro/internal/dispatch"
	"repro/internal/expcache"
	"repro/internal/harness"
	"repro/internal/stats"
)

// TestShardedRunsReassemble is the in-process version of CI's shard
// merge: two shards computed into separate cache directories, merged,
// and the merged directory must serve an unsharded rerun without a single
// recomputation, rendering identical tables to a from-scratch run.
func TestShardedRunsReassemble(t *testing.T) {
	scale := harness.Scale{Insts: 20_000, SingleApps: 2, MixesPerCategory: 1, MCIterations: 200}
	builders := func(r *harness.Runner) []func() (*stats.Table, error) {
		return []func() (*stats.Table, error){r.Table2, r.Fig7}
	}
	names := []string{"table2", "fig7"}

	dirs := []string{t.TempDir(), t.TempDir()}
	for k := 1; k <= 2; k++ {
		cache := expcache.New(dirs[k-1])
		r := harness.NewRunnerWithCache(scale, cache, false)
		jobs, err := r.EnumerateJobs(builders(r)...)
		if err != nil {
			t.Fatal(err)
		}
		mine := harness.ShardJobs(jobs, k, 2)
		if got, err := r.RunJobs(mine); err != nil || got != len(mine) {
			t.Fatalf("shard %d: ran %d of %d jobs, err=%v", k, got, len(mine), err)
		}
		if err := cache.WriteManifest(r.ShardManifest(jobs, k, 2, names)); err != nil {
			t.Fatal(err)
		}
	}

	merged := t.TempDir()
	if st, problems, err := dispatch.Merge(merged, dirs); err != nil || len(problems) != 0 || !st.Complete {
		t.Fatalf("merge: status %+v, problems %q, err %v", st, problems, err)
	}

	render := func(r *harness.Runner) string {
		var out string
		for _, build := range builders(r) {
			tab, err := build()
			if err != nil {
				t.Fatal(err)
			}
			out += tab.Render() + "\n"
		}
		return out
	}
	warm := harness.NewRunnerWithCache(scale, expcache.New(merged), false)
	warmTables := render(warm)
	if st := warm.CacheStats(); st.Misses != 0 || st.Stores != 0 {
		t.Errorf("warm run against merged dir recomputed: misses=%d computed=%d", st.Misses, st.Stores)
	}
	if warm.SimCycles() != 0 {
		t.Errorf("warm run simulated %d cycles", warm.SimCycles())
	}
	scratch := harness.NewRunner(scale)
	if scratchTables := render(scratch); scratchTables != warmTables {
		t.Error("merged-cache tables differ from a from-scratch run")
	}
}
