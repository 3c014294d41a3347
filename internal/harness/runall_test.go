package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/expcache"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testRunner(t *testing.T) (*Runner, sim.Config) {
	t.Helper()
	r := NewRunner(Scale{Insts: 2_000, SingleApps: 1, MixesPerCategory: 1, MCIterations: 10, Parallelism: 1})
	return r, testConfig(t, "mcf")
}

// testConfig builds a tiny single-core Base run whose mix carries the
// given name (the name shows up in failure reports via Config.Describe).
func testConfig(t *testing.T, mixName string) sim.Config {
	t.Helper()
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Mix{Name: mixName, Apps: workload.Sources(spec)}
	cfg := sim.DefaultConfig(sim.Base, mix)
	cfg.TargetInsts = 2_000
	return cfg
}

// TestRunAllCachesSuccessesOnError verifies that completed runs survive a
// failing sibling job, so retries do not recompute them.
func TestRunAllCachesSuccessesOnError(t *testing.T) {
	r, good := testRunner(t)
	bad := good
	bad.TargetInsts = -1 // rejected by sim.New

	out, err := r.runAll([]sim.Config{good, bad})
	if err == nil {
		t.Fatal("runAll accepted an invalid config")
	}
	if out != nil {
		t.Errorf("runAll returned results alongside an error: %v", out)
	}
	cached, ok := r.cache.Get(good.Fingerprint())
	if !ok {
		t.Fatal("successful run was not cached when a sibling job failed")
	}

	// The retry must be served from the cache: no new simulated cycles.
	cyclesBefore := r.SimCycles()
	out2, err := r.runAll([]sim.Config{good})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out2.of(good), cached) {
		t.Error("retry returned a different result than the cached run")
	}
	if r.SimCycles() != cyclesBefore {
		t.Errorf("retry recomputed a cached run (sim cycles %d -> %d)", cyclesBefore, r.SimCycles())
	}
}

// TestRunAllReportsAllFailures verifies that a batch with several broken
// jobs reports every failed run, not just the first error the worker
// pool happened to hit.
func TestRunAllReportsAllFailures(t *testing.T) {
	r, _ := testRunner(t)
	good := testConfig(t, "ok-mix")
	badTarget := testConfig(t, "bad-target")
	badTarget.TargetInsts = -1 // rejected by sim.New
	badMix := testConfig(t, "bad-mix")
	badMix.Mix.Apps = nil // rejected by sim.New for a different reason

	_, err := r.runAll([]sim.Config{badTarget, good, badMix})
	if err == nil {
		t.Fatal("runAll accepted a batch with two invalid configs")
	}
	msg := err.Error()
	for _, want := range []string{"bad-target", "bad-mix", "2 of 3 jobs failed"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
	if strings.Contains(msg, "ok-mix") {
		t.Errorf("error %q implicates the successful job", msg)
	}
	// The successful sibling must still have been cached.
	if _, cached := r.cache.Get(good.Fingerprint()); !cached {
		t.Error("successful run was not cached alongside two failures")
	}
}

// TestRunAllDedupsJobs verifies that identical configurations in one
// batch are computed once (fingerprint dedup replaced the old string
// keys, so equality is semantic, not syntactic).
func TestRunAllDedupsJobs(t *testing.T) {
	r, cfg := testRunner(t)
	// The twin spells out the one-core channel default: the same run.
	twin := cfg
	twin.Channels = 1
	out, err := r.runAll([]sim.Config{cfg, cfg, twin})
	if err != nil {
		t.Fatal(err)
	}
	res := out.of(cfg)
	if res.Cycles == 0 {
		t.Fatal("no result for deduplicated config")
	}
	// SimCycles counts each computed run once; duplicates served from the
	// same computation contribute exactly one run's cycles.
	if got := r.SimCycles(); got != res.Cycles {
		t.Errorf("sim cycles = %d, want %d (one computation for three identical jobs)", got, res.Cycles)
	}
}

// TestRunAllMatchesDirectRuns verifies the worker pool end to end: a
// two-worker batch mixing 1-core and 8-core configurations of three
// presets returns, for every job, exactly what building the System
// directly and running it returns.
func TestRunAllMatchesDirectRuns(t *testing.T) {
	r := NewRunner(Scale{Insts: 2_000, Parallelism: 2})
	var jobs []sim.Config
	for _, p := range []sim.Preset{sim.Base, sim.FIGCacheFast, sim.LISAVilla} {
		single := testConfig(t, "mcf")
		single.Preset = p
		eight := sim.DefaultConfig(p, workload.EightCoreMixes()[0])
		eight.TargetInsts = 2_000
		jobs = append(jobs, single, eight)
	}
	out, err := r.runAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.SystemsBuilt(); got != int64(len(jobs)) {
		t.Errorf("built %d Systems for %d jobs, want one per job", got, len(jobs))
	}
	for i, cfg := range jobs {
		sys, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.of(cfg), direct) {
			t.Errorf("job %d (%s): runAll result differs from a direct run", i, cfg.Describe())
		}
	}
}

// TestRunnerWarmDiskCache verifies incremental reruns across processes:
// a second Runner over the same cache directory recomputes nothing and
// renders the identical table.
func TestRunnerWarmDiskCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation matrix in -short mode")
	}
	dir := t.TempDir()
	scale := Scale{Insts: 10_000, SingleApps: 2, MixesPerCategory: 1, MCIterations: 10, Parallelism: 1}

	cold := NewRunnerWithCache(scale, expcache.New(dir), false)
	coldTab, err := cold.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheStats().DiskHits != 0 {
		t.Errorf("cold pass reported disk hits: %+v", cold.CacheStats())
	}

	warm := NewRunnerWithCache(scale, expcache.New(dir), false)
	warmTab, err := warm.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.SimCycles(); got != 0 {
		t.Errorf("warm pass simulated %d cycles, want 0 (all runs cache-served)", got)
	}
	st := warm.CacheStats()
	if st.Misses != 0 || st.DiskHits == 0 {
		t.Errorf("warm pass stats = %+v, want 0 misses and >0 disk hits", st)
	}
	if coldTab.Render() != warmTab.Render() {
		t.Errorf("warm table differs from cold table:\ncold:\n%s\nwarm:\n%s",
			coldTab.Render(), warmTab.Render())
	}

	// -force bypasses the warm tier: everything is recomputed...
	forced := NewRunnerWithCache(scale, expcache.New(dir), true)
	forcedTab, err := forced.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if forced.SimCycles() == 0 {
		t.Error("forced pass simulated nothing; -force did not bypass the disk tier")
	}
	// ...to the identical result (determinism), which is rewritten.
	if forcedTab.Render() != coldTab.Render() {
		t.Error("forced recomputation produced a different table")
	}
}
