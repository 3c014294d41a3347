package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expcache"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Scale controls the cost of the experiment matrix.
type Scale struct {
	// Insts is the per-core retire target of each run.
	Insts int64
	// SingleApps limits the number of single-core applications (max 20).
	SingleApps int
	// MixesPerCategory limits the eight-core mixes per memory-intensity
	// category (max 5).
	MixesPerCategory int
	// MCIterations is the Monte-Carlo iteration count for the circuit
	// model (the paper uses 1e8; 1e4 reproduces the worst case closely).
	MCIterations int
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
}

// QuickScale returns a minutes-scale matrix for tests and benches.
func QuickScale() Scale {
	return Scale{Insts: 60_000, SingleApps: 4, MixesPerCategory: 1, MCIterations: 500}
}

// DefaultScale is the figbench default: every workload (all 20 single-
// core applications and all 5 mixes per category, the full matrix) at a
// laptop-scale instruction budget. The budget was raised 400k -> 1M
// instructions per core once batched core execution and the
// allocation-free access path lifted simulator throughput; longer runs
// give the in-DRAM cache more reuse to exploit, so the full-scale
// figures sit closer to the paper's steady-state numbers.
func DefaultScale() Scale {
	return Scale{Insts: 1_000_000, SingleApps: 20, MixesPerCategory: 5, MCIterations: 20_000}
}

// Runner executes simulation runs against a two-tier result cache
// (internal/expcache). Every computed run builds its own sim.System.
type Runner struct {
	scale Scale
	cache *expcache.Cache
	// force skips the persistent tier on lookups: every run is recomputed
	// once per process (in-process dedup still applies) and rewritten.
	force bool

	mu sync.Mutex
	// simCycles accumulates the simulated CPU cycles of every computed
	// run, and simWall the wall-clock spent inside simulation batches
	// (excluding the circuit model and table rendering) — numerator and
	// denominator of the SimCyclesPerSecond throughput metric.
	simCycles int64
	simWall   time.Duration
	// sysBuilt counts sim.New constructions across all workers.
	sysBuilt int64

	// plan, while EnumerateJobs runs, switches runAll into job
	// enumeration: each submitted configuration is recorded under its
	// fingerprint (the first of equal ones is kept) and errPlanOnly
	// aborts the calling experiment builder before it renders anything.
	// See plan.go.
	plan map[sim.Fingerprint]sim.Config

	// singles and eights are the scale's single-core workloads and
	// eight-core mixes, all is the two lists in one, and groups is their
	// split into the tables' six row groups. NewRunnerWithCache builds
	// them once; nothing changes them after.
	singles, eights, all []workload.Mix
	groups               []workloadGroup
}

// NewRunner builds a runner for the scale with an in-memory result cache.
func NewRunner(scale Scale) *Runner {
	return NewRunnerWithCache(scale, expcache.New(""), false)
}

// NewRunnerWithCache builds a runner over an explicit result cache
// (typically disk-backed; see expcache.New). force makes lookups bypass
// the persistent tier so every run is recomputed and rewritten.
func NewRunnerWithCache(scale Scale, cache *expcache.Cache, force bool) *Runner {
	if scale.Parallelism <= 0 {
		scale.Parallelism = runtime.GOMAXPROCS(0)
	}
	if scale.SingleApps <= 0 || scale.SingleApps > 20 {
		scale.SingleApps = 20
	}
	if scale.MixesPerCategory <= 0 || scale.MixesPerCategory > 5 {
		scale.MixesPerCategory = 5
	}
	if cache == nil {
		cache = expcache.New("")
	}
	r := &Runner{scale: scale, cache: cache, force: force,
		singles: singleWorkloads(scale.SingleApps), eights: eightCoreMixes(scale.MixesPerCategory)}
	r.all = append(append([]workload.Mix{}, r.singles...), r.eights...)
	r.groups = workloadGroups(r.singles, r.eights)
	return r
}

// Scale returns the runner's scale.
func (r *Runner) Scale() Scale { return r.scale }

// CacheStats returns the result cache's traffic counters.
func (r *Runner) CacheStats() expcache.Stats { return r.cache.Stats() }

// SystemsBuilt returns how many sim.Systems the runner constructed.
func (r *Runner) SystemsBuilt() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sysBuilt
}

// SystemsReused returns 0: every run builds its own System. It stays only
// because bench/figperf, which may not change, reports it.
func (r *Runner) SystemsReused() int64 { return 0 }

// results holds one batch's completed runs keyed by fingerprint; of is
// the lookup the figure builders use (recomputing a configuration's
// fingerprint is microseconds against the runs behind it). A missing
// fingerprint is a builder bug — the lookup config drifted from the job
// config — and panics rather than rendering silent zeros into a table.
type results map[sim.Fingerprint]sim.Result

func (rs results) of(cfg sim.Config) sim.Result {
	res, ok := rs[cfg.Fingerprint()]
	if !ok {
		panic(fmt.Sprintf("harness: no result for %s: lookup config does not match any submitted job", cfg.Describe()))
	}
	return res
}

// runAll executes the configurations (deduplicated by fingerprint and
// served from the result cache where possible) and returns results by
// fingerprint. Workers pull jobs from a shared index and build a
// System per job. When jobs fail, every failure is reported — one line
// per run, in deterministic (sorted) order — so a large batch with
// several broken configurations surfaces all of them at once instead of
// hiding siblings behind the first error. Completed runs are cached even
// when a sibling fails, so a retry does not recompute them.
func (r *Runner) runAll(cfgs []sim.Config) (results, error) {
	if r.plan != nil {
		for _, cfg := range cfgs {
			fp := cfg.Fingerprint()
			if _, ok := r.plan[fp]; !ok {
				r.plan[fp] = cfg
			}
		}
		return nil, errPlanOnly
	}
	out := make(results, len(cfgs))
	var todo []sim.Config
	var fps []sim.Fingerprint
	seen := make(map[sim.Fingerprint]bool, len(cfgs))
	lookup := r.cache.Get
	if r.force {
		lookup = r.cache.GetMem
	}
	for _, cfg := range cfgs {
		fp := cfg.Fingerprint()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		if res, ok := lookup(fp); ok {
			out[fp] = res
			continue
		}
		todo = append(todo, cfg)
		fps = append(fps, fp)
	}
	if len(todo) == 0 {
		return out, nil
	}

	batchStart := time.Now()
	workers := r.scale.Parallelism
	if workers > len(todo) {
		workers = len(todo)
	}
	var next atomic.Int64
	var mu sync.Mutex
	var failures []error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(todo) {
					return
				}
				res, err := r.run(todo[i])
				if err != nil {
					mu.Lock()
					failures = append(failures, fmt.Errorf("%s: %w", todo[i].Describe(), err))
					mu.Unlock()
					continue
				}
				// Persist immediately: disk failures degrade to in-memory
				// caching (expcache records them in its stats).
				_ = r.cache.Put(fps[i], res)
				mu.Lock()
				out[fps[i]] = res
				mu.Unlock()
				r.mu.Lock()
				r.simCycles += res.Cycles
				r.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.mu.Lock()
	r.simWall += time.Since(batchStart)
	r.mu.Unlock()
	if len(failures) > 0 {
		// Worker completion order is nondeterministic; sort so the report
		// (and tests over it) are stable.
		sort.Slice(failures, func(i, k int) bool {
			return failures[i].Error() < failures[k].Error()
		})
		return nil, fmt.Errorf("harness: %d of %d jobs failed: %w",
			len(failures), len(todo), errors.Join(failures...))
	}
	return out, nil
}

// run executes one configuration on a newly built System.
func (r *Runner) run(cfg sim.Config) (sim.Result, error) {
	sys, err := sim.New(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	r.mu.Lock()
	r.sysBuilt++
	r.mu.Unlock()
	return sys.Run()
}

// SimCycles returns the total number of CPU cycles simulated by this
// runner (cache hits excluded: each run is counted once, when computed).
func (r *Runner) SimCycles() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.simCycles
}

// SimWallSeconds returns the wall-clock seconds this runner spent inside
// simulation batches (the circuit model and table rendering excluded).
func (r *Runner) SimWallSeconds() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.simWall.Seconds()
}

// SimCyclesPerSecond returns the runner's simulation throughput —
// simulated CPU cycles per wall-clock second spent simulating: the
// headline "how fast does the simulator run" metric the benchmarks and
// cmd/figbench report.
func (r *Runner) SimCyclesPerSecond() float64 {
	s := r.SimWallSeconds()
	if s <= 0 {
		return 0
	}
	return float64(r.SimCycles()) / s
}

// baseConfig builds the standard run configuration.
func (r *Runner) baseConfig(p sim.Preset, mix workload.Mix) sim.Config {
	cfg := sim.DefaultConfig(p, mix)
	cfg.TargetInsts = r.scale.Insts
	return cfg
}

// singleWorkloads returns n of the single-core workloads, keeping the
// intensive/non-intensive balance.
func singleWorkloads(n int) []workload.Mix {
	all := workload.SingleCoreWorkloads()
	if n >= len(all) {
		return all
	}
	// Alternate between non-intensive (first half of Benchmarks) and
	// intensive so small subsets stay balanced.
	var intensive, non []workload.Mix
	for _, m := range all {
		if m.Apps[0].MemIntensive() {
			intensive = append(intensive, m)
		} else {
			non = append(non, m)
		}
	}
	var out []workload.Mix
	for i := 0; len(out) < n; i++ {
		if i < len(intensive) {
			out = append(out, intensive[i])
		}
		if len(out) < n && i < len(non) {
			out = append(out, non[i])
		}
		if i >= len(intensive) && i >= len(non) {
			break
		}
	}
	return out
}

// workloadGroup is one row group of the evaluation's tables: its label,
// its mixes, and the core and channel counts of their systems.
type workloadGroup struct {
	name            string
	mixes           []workload.Mix
	cores, channels int
}

// workloadGroups splits single-core workloads and eight-core mixes into
// the six row groups the tables report: 1-core non-intensive, 1-core
// intensive, and 8-core 25/50/75/100% intensive.
func workloadGroups(singles, eights []workload.Mix) []workloadGroup {
	var nonInt, intens []workload.Mix
	for _, m := range singles {
		if m.Apps[0].MemIntensive() {
			intens = append(intens, m)
		} else {
			nonInt = append(nonInt, m)
		}
	}
	groups := []workloadGroup{
		{"1-core non-intensive", nonInt, 1, 1},
		{"1-core intensive", intens, 1, 1},
	}
	for _, pct := range []int{25, 50, 75, 100} {
		groups = append(groups, workloadGroup{fmt.Sprintf("8-core %d%%", pct), workload.MixesByCategory(eights, pct), 8, 4})
	}
	return groups
}

// eightCoreMixes returns the first perCategory eight-core mixes of each
// category.
func eightCoreMixes(perCategory int) []workload.Mix {
	all := workload.EightCoreMixes()
	var out []workload.Mix
	for _, pct := range []int{25, 50, 75, 100} {
		cat := workload.MixesByCategory(all, pct)
		if len(cat) > perCategory {
			cat = cat[:perCategory]
		}
		out = append(out, cat...)
	}
	return out
}
