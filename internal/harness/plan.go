package harness

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/expcache"
	"repro/internal/sim"
	"repro/internal/stats"
)

// errPlanOnly aborts an experiment builder after runAll has captured its
// jobs during enumeration. Builders propagate runAll errors verbatim, so
// the sentinel unwinds them without executing any simulation or touching
// any table — the enumeration contract every builder already satisfies by
// returning on the first runAll error.
var errPlanOnly = errors.New("harness: plan-only enumeration")

// EnumerateJobs runs the given experiment builders in plan-only mode and
// returns every distinct simulation job of their combined matrix with
// its fingerprint, both in ascending fingerprint order — the canonical
// matrix index a fleet coordinator leases from. Each job is hashed once,
// when runAll records it; callers use the returned fingerprints rather
// than hashing again. No simulation runs: each builder's first runAll
// call records its jobs and aborts the builder. Builders that run no
// simulations (static tables, the circuit model) contribute no jobs;
// their output is discarded.
//
// The returned order depends only on the set of jobs, not on builder
// order or per-builder enumeration order, so a coordinator and its
// workers derive the identical index as long as they use the same
// experiment set and scale (the dispatch Spec carries both).
//
// Not safe to call concurrently with the builders' normal execution.
func (r *Runner) EnumerateJobs(builders ...func() (*stats.Table, error)) ([]sim.Config, []sim.Fingerprint, error) {
	r.plan = make(map[sim.Fingerprint]sim.Config)
	defer func() { r.plan = nil }()
	for _, build := range builders {
		if _, err := build(); err != nil && !errors.Is(err, errPlanOnly) {
			return nil, nil, err
		}
	}
	fps := make([]sim.Fingerprint, 0, len(r.plan))
	for fp := range r.plan { //fglint:deterministic the keys are sorted next
		fps = append(fps, fp)
	}
	slices.SortFunc(fps, func(a, b sim.Fingerprint) int { return bytes.Compare(a[:], b[:]) })
	jobs := make([]sim.Config, len(fps))
	for i, fp := range fps {
		jobs[i] = r.plan[fp]
	}
	return jobs, fps, nil
}

// RunJobs computes the given configurations through the result cache —
// the execution half of a fleet worker's lease: no figure is rendered,
// the cache fills with the jobs' entries. Returns the number of distinct
// jobs (cached or computed).
func (r *Runner) RunJobs(jobs []sim.Config) (int, error) {
	res, err := r.runAll(jobs)
	if err != nil {
		return 0, err
	}
	return len(res), nil
}

// ShardManifest builds the manifest of the whole matrix over the
// canonical job index's fingerprints (EnumerateJobs), stamped with the
// runner's scale and the experiment names the index was enumerated
// from. A fleet coordinator writes it once the matrix is complete.
func (r *Runner) ShardManifest(fps []sim.Fingerprint, experiments []string) *expcache.Manifest {
	m := &expcache.Manifest{
		Format: expcache.ManifestFormatVersion,
		Engine: sim.EngineVersion,
		Scale: fmt.Sprintf("insts=%d apps=%d mixes=%d mc=%d",
			r.scale.Insts, r.scale.SingleApps, r.scale.MixesPerCategory, r.scale.MCIterations),
		Experiments:  experiments,
		Fingerprints: make([]string, len(fps)),
	}
	for i, fp := range fps {
		m.Fingerprints[i] = fp.String()
	}
	return m
}
