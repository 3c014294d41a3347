package harness

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

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
// returns every distinct simulation job of their combined matrix in
// ascending fingerprint order — the canonical matrix index a fleet
// coordinator leases from. No simulation runs: each builder's first
// runAll call records its jobs and aborts the builder. Builders that run
// no simulations (static tables, the circuit model) contribute no jobs;
// their output is discarded.
//
// The returned order depends only on the set of jobs, not on builder
// order or per-builder enumeration order, so a coordinator and its
// workers derive the identical index as long as they use the same
// experiment set and scale (the dispatch Spec carries both).
//
// Not safe to call concurrently with the builders' normal execution.
func (r *Runner) EnumerateJobs(builders ...func() (*stats.Table, error)) ([]sim.Config, error) {
	r.planning = true
	r.plan = nil
	r.planSeen = make(map[sim.Fingerprint]bool)
	defer func() {
		r.planning = false
		r.plan = nil
		r.planSeen = nil
	}()
	for _, build := range builders {
		if _, err := build(); err != nil && !errors.Is(err, errPlanOnly) {
			return nil, err
		}
	}
	jobs := make([]sim.Config, len(r.plan))
	copy(jobs, r.plan)
	SortByFingerprint(jobs)
	return jobs, nil
}

// SortByFingerprint puts jobs into canonical ascending fingerprint order,
// the matrix order a coordinator leases in.
func SortByFingerprint(jobs []sim.Config) {
	fps := make([]sim.Fingerprint, len(jobs))
	for i, cfg := range jobs {
		fps[i] = cfg.Fingerprint()
	}
	sort.Sort(&byFingerprint{jobs, fps})
}

type byFingerprint struct {
	jobs []sim.Config
	fps  []sim.Fingerprint
}

func (s *byFingerprint) Len() int { return len(s.jobs) }
func (s *byFingerprint) Less(i, j int) bool {
	return bytes.Compare(s.fps[i][:], s.fps[j][:]) < 0
}
func (s *byFingerprint) Swap(i, j int) {
	s.jobs[i], s.jobs[j] = s.jobs[j], s.jobs[i]
	s.fps[i], s.fps[j] = s.fps[j], s.fps[i]
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
// canonical (fingerprint-sorted) job index, stamped with the runner's
// scale and the experiment names the index was enumerated from. A fleet
// coordinator writes it once the matrix is complete.
func (r *Runner) ShardManifest(jobs []sim.Config, experiments []string) *expcache.Manifest {
	m := &expcache.Manifest{
		Format: expcache.ManifestFormatVersion,
		Engine: sim.EngineVersion,
		Scale: fmt.Sprintf("insts=%d apps=%d mixes=%d mc=%d",
			r.scale.Insts, r.scale.SingleApps, r.scale.MixesPerCategory, r.scale.MCIterations),
		Experiments:  experiments,
		Fingerprints: make([]string, len(jobs)),
	}
	for i, cfg := range jobs {
		m.Fingerprints[i] = cfg.Fingerprint().String()
	}
	return m
}
