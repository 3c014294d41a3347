package dispatch

import (
	"repro/internal/expcache"
	"repro/internal/harness"
	"repro/internal/sim"
)

// BuildSpec enumerates the named experiments' job matrix at the runner's
// scale (plan-only; nothing is simulated) and returns the dispatch Spec
// describing it, the canonical job list, and the manifest a completed
// fleet directory should carry. Coordinator side of the
// matrix-agreement handshake; workers rebuild the same thing from the
// Spec and compare.
func BuildSpec(r *harness.Runner, names []string) (Spec, []sim.Config, *expcache.Manifest, error) {
	names, builders, err := r.SelectExperiments(names)
	if err != nil {
		return Spec{}, nil, nil, err
	}
	jobs, err := r.EnumerateJobs(builders...)
	if err != nil {
		return Spec{}, nil, nil, err
	}
	fps := make([]string, len(jobs))
	for i, cfg := range jobs {
		fps[i] = cfg.Fingerprint().String()
	}
	scale := r.Scale()
	spec := Spec{
		Format:       SpecFormatVersion,
		Engine:       sim.EngineVersion,
		Insts:        scale.Insts,
		Apps:         scale.SingleApps,
		Mixes:        scale.MixesPerCategory,
		MC:           scale.MCIterations,
		Experiments:  names,
		Fingerprints: fps,
	}
	return spec, jobs, r.ShardManifest(jobs, names), nil
}
