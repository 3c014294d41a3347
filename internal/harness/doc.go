// Package harness regenerates every table and figure of the paper's
// evaluation (Sections 7-9) and is the layer that turns one sim.System
// run into an experiment matrix: it enumerates the required (preset,
// workload) configurations per figure, executes them on a worker pool
// (one newly built sim.System per run), dedups and caches results by
// configuration fingerprint (internal/expcache, optionally persistent),
// and renders the same rows and series the paper reports. cmd/figbench
// drives it at full scale, or scaled down through its flags, as CI does
// to render every experiment at quick scale.
//
// The Scale struct is the single knob for matrix cost (instruction
// budget, workload subset, circuit-model iterations, parallelism);
// DefaultScale is the full matrix, QuickScale the minutes-scale version
// used by tests.
//
// For a fleet run across machines (internal/dispatch), the package also
// plans the matrix (plan.go): EnumerateJobs runs the experiment builders
// in a plan-only mode that records every distinct job without
// simulating, and returns the jobs with their fingerprints, hashed once
// each and sorted together into canonical order; RunJobs computes a
// leased subset through the result cache; and ShardManifest describes
// the whole matrix from those fingerprints so a completed fleet
// directory is self-describing. See ARCHITECTURE.md for the
// multi-machine workflow.
package harness
