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
// For fanning the matrix out across machines, the package also provides
// the sharding layer (shard.go): EnumerateJobs runs the experiment
// builders in a plan-only mode that records every distinct job without
// simulating, ShardJobs partitions the canonical fingerprint-ordered
// index into K-of-N slices, and ShardManifest describes a slice so the
// shard's cache directory is self-describing. See ARCHITECTURE.md for
// the full multi-machine workflow.
package harness
