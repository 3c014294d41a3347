// Package expcache is the experiment-result store behind the harness: a
// two-tier cache of sim.Results keyed by sim.Fingerprint, plus the entry
// wire format and shard manifests that let a result store be assembled
// from pieces computed on different machines (internal/dispatch does the
// assembling).
//
// # Result cache
//
// Tier one is an in-process map (shared-run dedup within one
// figbench/test invocation); tier two is an optional content-addressed
// on-disk store that makes full-matrix reruns incremental — a rerun
// after a code change only recomputes runs whose fingerprint (which
// folds in sim.EngineVersion) changed.
//
// Disk entries are versioned JSON envelopes named <fingerprint>.json.
// Reads are defensive: a corrupt, truncated, foreign-format, or
// stale-engine file is a miss, never an error — the run is simply
// recomputed and the entry rewritten. Writes are atomic (temp file +
// rename), so concurrent writers of the same fingerprint — racing
// processes, or racing workers of one process — land one complete entry.
//
// # Shard manifests
//
// A sharded figbench run (-shard K/N) computes a 1/N slice of the
// experiment matrix into its cache directory and records a Manifest
// there: the engine version, the full fingerprint index of the matrix,
// and the slice this shard owned. Unlike entries, manifests are
// validated strictly (Manifest.Validate, ReadManifests): they name the
// matrix a merge assembles, so a broken one is an error, not a miss.
package expcache
