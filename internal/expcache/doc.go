// Package expcache is the experiment-result store behind the harness: a
// two-tier cache of sim.Results keyed by sim.Fingerprint, plus the entry
// wire format and the matrix manifest that let a fleet of machines fill
// one result store (internal/dispatch does the assembling).
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
// # Manifests
//
// A fleet coordinator that completes a matrix writes a Manifest into its
// cache directory as manifest.json: the engine version, the scale, the
// experiment set and the full fingerprint index of the matrix. Unlike
// entries, manifests are validated strictly (Manifest.Validate) before
// they are written: one that names malformed or unsorted fingerprints
// is an error, not a miss.
package expcache
