// Package stats provides the small numeric and formatting helpers the
// evaluation harness uses: means, geometric means, speedups, weighted
// percentile estimation, and plain-text tables that mirror the
// rows/series of the paper's figures.
//
// It also holds Reservoir, the bounded deterministic sample reservoir
// (seeded Algorithm R) the memory controllers use for read-latency
// percentiles: full-scale runs keep O(1) memory per controller instead
// of one sample per read, and the seeding keeps any two runs of the same
// configuration bit-identical — a requirement of the fingerprint
// identity contract (equal sim fingerprints imply equal results).
//
// Table rendering is byte-deterministic on purpose: the warm-cache and
// dispatch CI jobs diff rendered tables across process and machine
// boundaries, so formatting here must never depend on map order, time,
// or locale.
//
// Reservoir.Snapshot/Restore (snapshot.go) serialize the sample buffer
// and RNG state for the system checkpoint lifecycle, so a restored run
// reports the same percentiles an uninterrupted one would.
package stats
