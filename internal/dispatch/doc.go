// Package dispatch assembles an experiment matrix computed across
// machines into one cache directory. A Coordinator enumerated over the
// matrix validates every incoming result entry with the exact expcache
// decode rules the disk cache applies, keeps the first valid writer of
// each fingerprint, and, once the matrix is complete, writes the final
// 1-of-1 shard manifest — so a warm figbench rerun against its directory
// recomputes nothing and renders byte-identical tables to a solo run.
//
// Two kinds of producers feed the same Coordinator:
//
//   - a figserve fleet: the Coordinator serves fingerprint leases to
//     figbench -worker processes over HTTP, tracks heartbeats and
//     deadlines, and re-dispatches expired or straggling leases;
//   - static shards: Merge (cmd/figmerge) reads the matrix from the
//     shard manifests of figbench -shard directories and uploads their
//     entries, reporting each rejected one and an incomplete matrix as
//     problem lines.
//
// The design leans on three existing invariants:
//
//   - the matrix index is canonical (harness.EnumerateJobs +
//     SortByFingerprint): coordinator, workers and shards enumerate it
//     independently and must agree fingerprint-for-fingerprint;
//   - entries are content-addressed, self-validating, and atomic on
//     disk (expcache), so accepting an upload is decode-and-rename and
//     duplicate work from re-dispatched leases or overlapping shards
//     resolves first-writer-wins with byte-level conflict detection;
//   - the engine is deterministic, so any two honest producers of the
//     same build yield byte-identical entries and every failure path
//     (crash, stall, duplicate, restart, partial merge) converges to
//     the same bytes.
//
// Safety under faults is exercised in-process by the chaos test
// (TestDispatchConvergesUnderFaults) via Faults, the worker-side fault
// injection hooks, and end to end by the CI dispatch job, which also
// checks that merged shards and a fleet give identical directories. See
// ARCHITECTURE.md "The experiment matrix: sharding, merging and fleets"
// for the lease protocol, re-dispatch rules, upload validation, and
// resume semantics.
package dispatch
