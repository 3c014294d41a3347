// Package dispatch assembles an experiment matrix computed across
// machines into one cache directory. A Coordinator enumerated over the
// matrix serves fingerprint leases to figbench -worker processes over
// HTTP (figserve), tracks heartbeats and deadlines, and re-dispatches
// expired or straggling leases. It validates every uploaded result entry
// with the exact expcache decode rules the disk cache applies, keeps the
// first valid writer of each fingerprint, and, once the matrix is
// complete, writes the matrix manifest — so a warm figbench rerun against
// its directory recomputes nothing and renders byte-identical tables to
// a solo run.
//
// The design leans on three existing invariants:
//
//   - the matrix index is canonical (harness.EnumerateJobs returns the
//     jobs and their fingerprints in ascending fingerprint order): the
//     coordinator and its workers enumerate it independently, use the
//     returned fingerprints without hashing again, and must agree
//     fingerprint-for-fingerprint;
//   - entries are content-addressed, self-validating, and atomic on
//     disk (expcache), so accepting an upload is decode-and-rename and
//     duplicate work from re-dispatched leases resolves
//     first-writer-wins with byte-level conflict detection;
//   - the engine is deterministic, so any two honest workers of the
//     same build yield byte-identical entries and every failure path
//     (crash, stall, duplicate, restart) converges to the same bytes.
//
// Safety under faults is exercised in-process by the chaos test
// (TestDispatchConvergesUnderFaults) via Faults, the worker-side fault
// injection hooks, and end to end by the CI dispatch job, which also
// checks that a fleet directory's entries are byte-identical to a solo
// run's. See ARCHITECTURE.md "The experiment matrix: fleets" for the
// lease protocol, re-dispatch rules, upload validation, and resume
// semantics.
package dispatch
