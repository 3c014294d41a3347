// Package workload synthesizes deterministic instruction traces that
// statistically reproduce the memory behaviour the FIGARO paper's
// benchmarks exhibit, and composes them into the paper's single-core,
// eight-core multiprogrammed, and multithreaded workloads (Table 2,
// Section 7).
//
// The paper drives its simulator with Pin traces of SPEC CPU2006, TPC,
// MediaBench, the Memory Scheduling Championship and BioBench binaries.
// Those traces are unavailable, so each benchmark is modelled by a
// parameterized generator that reproduces the properties FIGCache's
// behaviour depends on:
//
//   - memory intensity: LLC misses per kilo-instruction (>10 MPKI for the
//     paper's "memory intensive" class);
//   - segment-level reuse beyond SRAM reach: a Zipf-distributed hot set of
//     1 kB row segments much larger than the LLC, so reuse hits DRAM;
//   - limited row-buffer locality: hot segments are scattered so that a
//     DRAM row rarely holds more than one of them, making whole-row
//     caching wasteful (Section 3);
//   - spatial locality inside a segment: short sequential block runs;
//   - store traffic via a configurable write fraction.
//
// Generators are pure functions of their parameters and seed: the same
// BenchSpec always emits the same trace, which is what makes a
// sim.Config.Fingerprint a complete run identity. Every generator
// parameter is folded into the fingerprint, so sensitivity studies that
// mutate a spec can never collide with the stock benchmark's cached
// results.
//
// A core's workload is a Source, which wraps one BenchSpec: a pure value
// the fingerprint serializes (Source.WriteCanonical) and sim.New opens
// into a Generator for the core's address window. tracegen prints a
// generator's records as text, or summarizes them.
//
// Generator.Snapshot/Restore (snapshot.go) serialize the RNG,
// sweep-stream and burst state for the system checkpoint lifecycle, so
// a restored generator resumes mid-stream bit-identically.
package workload
