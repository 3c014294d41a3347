// Package sim assembles and runs the full simulated system of the FIGARO
// paper: trace-driven cores (internal/cpu), the SRAM hierarchy
// (internal/cache), per-channel memory controllers (internal/memctrl)
// over the DDR4 device model (internal/dram), and the in-DRAM cache
// configurations of Section 8 (Base, LISA-VILLA, FIGCache-Slow,
// FIGCache-Fast, FIGCache-Ideal, LL-DRAM). It runs the whole system on
// one CPU-cycle clock (3.2 GHz) with the DRAM bus ticking every fourth
// cycle (800 MHz).
//
// The package is the repository's layer between the hardware models
// below it and the experiment machinery above it. Three contracts define
// that seam (ARCHITECTURE.md describes each in depth):
//
//   - Engine equivalence. System.Run normally uses a cycle-skipping,
//     batching engine; the dense cycle-by-cycle reference loop is kept
//     behind Config.DenseLoop, and TestEngineEquivalence enforces that
//     both produce bit-identical Results. Any timing-model change must
//     keep that test green.
//
//   - Run identity. Config.Fingerprint() is the canonical identity of a
//     run: a SHA-256 over the normalized configuration plus
//     EngineVersion. Equal fingerprints imply bit-identical Results, the
//     property the harness's result caching, cross-process persistence
//     (internal/expcache), and cross-machine fleets all build on. Bump
//     EngineVersion with any change that can alter what a run produces.
//
//   - Checkpoint/restore. System.Snapshot serializes the complete
//     mid-run state of every layer into the versioned FGSS format
//     (internal/fgss; header carries EngineVersion and the config
//     fingerprint, and Restore refuses a mismatch of either).
//     System.RunUntilRetired is the checkpoint stop-point; a run
//     checkpointed at instruction K and resumed — in-process or
//     restored into a fresh System — finishes bit-identical to an
//     uninterrupted run, for both engines (TestEngineEquivalence's
//     checkpoint-at-K cases). System.RunSlice pauses on a cycle budget
//     instead — the pause/resume primitive for observers of a running
//     System — under the same contract (the sliced cases).
//
// New is the only way to build a System's state: every run gets its own
// System, and Restore overwrites a built one from a snapshot. Run,
// RunSlice and RunUntilRetired are thin wrappers over one private run
// loop that selects the engine once per call; on a finished System the
// loop executes nothing, so Run reads the finished run's Result.
package sim
