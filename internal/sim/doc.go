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
//   - Engine equivalence. System.Run uses a cycle-skipping, batching
//     engine; the dense cycle-by-cycle reference loop is kept for the
//     package's tests, which select it on a built System. At every
//     pause — each RunSlice or RunUntilRetired stop, and the end of the
//     run — both engines hold the same clock and the same state: their
//     snapshots match byte for byte, in every section. So both produce
//     bit-identical Results. TestEngineEquivalence,
//     TestEngineHierarchyState and FuzzEngineEquivalence enforce it; any
//     timing-model change must keep them green.
//
//   - Run identity. Config.Fingerprint() is the canonical identity of a
//     run: a SHA-256 over the normalized configuration plus
//     EngineVersion, whose canonical text is appended with strconv into
//     a stack buffer (no fmt, no allocation). Equal fingerprints imply
//     bit-identical Results, the property the harness's result caching,
//     cross-process persistence (internal/expcache), and cross-machine
//     fleets all build on. Bump EngineVersion with any change that can
//     alter what a run produces.
//
//   - Checkpoint/restore. System.Snapshot serializes the complete
//     mid-run state of every layer into the versioned FGSS format
//     (internal/fgss; header carries EngineVersion and the config
//     fingerprint, and Restore refuses a mismatch of either).
//     System.RunSlice, which pauses on a cycle budget, is the one pause
//     primitive; System.RunUntilRetired, the checkpoint stop-point, is
//     a loop of RunSlice calls sized so that no slice passes the first
//     cycle at whose end the total retired count reaches K. A run
//     checkpointed at K and resumed — in-process or restored into a
//     fresh System — finishes bit-identical to an uninterrupted run,
//     and both engines checkpoint on the same cycle with the same
//     bytes (TestEngineEquivalence's checkpoint-at-K and sliced
//     cases).
//
// The sleep contract. Inside the cycle-skipping loop a core whose next
// cycles are predictable sleeps: a blocked core until Dispatch delivers
// a CoreSlot for it or an MSHRFill for its L1, a batching core also
// until the cycle after its bubble batch. A sleeping core is neither
// ticked nor scanned. A blocked core's skipped ticks were no-ops — a
// refused L1 access changes nothing — so waking it replays nothing; a
// batching core applies its batch up to the waking cycle before the
// waking event's handler runs. Every exit of the loop wakes the cores
// still asleep, so outside it no core sleeps and a snapshot carries no
// sleep state. The loop takes one of two shapes, chosen once per call
// by core count. With several cores it keeps the running cores in the
// awake set, one 64-bit word (New refuses more than 64 cores), and
// visits only its set bits, in core-ID order; a done set marks the
// cores past their target, the run ending when it holds every core,
// and the earliest sleeping wake is kept as cores fall asleep and
// recomputed only when the core holding it wakes. It rebuilds all
// three on entry, when every core runs. With one core (runSolo) the
// core's own sleep state is all there is to keep, so the loop keeps no
// sets. Both shapes make the same core and controller calls in the
// same order, so the choice changes no result and no snapshot byte.
//
// New is the only way to build a System's state: every run gets its own
// System, and Restore overwrites a built one from a snapshot. Run and
// RunSlice are thin wrappers over one private run loop that selects the
// engine once per call and stops on a cycle bound or completion; on a
// finished System the loop executes nothing, so Run reads the finished
// run's Result.
package sim
