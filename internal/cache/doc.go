// Package cache implements the SRAM cache hierarchy of the simulated
// system (Table 1): per-core L1 (64 kB, 4-way) and L2 (256 kB, 8-way)
// caches and a shared last-level cache (2 MB per core, 16-way), all
// write-back write-allocate with LRU replacement and MSHR-based miss
// handling.
//
// In the layer stack this package sits between the core model
// (internal/cpu issues loads and stores into the L1) and the memory
// controller (internal/memctrl receives LLC misses and write-backs). It
// is a timing filter, not a data store: lookups and fills move tags and
// occupancy, and only misses that escape the LLC become DRAM traffic.
// The hierarchy is on the simulator's zero-allocation steady-state path:
// lines live in one flat, pointer-free array of 32-bit words per cache
// and MSHRs are pooled, which BenchmarkAccessPathAllocs enforces. Each
// set stores its W tag words, then its W LRU stamps, so a line costs 8
// bytes and the 8-core LLC's 262,144 lines 2 MB. A tag word packs the
// tag, the block address shifted right by the set-index bits, in 30
// bits above a valid and a dirty bit, so one compare per way checks tag
// and valid together, and a 16-way lookup reads 64 bytes. Block sizes
// must be powers of two (Config.Validate), which keeps the shift exact.
//
// Two bounds keep the 32-bit words exact. A level's 30 tag bits name
// SizeBytes/Ways << 30 bytes of address space (Config.Reach): 16 TiB for
// Table 1's L1, whose ways are the smallest. NewHierarchy refuses a
// memory larger than any level reaches, so no two addresses of the
// simulated memory (channels × 4 GiB) share a line. The LRU clock
// counts stamps in 32 bits: when it would pass 2^32-1, every set's
// valid stamps are renumbered 1..k in their order and the clock
// continues above them, so every victim stays the one unbounded stamps
// would pick. TestPackedSetsMatchLineOracle and its fuzz target check
// the layout, out to the top tag bit, against the earlier
// one-struct-per-line cache, kept in the tests as an oracle, and
// TestLRUClockWrapMatchesLineOracle drives both across a renumbering.
//
// Hierarchy.Snapshot/Restore (snapshot.go) serialize every cache's tag
// and LRU state plus in-flight MSHRs for the system checkpoint
// lifecycle (sim.System.Snapshot), in the per-line format of the
// earlier layout. Restore rejects a tag wider than 30 bits, an LRU
// stamp or clock outside [0,2^32-1] and, through the caller's check,
// any MSHR waiter token that names no core or cache node of the
// restoring System.
package cache
