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
// lines live in one flat, pointer-free array of words per cache and
// MSHRs are pooled, which BenchmarkAccessPathAllocs enforces. Each set
// stores its W tag words, then its W LRU stamps. A tag word packs the
// tag, the block address shifted right by the set-index bits, above a
// valid and a dirty bit, so one compare per way checks tag and valid
// together, and a 16-way lookup reads 128 bytes. Block sizes must be
// powers of two of at least four bytes (Config.Validate), which keeps
// the shift exact and the two flag bits free. TestPackedSetsMatchLineOracle
// and its fuzz target check the layout against the earlier one-struct-
// per-line cache, kept in the tests as an oracle.
//
// Hierarchy.Snapshot/Restore (snapshot.go) serialize every cache's tag
// and LRU state plus in-flight MSHRs for the system checkpoint
// lifecycle (sim.System.Snapshot), in the per-line format of the
// earlier layout. Restore rejects a tag wider than the address space
// leaves room for and, through the caller's check, any MSHR waiter
// token that names no core or cache of the restoring System.
package cache
