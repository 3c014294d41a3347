// Package core implements the FIGARO paper's primary contributions —
// the functional (metadata and policy) half of the in-DRAM caching
// designs, which plug into the timing stack through memctrl.CacheHook:
//
//   - FIGARO (figaro.go): a functional model of fine-grained in-DRAM data
//     relocation. The RELOC command copies one column of data between the
//     local row buffers of two subarrays in a bank through the shared
//     global row buffer, supporting unaligned source/destination columns
//     (Section 4.1, Figure 4).
//
//   - FIGCache (figcache.go, fts.go, replacement.go): a fine-grained
//     in-DRAM cache built on FIGARO. It caches row segments
//     (default 1/8 of a row) from slow subarrays into a small set of cache
//     rows, tracked by a tag store (FTS) in the memory controller, with an
//     insert-any-miss insertion policy and a row-granularity benefit-based
//     replacement policy (Section 5). The FTS finds a tag's slot through
//     an open-addressing table of twice the slot count (linear probing,
//     backward-shift deletion), so every tag it holds must be unique; a
//     bank's planned insertions are a short sorted slice. A tag is 32
//     bits (source row above an 8-bit segment index, rows per bank at
//     most 2^24 by FIGCacheConfig.Validate) and an FTS entry 16 bytes.
//     One FIGCache covers a channel's banks and cuts their tag stores'
//     entries, index tables and reserved bitmaps from one backing array
//     per kind; only a threshold above 1 gives a bank miss counters.
//
//   - LISA-VILLA (lisa.go): the state-of-the-art in-DRAM cache baseline the
//     paper compares against — whole-row caching into 16 fast subarrays
//     interleaved among slow subarrays, with distance-dependent relocation
//     latency (Section 3).
//
// The timing integration with the memory controller goes through
// memctrl.CacheHook; this package owns all cache metadata and policy
// decisions, while the controller and internal/dram charge the cycles.
//
// FIGCache.Snapshot/Restore and LISAVilla.Snapshot/Restore
// (snapshot.go) serialize the tag stores, replacement state, and hot
// counters for the system checkpoint lifecycle (sim.System.Snapshot).
// FTS.Restore rejects a valid tag held by two slots, a tag at or above
// 2^32 and a reserved slot out of range or listed twice;
// FIGCache.Restore rejects planned insertions and miss counters out of
// ascending order or keyed at or above 2^32, and miss counters on a
// threshold-1 cache, which keeps none. Both caches' CheckPlan lets a
// restoring controller refuse a deferred plan whose commit payload names
// no bank or slot of the cache.
package core
