// Package cpu implements the trace-driven processor core model of the
// simulated system (Table 1): a simplified out-of-order core with a
// 256-entry instruction window and 3-wide issue/retire, in the style of
// Ramulator's attached core model. Non-memory instructions occupy window
// entries and retire immediately; loads occupy an entry until their data
// returns from the cache hierarchy; stores retire immediately (modelling
// a write buffer) but still traverse the hierarchy.
//
// Only loads carry completion state. The window keeps an age-ordered
// ring of the slots holding loads, whose front is the oldest load still
// waiting on its fill; every entry before the front is retirable. A
// bubble or store insert only advances the window's tail, so window
// upkeep costs O(loads), not O(instructions).
//
// The core is the top of the timing stack: it consumes the instruction
// stream internal/workload generates and pushes memory operations into
// internal/cache. Two accessors exist purely for the cycle-skipping
// engine in internal/sim: NextWake bounds the next cycle the core can
// make progress on its own, and BatchableCycles/AdvanceBatch execute
// bubble runs (non-memory instructions issuing at full width) in closed
// form instead of cycle by cycle, in O(1) per batch with or without
// loads in flight. The closed form moves the window's head and tail
// exactly as the per-cycle Ticks do, so a batched core holds the dense
// loop's state, slot positions included. A fully blocked core's Tick
// changes nothing — a full window returns at once, and a refused L1
// access leaves the cache as it was — so the engine skips it with
// nothing to replay, and both engines hold the same state at every
// pause (TestEngineEquivalence, TestEngineHierarchyState).
//
// Core.Snapshot/Restore (snapshot.go) serialize the window position, the
// load ring's live entries, issue state, progress and the trace reader's
// cursor (a TraceReader checkpoints itself) for the system checkpoint
// lifecycle, and Restore rejects a window that does not fit the core as
// a decode error.
package cpu
