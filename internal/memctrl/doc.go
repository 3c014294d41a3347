// Package memctrl implements the memory controller: per-channel read and
// write request queues, FR-FCFS command scheduling, the DDR4 address
// interleaving from Table 1 of the FIGARO paper, write draining and
// refresh management, plus the hook through which an in-DRAM cache
// (FIGCache or LISA-VILLA, in internal/core) redirects requests and
// triggers in-DRAM relocations.
//
// The controller is the layer between the cache hierarchy and the DRAM
// device model: LLC misses and write-backs enter through Enqueue, and
// each Tick issues at most one DRAM command chosen by FR-FCFS (column
// commands to open rows first, then the oldest request's ACT/PRE
// sequence). The cache hook queues each insertion, and the controller
// flushes a bank's queue as one relocation burst when the source row is
// about to close (Section 8.1), so relocations never steal row hits from
// queued requests.
//
// Two properties matter to the layers above:
//
//   - Tick returns a next-work probe — a lower bound on the next bus
//     cycle the controller could change state — which is what lets the
//     cycle-skipping engine in internal/sim jump over idle bus cycles.
//
//   - Each queue is one slice in arrival order, and each tick schedules
//     in one oldest-first walk over it (see Controller.schedule): the
//     walk prices each bank's row hit once, and only a bank's oldest
//     request may open or close its row.
//
// Controller.Snapshot/Restore (snapshot.go) serialize the queues,
// drain/refresh state, and the latency reservoir for the system
// checkpoint lifecycle. A request is its address: a queued one travels
// as its address, arrival cycle and the hook's decision at Enqueue, and
// Restore decodes the address (AddrMapper.ReadAddr) into its location;
// a read completes the miss on its block, which Tick reports. The hook
// checkpoints its own queued insertions, and Restore rebuilds the mask
// of banks with a queue from CacheHook.Pending.
package memctrl
