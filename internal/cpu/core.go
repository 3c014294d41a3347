package cpu

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/ev"
	"repro/internal/fgss"
)

// TraceRecord is one unit of a core's instruction trace: Bubbles
// non-memory instructions followed by one memory access.
type TraceRecord struct {
	Bubbles int    // non-memory instructions preceding the access
	Addr    uint64 // physical address of the memory access
	IsWrite bool
}

// TraceReader supplies an endless instruction trace and checkpoints its
// position in it; the generators and replayers of internal/workload
// implement it deterministically.
type TraceReader interface {
	Next() TraceRecord
	Snapshot(*fgss.Writer)
	Restore(*fgss.Reader)
}

// Table 1's core: a 256-entry instruction window, 3-wide issue and
// retire.
const (
	// WindowSize is the number of instruction window entries.
	WindowSize = 256
	// Width is the number of instructions issued, and the number
	// retired, per cycle.
	Width = 3
)

// Core is one simulated core.
type Core struct {
	ID int

	trace TraceReader
	l1    *cache.Cache //fglint:preserved wiring only, bound at construction; the cache's own state is checkpointed by Hierarchy.Snapshot

	// Instruction window: a ring of WindowSize slots holding count
	// entries, oldest at head, next free slot at tail. Bubbles and stores
	// are retirable from the moment they enter, so inserting one only
	// advances tail and count; only loads carry completion state.
	head  int
	tail  int
	count int

	// pend is an age-ordered ring of the slots that hold loads, pendN
	// entries from pend[pendHead]. Its front is the oldest load still
	// waiting on its fill, so every window entry before the front is
	// retirable. A load that completes behind the front stays queued
	// until the front completes; CompleteSlot then pops both. The
	// retirable run at the head is therefore the distance from head to the
	// front, or count when the ring is empty (retirableRun).
	pend     []int
	pendHead int
	pendN    int

	// waiting[i] marks slot i as holding a load whose fill has not
	// arrived. A load's completion is the CoreSlot event token carrying
	// this core's ID and the slot index; CompleteSlot ignores a token for
	// a slot that is not waiting (a duplicate, or a slot that now holds a
	// bubble or store).
	waiting []bool

	pending    TraceRecord
	hasPending bool

	// Progress.
	Retired int64
	// TargetInsts, when reached, records FinishedAt once; the core keeps
	// running (its trace continues) so it still exerts memory pressure on
	// co-running cores, per the multiprogrammed-evaluation methodology.
	TargetInsts int64
	FinishedAt  int64 // cycle Retired first reached TargetInsts; 0 if not yet
}

// New builds a core reading trace and accessing the hierarchy through l1.
func New(id int, trace TraceReader, l1 *cache.Cache, targetInsts int64) (*Core, error) {
	if trace == nil || l1 == nil {
		return nil, fmt.Errorf("cpu: trace and l1 must be non-nil")
	}
	c := &Core{
		ID:          id,
		trace:       trace,
		l1:          l1,
		pend:        make([]int, WindowSize),
		waiting:     make([]bool, WindowSize),
		TargetInsts: targetInsts,
	}
	return c, nil
}

// CompleteSlot records the fill of the load occupying `slot` — the
// action of the CoreSlot event token issued with it — and ignores a
// token for a slot with no waiting load. A completion at the front of
// the load ring pops the front and every completed load queued behind
// it, so each load is pushed and popped once.
func (c *Core) CompleteSlot(slot int) {
	if !c.waiting[slot] {
		return
	}
	c.waiting[slot] = false
	if slot != c.pend[c.pendHead] {
		return // behind the front: retires only after the front completes
	}
	for {
		if c.pendHead++; c.pendHead == WindowSize {
			c.pendHead = 0
		}
		if c.pendN--; c.pendN == 0 || c.waiting[c.pend[c.pendHead]] {
			return
		}
	}
}

// Done reports whether the core has retired its target instruction count.
func (c *Core) Done() bool { return c.FinishedAt > 0 }

// IPC returns instructions per cycle at the point the target was reached,
// or the running IPC at cycle now if the target is not yet reached.
func (c *Core) IPC(now int64) float64 {
	cycles := c.FinishedAt
	insts := c.TargetInsts
	if cycles == 0 {
		cycles, insts = now, c.Retired
	}
	if cycles == 0 {
		return 0
	}
	return float64(insts) / float64(cycles)
}

// Tick advances the core one CPU cycle: retire from the window head, then
// issue new instructions into the tail.
func (c *Core) Tick(now int64) {
	// Retire a full group, or the whole retirable run if shorter.
	if n := c.retirableRun(); n > 0 {
		n = min(n, Width)
		c.retire(n)
		if c.FinishedAt == 0 && c.Retired >= c.TargetInsts {
			c.FinishedAt = now
		}
	}

	// Issue.
	for i := 0; i < Width; i++ {
		if c.count >= WindowSize {
			return
		}
		if !c.hasPending {
			c.pending = c.trace.Next()
			c.hasPending = true
		}
		if c.pending.Bubbles > 0 {
			c.pending.Bubbles--
			c.insert()
			continue
		}
		// The memory access of the pending record.
		if c.pending.IsWrite {
			// Stores retire immediately; the write continues through the
			// hierarchy in the background.
			if !c.l1.Access(c.pending.Addr, true, ev.Token{}) {
				return // retry next cycle
			}
			c.insert()
		} else {
			// The completion token names the slot; CompleteSlot ignores it
			// unless the slot still waits on this load.
			slot := c.tail
			tok := ev.Token{Kind: ev.CoreSlot, ID: int32(c.ID), Arg: uint64(slot)}
			if !c.l1.Access(c.pending.Addr, false, tok) {
				return
			}
			c.waiting[slot] = true
			c.pend[c.ring(c.pendHead+c.pendN)] = slot
			c.pendN++
			c.insert()
		}
		c.hasPending = false
	}
}

// NextWake returns the next CPU cycle at which Tick could make progress:
// now+1 while the core can retire or issue, or math.MaxInt64 when it is
// fully blocked (window head waiting on a fill, or the pending memory
// access refused by the L1). A blocked core's state only changes through
// scheduler events — a load completing or a cache fill freeing an L1
// MSHR — so the run loop may skip it until the next event fires.
func (c *Core) NextWake(now int64) int64 {
	if c.retirableRun() > 0 {
		return now + 1 // can retire
	}
	if c.count < WindowSize {
		// Can issue: a buffered bubble always inserts; a fresh trace
		// record is fetched optimistically (it may start with bubbles);
		// a pending memory access issues iff the L1 would accept it.
		if !c.hasPending || c.pending.Bubbles > 0 || c.l1.CanAccept(c.pending.Addr) {
			return now + 1
		}
	}
	return math.MaxInt64
}

// BatchableCycles reports how many upcoming cycles — starting at the
// cycle after the current one — the core can execute in closed form
// instead of cycle-by-cycle Ticks. A cycle is batchable when its dense
// execution is fully determined: the pending trace record still holds
// at least a full issue group of bubbles (so issue touches no cache and
// fetches no trace record), and retirement is predictable (see
// batchRetire) — either the whole window is retirable, or the run of
// retirable entries at the head is long enough that every batched cycle
// retires a full group before reaching the first entry still waiting on
// a load, or so short that only the first batched cycle retires.
// Outstanding loads only complete through CompleteSlot, and the run
// loop may apply a batch later — whole, or cut short at an event — but
// always before it delivers any CompleteSlot for the core, so the
// retirable run cannot grow inside the batch. The count is capped at
// the cycle the core would reach its instruction target (crossingCycle),
// so the run loop observes the finish exactly where the dense loop
// would.
//
// Returns 0 when the next cycle must be executed normally.
func (c *Core) BatchableCycles() int64 {
	if !c.hasPending {
		return 0
	}
	// Cycles the dense loop would spend issuing only bubbles: a cycle
	// issues Width of them iff that many remain at its start.
	n := int64(c.pending.Bubbles) / Width
	if c.pendN > 0 {
		// Loads in flight: retirement stops at the front of the load ring.
		if run := c.retirableRun(); run >= Width {
			// Full-group retire+issue cycles until the run shrinks below
			// one group; occupancy is stable, so no window-full cycles.
			n = min(n, run/Width)
		} else {
			// Head (nearly) blocked: the first cycle retires the short
			// run, after which bubbles accumulate at issue width. Stop
			// before the window fills so no cycle is issue-limited
			// (window-full cycles are the blocked path's business).
			n = min(n, (WindowSize-int64(c.count)+run)/Width)
		}
	}
	if n <= 0 {
		return 0
	}
	if c.FinishedAt == 0 {
		n = min(n, c.crossingCycle(c.batchRetire()))
	}
	return n
}

// retirableRun returns the length of the run of retirable entries at
// the window head — how many instructions can retire before the oldest
// load still waiting on its fill, the front of the load ring.
func (c *Core) retirableRun() int64 {
	if c.pendN == 0 {
		return int64(c.count)
	}
	return int64(c.age(c.pend[c.pendHead]))
}

// age returns how many window entries precede `slot`, counting from
// head.
func (c *Core) age(slot int) int {
	if d := slot - c.head; d >= 0 {
		return d
	}
	return slot - c.head + WindowSize
}

// batchRetire returns how many entries the first cycle of a batch
// retires and how many each later one does. The first retires a full
// group, or the whole retirable run if shorter. A later cycle retires a
// full group when no load is in flight (issue refills what retire
// drains) or when a full group lay ahead of the oldest waiting load at
// the batch's start (BatchableCycles then stops the batch before the
// run shrinks below a group), and nothing otherwise (the head is
// blocked on the load).
func (c *Core) batchRetire() (first, later int64) {
	run := c.retirableRun()
	first = min(run, Width)
	if c.pendN == 0 || run >= Width {
		later = Width
	}
	return first, later
}

// crossingCycle returns the batched cycle (1-based) on which the retire
// stream of batchRetire's first and later counts reaches TargetInsts,
// or math.MaxInt64 if it never does. The crossing needs an actual
// retire, so a target already reached — possible only with a target
// below one — lands on the first cycle that retires anything.
func (c *Core) crossingCycle(first, later int64) int64 {
	need := max(c.TargetInsts-c.Retired, 1)
	if need <= first {
		return 1
	}
	if later == 0 {
		return math.MaxInt64
	}
	return 1 + (need-first+later-1)/later
}

// AdvanceBatch fast-forwards the core over `cycles` skipped cycles (the
// cycles now+1 .. now+cycles, which the run loop will not execute) by
// applying the closed-form bubble execution in O(1): head moves past
// the retired entries and tail past the issued bubbles, modulo the
// window, exactly as the per-cycle Ticks move them, so the core is left
// in the dense loop's state, load ring and slot positions included.
// The caller must have established batchability (BatchableCycles() >=
// cycles) in the state the core had at cycle now, and must not have
// changed that state since: the run loop sizes the batch at cycle now,
// when the core goes to sleep, and applies it when the core wakes — at
// the batch's end, or cut short before a CompleteSlot for the core is
// delivered. A blocked core needs nothing: its Tick is a no-op.
func (c *Core) AdvanceBatch(now, cycles int64) {
	if cycles <= 0 {
		return
	}
	first, later := c.batchRetire()
	if c.FinishedAt == 0 {
		if k := c.crossingCycle(first, later); k <= cycles {
			c.FinishedAt = now + k
		}
	}
	retired := first + later*(cycles-1)
	issued := Width * cycles
	c.Retired += retired
	c.pending.Bubbles -= int(issued)
	c.head = int((int64(c.head) + retired) % WindowSize)
	c.tail = int((int64(c.tail) + issued) % WindowSize)
	c.count += int(issued - retired)
}

// ring wraps a slot index that is at most one window past the end.
func (c *Core) ring(i int) int {
	if i >= WindowSize {
		return i - WindowSize
	}
	return i
}

// retire drops n entries off the window head.
func (c *Core) retire(n int64) {
	c.head = c.ring(c.head + int(n))
	c.count -= int(n)
	c.Retired += n
}

// insert places one instruction at the window tail.
func (c *Core) insert() {
	c.tail = c.ring(c.tail + 1)
	c.count++
}

// WindowOccupancy returns the number of in-flight window entries.
func (c *Core) WindowOccupancy() int { return c.count }
