package cpu

import (
	"fmt"
	"math"

	"repro/internal/arena"
	"repro/internal/cache"
	"repro/internal/ev"
)

// TraceRecord is one unit of a core's instruction trace: Bubbles
// non-memory instructions followed by one memory access.
type TraceRecord struct {
	Bubbles int    // non-memory instructions preceding the access
	Addr    uint64 // physical address of the memory access
	IsWrite bool
}

// TraceReader supplies an endless instruction trace; generators in
// internal/workload implement it deterministically.
type TraceReader interface {
	Next() TraceRecord
}

// Config holds the core parameters from Table 1.
type Config struct {
	WindowSize  int // reorder/instruction window entries (256)
	IssueWidth  int // instructions issued per cycle (3)
	RetireWidth int // instructions retired per cycle (3)
}

// DefaultConfig returns Table 1's core parameters.
func DefaultConfig() Config {
	return Config{WindowSize: 256, IssueWidth: 3, RetireWidth: 3}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.WindowSize <= 0 || c.IssueWidth <= 0 || c.RetireWidth <= 0 {
		return fmt.Errorf("cpu: window (%d), issue (%d) and retire (%d) widths must be positive",
			c.WindowSize, c.IssueWidth, c.RetireWidth)
	}
	return nil
}

// Core is one simulated core.
type Core struct {
	ID  int
	cfg Config

	trace TraceReader  //fglint:preserved the cursor is checkpointed by the system layer (trace section), which knows the concrete reader type
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
func New(id int, cfg Config, trace TraceReader, l1 *cache.Cache, targetInsts int64) (*Core, error) {
	return NewIn(nil, id, cfg, trace, l1, targetInsts)
}

// NewIn is New with the window arrays (pend, waiting — both
// pointer-free) carved out of a. A nil arena keeps plain allocations.
func NewIn(a *arena.Arena, id int, cfg Config, trace TraceReader, l1 *cache.Cache, targetInsts int64) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if trace == nil || l1 == nil {
		return nil, fmt.Errorf("cpu: trace and l1 must be non-nil")
	}
	c := &Core{
		ID:          id,
		cfg:         cfg,
		trace:       trace,
		l1:          l1,
		pend:        arena.Slice[int](a, cfg.WindowSize),
		waiting:     arena.Slice[bool](a, cfg.WindowSize),
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
		if c.pendHead++; c.pendHead == c.cfg.WindowSize {
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
		if r := int64(c.cfg.RetireWidth); n > r {
			n = r
		}
		c.retire(n)
		if c.FinishedAt == 0 && c.Retired >= c.TargetInsts {
			c.FinishedAt = now
		}
	}

	// Issue.
	for i := 0; i < c.cfg.IssueWidth; i++ {
		if c.count >= c.cfg.WindowSize {
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
	if c.count < c.cfg.WindowSize {
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
// fetches no trace record), and retirement is predictable — either the
// whole window is retirable, or the run of retirable entries at the
// head is long enough that every batched cycle retires a full group
// before reaching the first entry still waiting on a load. Outstanding
// loads only complete through CompleteSlot, and the run loop may apply a
// batch later — whole, or cut short at an event — but always before it
// delivers any CompleteSlot for the core, so the retirable run cannot
// grow inside the batch. The count is capped at the cycle the core would
// reach its instruction target, so the run loop observes the finish
// exactly where the dense loop would. A window narrower than an issue
// group never batches: its steady state is issue-limited.
//
// Returns 0 when the next cycle must be executed normally.
func (c *Core) BatchableCycles() int64 {
	if !c.hasPending || c.cfg.IssueWidth != c.cfg.RetireWidth || c.cfg.IssueWidth > c.cfg.WindowSize {
		return 0
	}
	iw := int64(c.cfg.IssueWidth)
	// Cycles the dense loop would spend issuing only bubbles: a cycle
	// issues IssueWidth of them iff that many remain at its start.
	n := int64(c.pending.Bubbles) / iw
	if n <= 0 {
		return 0
	}
	if c.pendN == 0 {
		// Whole window retirable: issue refills what retire drains, so
		// the regime holds for the entire bubble run.
		if c.FinishedAt == 0 {
			if k := c.cyclesToTarget(); k < n {
				n = k
			}
		}
		return n
	}
	// Loads in flight: retirement stops at the front of the load ring.
	avail := c.retirableRun()
	if avail >= iw {
		// Full-group retire+issue cycles until the retirable run shrinks
		// below one group; occupancy is stable, so no window-full cycles.
		if m := avail / iw; m < n {
			n = m
		}
		if c.FinishedAt == 0 {
			need := c.TargetInsts - c.Retired
			if need < 1 {
				need = 1
			}
			if k := (need + iw - 1) / iw; k < n {
				n = k
			}
		}
		return n
	}
	// Head (nearly) blocked: the first cycle retires the remaining short
	// run, after which bubbles accumulate at issue width. Stop before the
	// window fills so no cycle is issue-limited (window-full cycles are
	// the blocked path's business).
	if m := (int64(c.cfg.WindowSize) - int64(c.count) + avail) / iw; m < n {
		n = m
	}
	if n <= 0 {
		return 0
	}
	if c.FinishedAt == 0 && c.TargetInsts-c.Retired <= avail {
		n = 1 // crossing happens on the batch's first (only retiring) cycle
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
	return slot - c.head + c.cfg.WindowSize
}

// cyclesToTarget returns the batched-cycle index (1-based) at which the
// retire stream crosses TargetInsts in the all-done regime: the first
// cycle retires min(RetireWidth, count) entries, every later one a full
// RetireWidth (the window refills at issue width each cycle).
func (c *Core) cyclesToTarget() int64 {
	r0 := int64(c.cfg.RetireWidth)
	if int64(c.count) < r0 {
		r0 = int64(c.count)
	}
	need := c.TargetInsts - c.Retired
	if need < 1 {
		// Only reachable with a zero/negative target: the crossing still
		// needs one actual retire, so it lands on the first retiring cycle.
		need = 1
	}
	if need <= r0 {
		return 1
	}
	r := int64(c.cfg.RetireWidth)
	return 1 + (need-r0+r-1)/r
}

// AdvanceBatch fast-forwards the core over `cycles` skipped cycles (the
// cycles now+1 .. now+cycles, which the run loop will not execute) by
// applying the closed-form bubble execution. The caller must have
// established batchability (BatchableCycles() >= cycles) in the state
// the core had at cycle now, and must not have changed that state
// since: the run loop sizes the batch at cycle now, when the core goes
// to sleep, and applies it when the core wakes — at the batch's end, or
// cut short before a CompleteSlot for the core is delivered. A blocked
// core needs nothing: its Tick is a no-op.
func (c *Core) AdvanceBatch(now, cycles int64) {
	if cycles <= 0 {
		return
	}
	if c.pendN == 0 {
		c.advanceAllDone(now, cycles)
	} else {
		c.advanceInFlight(now, cycles)
	}
}

// advanceAllDone applies `cycles` bubble cycles over a fully retirable
// window. Instead of sliding the ring — whose absolute position is
// unobservable while no load is in it — the window is left in place and
// only grown to its steady-state occupancy, so the cost is O(1)
// regardless of span.
func (c *Core) advanceAllDone(now, cycles int64) {
	r := int64(c.cfg.RetireWidth)
	r0 := r
	if int64(c.count) < r0 {
		r0 = int64(c.count)
	}
	retired := r0 + r*(cycles-1)
	c.pending.Bubbles -= int(int64(c.cfg.IssueWidth) * cycles)
	// Resolve the target-crossing cycle before mutating Retired, with
	// the same formula BatchableCycles used to cap the batch (the cap
	// puts the crossing on the batch's last cycle).
	crossAt := int64(0)
	if c.FinishedAt == 0 && c.Retired+retired >= c.TargetInsts {
		crossAt = now + c.cyclesToTarget()
	}
	c.Retired += retired
	if crossAt > 0 {
		c.FinishedAt = crossAt
	}
	// Steady-state occupancy: a window below RetireWidth refills to it on
	// the first cycle (retire everything, issue a full group) and then
	// holds; a larger window retires and issues in lockstep.
	if grow := int(r) - c.count; grow > 0 {
		c.tail = c.ring(c.tail + grow)
		c.count += grow
	}
}

// advanceInFlight applies `cycles` bubble cycles while loads are in
// flight. The loads pin absolute ring positions (their completion
// tokens name their slots), so head and tail move exactly as the dense
// per-cycle loop would move them. Retiring and inserting bubbles touch
// no per-slot state, so the cost is O(1) regardless of span.
func (c *Core) advanceInFlight(now, cycles int64) {
	iw := int64(c.cfg.IssueWidth)
	avail := c.retirableRun()
	var retired int64
	if avail >= iw {
		retired = iw * cycles // full retire group every batched cycle
	} else {
		retired = avail // first cycle drains the run; the rest retire 0
	}
	c.retire(retired)
	if c.FinishedAt == 0 && c.Retired >= c.TargetInsts {
		need := c.TargetInsts - (c.Retired - retired)
		if need < 1 {
			need = 1
		}
		k := int64(1)
		if avail >= iw {
			k = (need + iw - 1) / iw
		}
		c.FinishedAt = now + k
	}
	ins := int(iw * cycles)
	c.pending.Bubbles -= ins
	c.tail = c.ring(c.tail + ins)
	c.count += ins
}

// ring wraps a slot index that is at most one window past the end.
func (c *Core) ring(i int) int {
	if i >= c.cfg.WindowSize {
		return i - c.cfg.WindowSize
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
