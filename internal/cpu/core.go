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

	// Instruction window: a ring buffer of completion flags. done[i]
	// marks the entry ready to retire. epoch[i] disambiguates reuse of a
	// slot, so a late load completion cannot mark a newer instruction
	// done after its own entry retired.
	done  []bool
	epoch []int64
	head  int
	tail  int
	count int

	// issueEp[i] is the epoch the in-flight load in slot i was issued
	// with. A load's completion is the CoreSlot event token carrying this
	// core's ID and the slot index; CompleteSlot compares the slot's
	// current epoch against issueEp to reject a stale completion after
	// the entry retired and the slot was reused.
	issueEp []int64

	pending    TraceRecord
	hasPending bool

	// pendingFills counts window entries whose load has not completed
	// yet (inserted not-done, completion callback still outstanding).
	// Zero means every in-window entry is retirable, the precondition
	// for the fastest closed-form batch execution of bubble runs.
	pendingFills int
	// avail is the length of the run of completed entries at the window
	// head: done[head .. head+avail) are all true and entry head+avail
	// (if within the window) still waits on its load. Maintained
	// incrementally — retires shrink it, completions extend it, each
	// entry joining the run exactly once — so the cycle-skipping engine
	// can size retire batches in O(1) per query.
	avail int

	// Progress.
	Retired int64
	// TargetInsts, when reached, records FinishedAt once; the core keeps
	// running (its trace continues) so it still exerts memory pressure on
	// co-running cores, per the multiprogrammed-evaluation methodology.
	TargetInsts int64
	FinishedAt  int64 // cycle Retired first reached TargetInsts; 0 if not yet

	// Stats.
	LoadStalls  int64 // cycles issue stopped on a refused load (MSHRs full)
	StoreStalls int64 // cycles issue stopped on a refused store (MSHRs full)
	WindowFull  int64 // cycles issue stopped on a full window
}

// New builds a core reading trace and accessing the hierarchy through l1.
func New(id int, cfg Config, trace TraceReader, l1 *cache.Cache, targetInsts int64) (*Core, error) {
	return NewIn(nil, id, cfg, trace, l1, targetInsts)
}

// NewIn is New with the window rings (done/epoch/issueEp — all
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
		done:        arena.Slice[bool](a, cfg.WindowSize),
		epoch:       arena.Slice[int64](a, cfg.WindowSize),
		issueEp:     arena.Slice[int64](a, cfg.WindowSize),
		TargetInsts: targetInsts,
	}
	return c, nil
}

// CompleteSlot marks the load occupying `slot` done — the action of the
// CoreSlot event token issued with it. The epoch guard rejects a stale
// completion: valid only while the slot's epoch still matches the epoch
// recorded at issue (a reused slot has a different epoch).
func (c *Core) CompleteSlot(slot int) {
	if c.epoch[slot] == c.issueEp[slot] && !c.done[slot] {
		c.done[slot] = true
		c.pendingFills--
		c.extendAvail(slot)
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
	// Retire.
	for r := 0; r < c.cfg.RetireWidth && c.count > 0 && c.done[c.head]; r++ {
		c.done[c.head] = false
		c.avail--
		c.head++
		if c.head == c.cfg.WindowSize {
			c.head = 0
		}
		c.count--
		c.Retired++
		if c.FinishedAt == 0 && c.Retired >= c.TargetInsts {
			c.FinishedAt = now
		}
	}

	// Issue.
	for i := 0; i < c.cfg.IssueWidth; i++ {
		if c.count >= c.cfg.WindowSize {
			c.WindowFull++
			return
		}
		if !c.hasPending {
			c.pending = c.trace.Next()
			c.hasPending = true
		}
		if c.pending.Bubbles > 0 {
			c.pending.Bubbles--
			c.insert(true)
			continue
		}
		// The memory access of the pending record.
		if c.pending.IsWrite {
			// Stores retire immediately; the write continues through the
			// hierarchy in the background.
			if !c.l1.Access(c.pending.Addr, true, ev.Token{}) {
				c.StoreStalls++
				return // retry next cycle
			}
			c.insert(true)
		} else {
			// The completion token is valid while the slot's epoch still
			// matches the epoch recorded at issue; a late dispatch after
			// the entry retired and the slot was reused finds a different
			// epoch and is ignored (see CompleteSlot).
			slot := c.tail
			c.issueEp[slot] = c.epoch[slot] + 1
			tok := ev.Token{Kind: ev.CoreSlot, ID: int32(c.ID), Arg: uint64(slot)}
			if !c.l1.Access(c.pending.Addr, false, tok) {
				c.LoadStalls++
				return
			}
			c.insert(false)
		}
		c.hasPending = false
	}
}

// NextWake returns the next CPU cycle at which Tick could make progress:
// now+1 while the core can retire or issue, or math.MaxInt64 when it is
// fully blocked (window head waiting on a fill, or the pending memory
// access refused by the L1). A blocked core's state only changes through
// scheduler events — a cache fill marking a window entry done or freeing
// an L1 MSHR — so the run loop may skip it until the next event fires.
func (c *Core) NextWake(now int64) int64 {
	if c.count > 0 && c.done[c.head] {
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

// AccountSkipped credits the stall counters for cycles the run loop
// skipped while the core was fully blocked (NextWake == MaxInt64). The
// dense loop would have ticked the core each of those cycles, recording
// one window-full cycle, or one refused issue attempt (a load or store
// stall plus an L1 retry), so the diagnostic statistics stay
// engine-independent.
func (c *Core) AccountSkipped(cycles int64) {
	if cycles <= 0 {
		return
	}
	if c.count >= c.cfg.WindowSize {
		c.WindowFull += cycles
		return
	}
	if c.pending.IsWrite {
		c.StoreStalls += cycles
	} else {
		c.LoadStalls += cycles
	}
	c.l1.AccountRefused(c.pending.IsWrite, cycles)
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
// exactly where the dense loop would.
//
// Returns 0 when the next cycle must be executed normally.
func (c *Core) BatchableCycles() int64 {
	if !c.hasPending || c.cfg.IssueWidth != c.cfg.RetireWidth {
		return 0
	}
	iw := int64(c.cfg.IssueWidth)
	// Cycles the dense loop would spend issuing only bubbles: a cycle
	// issues IssueWidth of them iff that many remain at its start.
	n := int64(c.pending.Bubbles) / iw
	if n <= 0 {
		return 0
	}
	if c.pendingFills == 0 {
		// Whole window retirable: issue refills what retire drains, so
		// the regime holds for the entire bubble run.
		if c.FinishedAt == 0 {
			if k := c.cyclesToTarget(); k < n {
				n = k
			}
		}
		return n
	}
	// Loads in flight: retirement stops at the first not-done entry.
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

// retirableRun returns the length of the run of completed entries at the
// window head — how many instructions can retire before the first entry
// still waiting on its load.
func (c *Core) retirableRun() int64 { return int64(c.avail) }

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
// cut short before a CompleteSlot for the core is delivered. Blocked
// cores take AccountSkipped instead.
func (c *Core) AdvanceBatch(now, cycles int64) {
	if cycles <= 0 {
		return
	}
	if c.pendingFills == 0 {
		c.advanceAllDone(now, cycles)
	} else {
		c.advanceInFlight(now, cycles)
	}
}

// advanceAllDone applies `cycles` bubble cycles over a fully retirable
// window. Instead of sliding the ring buffer — whose absolute position
// is unobservable: retire/issue only read done/epoch relative to head
// and tail, and the epoch guard only compares values recorded at issue
// — the window is left in place and only grown to its steady-state
// occupancy, so the cost is O(RetireWidth) regardless of span.
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
	for int64(c.count) < r {
		c.insert(true)
	}
}

// advanceInFlight applies `cycles` bubble cycles while loads are in
// flight. Here the not-done entries pin absolute ring positions (their
// completion tokens name their physical slots), so the ring is
// updated exactly as the dense per-cycle loop would: retired entries
// are cleared off the head, issued bubbles inserted at the tail.
func (c *Core) advanceInFlight(now, cycles int64) {
	iw := int64(c.cfg.IssueWidth)
	avail := c.retirableRun()
	var retired int64
	if avail >= iw {
		retired = iw * cycles // full retire group every batched cycle
	} else {
		retired = avail // first cycle drains the run; the rest retire 0
	}
	w := c.cfg.WindowSize
	// Clear the retired entries off the head in at most two wrap-free
	// runs; the range-clear loops compile to block fills instead of a
	// per-entry wrap check.
	if h, n := c.head, int(retired); h+n <= w {
		clearDone(c.done[h : h+n])
		if h += n; h == w {
			h = 0
		}
		c.head = h
	} else {
		clearDone(c.done[h:])
		h += n - w
		clearDone(c.done[:h])
		c.head = h
	}
	c.count -= int(retired)
	c.avail -= int(retired)
	c.Retired += retired
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
	c.pending.Bubbles -= int(iw * cycles)
	// Tight bubble-insert loop: the generic insert pays a wrap check and
	// pendingFills/avail bookkeeping per entry; here every entry is a
	// completed bubble behind a pending load, so only the done flags need
	// writing. The epoch bump is skipped too: epochs disambiguate slot
	// reuse for *load* completion tokens, every token fires exactly
	// once before its entry can retire, and the `!done` guard already
	// rejects a (hypothetical) stale fire while a bubble occupies the
	// slot — a bubble entry is done for its whole residence. Epoch values
	// are only ever compared against issueEp recorded at load issue, so
	// skipping bumps for bubbles leaves that relation intact.
	ins := int(iw * cycles)
	if t := c.tail; t+ins <= w {
		setDone(c.done[t : t+ins])
		if t += ins; t == w {
			t = 0
		}
		c.tail = t
	} else {
		setDone(c.done[t:])
		t += ins - w
		setDone(c.done[:t])
		c.tail = t
	}
	c.count += ins
}

// clearDone and setDone fill a done-flag run; kept as named helpers so
// both wrap halves share the compiler's block-fill lowering.
func clearDone(s []bool) {
	for i := range s {
		s[i] = false
	}
}

func setDone(s []bool) {
	for i := range s {
		s[i] = true
	}
}

// insert places one instruction at the window tail.
func (c *Core) insert(done bool) {
	c.done[c.tail] = done
	if !done {
		c.pendingFills++
	} else if c.avail == c.count {
		c.avail++ // the retirable head run reaches the tail: extend it
	}
	c.epoch[c.tail]++
	c.tail++
	if c.tail == c.cfg.WindowSize {
		c.tail = 0
	}
	c.count++
}

// extendAvail grows the retirable head run after the entry in `slot`
// completed. Only a completion at the run's exact end extends it; the
// run then absorbs any already-completed entries behind it. Each entry
// is absorbed exactly once, so the maintenance is O(1) amortized.
func (c *Core) extendAvail(slot int) {
	end := c.head + c.avail
	if end >= c.cfg.WindowSize {
		end -= c.cfg.WindowSize
	}
	if slot != end {
		return
	}
	for c.avail < c.count {
		i := c.head + c.avail
		if i >= c.cfg.WindowSize {
			i -= c.cfg.WindowSize
		}
		if !c.done[i] {
			break
		}
		c.avail++
	}
}

// WindowOccupancy returns the number of in-flight window entries.
func (c *Core) WindowOccupancy() int { return c.count }
