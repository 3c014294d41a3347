package memctrl

import (
	"math"
	"math/bits"

	"repro/internal/arena"
	"repro/internal/dram"
	"repro/internal/ev"
	"repro/internal/stats"
)

// CacheHook is the interface through which an in-DRAM cache (FIGCache or
// LISA-VILLA, in internal/core) plugs into the memory controller. The
// controller consults the hook on every request, and notifies it when a
// miss finishes its column access with the source row still open — the
// moment FIGCache exploits to relocate the row segment into the cache
// without paying the first ACTIVATE (Section 8.1 of the paper).
type CacheHook interface {
	// Lookup checks whether the block at loc is cached. On a hit it
	// returns the in-DRAM cache location that serves the request. The
	// hook updates its benefit/dirty metadata internally.
	Lookup(loc dram.Location, isWrite bool) (redirect dram.Location, hit bool)

	// ShouldInsert asks the insertion policy whether the missing block's
	// segment should be relocated into the cache once its row is open.
	ShouldInsert(loc dram.Location) bool

	// Insert performs the cache bookkeeping for inserting the segment
	// containing loc, assuming the source row is currently open in its
	// local row buffer. It returns the relocation work to perform:
	// occupancy cycles for the bank and the number of RELOC column
	// operations (or LISA hops). A nil plan means the insertion was
	// cancelled (e.g. no evictable slot). The returned plan is valid
	// only until the hook's next Insert call: the controller copies it
	// into pooled storage immediately, which lets hooks return a pointer
	// to a reused scratch plan instead of allocating per insertion.
	Insert(ch *dram.Channel, loc dram.Location, now int64) *RelocPlan

	// Commit installs the cache tags for a plan this hook returned from
	// Insert, at the moment the controller executes the relocation. The
	// plan's CommitBank/CommitSlot/CommitRow/CommitSeg fields carry the
	// hook-specific payload recorded at Insert time.
	Commit(p *RelocPlan)
}

// RelocPlan describes in-DRAM relocation work the controller must apply to
// a bank: total occupancy cycles and accounting detail. The controller
// defers the work until the source row is about to close; CacheHook.Commit
// installs the cache metadata at that point, so requests arriving while
// the source row is still open keep being served from it (as row hits),
// exactly as the paper's insertion sequence allows (Section 8.1). The plan
// is plain data — the commit payload is carried in the Commit* fields
// rather than a closure — so deferred plans survive a checkpoint.
type RelocPlan struct {
	Loc    dram.Location // bank being occupied
	Cost   int64         // occupancy in bus cycles
	Blocks int           // FIGARO RELOC column operations performed
	Hops   int           // LISA inter-subarray hops performed
	IsLISA bool
	// ChannelWide marks a RowClone-PSM relocation: the copy crosses the
	// shared global data bus and occupies every bank in the channel, not
	// just the source bank.
	ChannelWide bool
	// Commit payload, recorded by the hook's Insert and consumed by its
	// Commit: the hook-local dense bank index, the reserved slot, and the
	// source row (FIGCache additionally uses the segment index).
	CommitBank int
	CommitSlot int
	CommitRow  int
	CommitSeg  int
}

// Config holds the controller parameters from Table 1.
type Config struct {
	ReadQueueDepth  int
	WriteQueueDepth int
	// Write drain watermarks: the controller switches to write mode when
	// the write queue reaches HighWatermark and leaves it at LowWatermark.
	HighWatermark int
	LowWatermark  int
	// IdleFlushAfter is how long (bus cycles) a bank must be free of
	// column traffic before an otherwise idle tick may spend it on
	// deferred relocation work.
	IdleFlushAfter int64
	// ImmediateReloc executes insertion relocations at miss time instead
	// of deferring them to row close. This is the naive policy the
	// deferred design is ablated against: it steals row hits from queued
	// requests and occupies hot banks at their busiest moment.
	ImmediateReloc bool
	// LatSampleCap bounds the per-controller read-latency sample
	// reservoir; 0 selects the default (2048 samples).
	LatSampleCap int
}

// DefaultConfig returns the 64-entry read/write queues from Table 1.
func DefaultConfig() Config {
	return Config{
		ReadQueueDepth: 64, WriteQueueDepth: 64,
		HighWatermark: 48, LowWatermark: 16,
		IdleFlushAfter: 64, // ~80 ns of bank quiet time
	}
}

// Controller is one channel's memory controller. It ticks once per DRAM
// bus cycle and issues at most one command per tick, chosen by FR-FCFS:
// column commands to open rows first (row hits), then the oldest request.
type Controller struct {
	ID      int
	cfg     Config
	channel *dram.Channel
	cache   CacheHook //fglint:preserved wiring only, bound at construction; the system layer checkpoints the hook's state

	readQ   *queue
	writeQ  *queue
	writing bool // in write-drain mode

	// pendingRelocs holds cache-insertion relocation plans per bank
	// (indexed by dense bank ID), deferred until the source row's useful
	// life ends (conflict precharge, refresh precharge, or an idle tick).
	// Deferring keeps the row open for queued row hits — the RELOCs only
	// need the row in the local row buffer, and the controller schedules
	// them when no column commands are pending (Section 8.1).
	pendingRelocs [][]*RelocPlan
	// planPool recycles RelocPlan storage: issueColumn copies each plan
	// the hook returns into a pooled object, and flushRelocs returns the
	// objects after Commit, so steady-state relocation traffic allocates
	// nothing.
	//fglint:preserved recycled plans are fully overwritten before reuse, so pooled storage carries no state
	planPool []*RelocPlan
	// relocMask has bit i set while bank i holds pending relocation
	// plans, so an idle tick visits only the banks with deferred work
	// instead of scanning every bank. Derived from pendingRelocs: Restore
	// rebuilds it.
	relocMask []uint64
	// lastColumn records each bank's last column-access cycle (indexed by
	// dense bank ID); the idle flush waits IdleFlushAfter cycles beyond
	// it, so relocations do not close a row in the middle of a spatial
	// burst whose next block is still working its way down the cache
	// hierarchy.
	lastColumn []int64
	// cands is scratch space for the FR-FCFS pass-1 arbitration: one
	// column-command candidate per open bank (the bank's oldest request
	// matching the open row, plus its bucket index). At most one entry
	// per bank, reused across ticks without allocating.
	cands []colCand
	// lastTick is the bus cycle of the previous Tick call, used to credit
	// the write-drain diagnostic for ticks a cycle-skipping caller
	// elided; -1 before the first tick.
	lastTick int64

	// Stats.
	NumReads, NumWrites    int64
	CacheHits, CacheMisses int64
	ReadLatencySum         int64 // queue-arrival to data cycles, reads only
	Inserted               int64 // segments inserted into the in-DRAM cache
	QueueFullStalls        int64

	// Diagnostics for calibration and latency-composition analysis.
	MaxReadQ, MaxWriteQ int
	WritingCycles       int64 // bus cycles spent in write-drain mode
	// latSamples keeps a bounded, deterministic reservoir of per-read
	// latencies (bus cycles) instead of an unbounded append-per-read
	// slice, so full-scale runs stop accumulating one int64 per read.
	latSamples *stats.Reservoir

	// Release, when non-nil, receives each request after the controller
	// has fully served it (column command issued, completion callback
	// scheduled, insertion bookkeeping done). The request creator uses it
	// to recycle Request objects; the controller never touches a request
	// after releasing it.
	Release func(*Request)
}

// NewController builds a controller over the channel. cache may be nil for
// the Base configuration.
func NewController(id int, cfg Config, ch *dram.Channel, cache CacheHook) *Controller {
	return NewControllerIn(nil, id, cfg, ch, cache)
}

// NewControllerIn is NewController with the pointer-free per-bank arrays
// (last-column registers, queue occupancy indexes) carved out of a. A
// nil arena keeps plain allocations.
func NewControllerIn(a *arena.Arena, id int, cfg Config, ch *dram.Channel, cache CacheHook) *Controller {
	if cfg.LatSampleCap == 0 {
		cfg.LatSampleCap = 2048
	}
	return &Controller{
		ID:            id,
		cfg:           cfg,
		channel:       ch,
		cache:         cache,
		readQ:         newQueueIn(a, cfg.ReadQueueDepth, ch.NumBanks()),
		writeQ:        newQueueIn(a, cfg.WriteQueueDepth, ch.NumBanks()),
		pendingRelocs: make([][]*RelocPlan, ch.NumBanks()),
		relocMask:     arena.Slice[uint64](a, (ch.NumBanks()+63)/64),
		lastColumn:    arena.Slice[int64](a, ch.NumBanks()),
		cands:         make([]colCand, 0, ch.NumBanks()),
		lastTick:      -1,
		// Seed by controller ID so per-channel reservoirs differ but any
		// two runs of the same configuration sample identically.
		latSamples: stats.NewReservoir(cfg.LatSampleCap, uint64(id)+1),
	}
}

// Channel exposes the underlying DRAM channel (stats, tests).
func (c *Controller) Channel() *dram.Channel { return c.channel }

// AccountSkippedTail credits the write-drain diagnostic for no-op ticks
// between the controller's last tick and the end of the run (bus cycle
// lastBus inclusive). Tick credits skipped ticks lazily on the next
// call, so a run that ends mid-gap must settle the remainder here to
// keep WritingCycles identical to the dense cycle-by-cycle loop.
func (c *Controller) AccountSkippedTail(lastBus int64) {
	if c.writing && c.lastTick >= 0 && lastBus > c.lastTick {
		c.WritingCycles += lastBus - c.lastTick
	}
	c.lastTick = lastBus
}

// CanAccept reports whether a request of the given kind can enter its
// queue this cycle.
func (c *Controller) CanAccept(isWrite bool) bool {
	if isWrite {
		return !c.writeQ.full()
	}
	return !c.readQ.full()
}

// Enqueue adds a request. The caller must have checked CanAccept. The
// controller performs the in-DRAM cache lookup at enqueue time: the tag
// store (FTS) lives in the memory controller and is consulted for every
// memory request (Section 5.1).
func (c *Controller) Enqueue(r *Request, now int64) {
	r.Arrive = now
	r.ServiceLoc = r.Loc
	if c.cache != nil {
		if redirect, hit := c.cache.Lookup(r.Loc, r.IsWrite); hit {
			r.ServiceLoc = redirect
			r.CacheHit = true
			c.CacheHits++
		} else {
			c.CacheMisses++
			if !c.cache.ShouldInsert(r.Loc) {
				r.noInsert = true
			}
		}
	}
	r.bankID = r.ServiceLoc.BankID(c.channel.Geo)
	r.bank = c.channel.BankByID(r.bankID)
	if r.IsWrite {
		c.writeQ.push(r)
	} else {
		c.readQ.push(r)
	}
}

// PendingReads returns the number of queued read requests.
func (c *Controller) PendingReads() int { return c.readQ.size() }

// PendingWrites returns the number of queued write requests.
func (c *Controller) PendingWrites() int { return c.writeQ.size() }

// Tick advances the controller by one bus cycle, issuing at most one
// command. done receives completion callbacks to schedule; the controller
// calls them synchronously at the data-end cycle via the deferred list the
// caller drains.
//
// The return value is the controller's next-work probe: a lower bound on
// the next bus cycle at which the controller could change state, assuming
// no new request is enqueued before then. The run loop may skip all bus
// cycles up to (but not including) that cycle; ticking earlier is always
// safe and behaves exactly like the skipped idle ticks (a no-op).
func (c *Controller) Tick(now int64, schedule func(at int64, tok ev.Token)) int64 {
	// Credit the write-drain diagnostic for ticks the caller skipped: a
	// skipped tick is by contract a no-op, but the dense loop would still
	// have counted it as a write-drain cycle while the mode was active
	// (the mode cannot change during no-op ticks — queue sizes are
	// stable, so the hysteresis is at a fixed point).
	if c.writing && c.lastTick >= 0 && now > c.lastTick+1 {
		c.WritingCycles += now - c.lastTick - 1
	}
	c.lastTick = now

	// Refresh has strict priority once due: the controller stops issuing
	// new work to the rank, precharges its open banks as their timing
	// allows, and issues REF as soon as every bank is closed and the bus
	// timing permits. Without the full stop, normal scheduling would
	// re-activate rows between precharges and the refresh would starve.
	if rank, due := c.channel.RefreshDue(now); due {
		cmd := dram.Command{Type: dram.CmdREF, Loc: dram.Location{Rank: rank}}
		if at, ok := c.channel.CanIssue(&cmd, now); ok {
			if at <= now {
				c.channel.Issue(&cmd, now)
			}
			return now + 1 // all banks closed; wait for REF timing
		}
		c.prechargeForRefresh(rank, now)
		return now + 1 // hold new work until the refresh has issued
	}

	c.noteQueueDepths()
	// Write drain mode hysteresis.
	if c.writing {
		if c.writeQ.size() <= c.cfg.LowWatermark {
			c.writing = false
		}
	} else if c.writeQ.full() || c.writeQ.size() >= c.cfg.HighWatermark {
		c.writing = true
	} else if c.readQ.empty() && c.writeQ.size() > 0 {
		c.writing = true // opportunistic drain when no reads are waiting
	}

	q := c.readQ
	if c.writing {
		c.WritingCycles++
		q = c.writeQ
	}
	if q.empty() {
		// Nothing in the preferred queue; try the other one.
		if c.writing {
			q = c.readQ
		} else {
			q = c.writeQ
		}
	}
	nextAt := int64(math.MaxInt64)
	if !q.empty() {
		issued, qNext := c.schedule(q, now, schedule)
		if issued {
			return now + 1
		}
		nextAt = qNext
	}
	// Nothing issuable this tick: spend it on deferred relocations.
	flushed, relocNext := c.flushIdleRelocs(now)
	if flushed {
		return now + 1
	}
	if relocNext < nextAt {
		nextAt = relocNext
	}
	if t := c.channel.NextRefresh(); t < nextAt {
		nextAt = t
	}
	if nextAt <= now {
		nextAt = now + 1
	}
	return nextAt
}

// prechargeForRefresh closes one open bank in the rank; returns true if a
// PRE was issued.
func (c *Controller) prechargeForRefresh(rank int, now int64) bool {
	geo := c.channel.Geo
	for g := 0; g < geo.BankGroups; g++ {
		for b := 0; b < geo.BanksPerGroup; b++ {
			loc := dram.Location{Rank: rank, Group: g, Bank: b}
			bank := c.channel.Bank(loc)
			if row, cache := bank.Open(); row != -1 {
				loc.Row, loc.CacheRow = row, cache
				cmd := dram.Command{Type: dram.CmdPRE, Loc: loc}
				if at, ok := c.channel.CanIssue(&cmd, now); ok && at <= now {
					if c.flushRelocs(loc.BankID(geo), now, true) {
						return true
					}
					c.channel.Issue(&cmd, now)
					return true
				}
			}
		}
	}
	return false
}

// flushRelocs performs the deferred relocation work for a bank, occupying
// it for the combined cost and leaving it precharged. rowOpen indicates
// that the source rows' data is still reachable via the open-row path; if
// the bank was already closed (e.g. the row was precharged by refresh
// before the flush), each plan pays an extra ACTIVATE to reopen its source
// row. Returns false when the bank has no pending work.
func (c *Controller) flushRelocs(bankID int, now int64, rowOpen bool) bool {
	plans := c.pendingRelocs[bankID]
	if len(plans) == 0 {
		return false
	}
	// Keep the backing array: the bank will accumulate plans again, and
	// regrowing the slice every flush is a steady-state allocation.
	c.pendingRelocs[bankID] = plans[:0]
	c.relocMask[bankID>>6] &^= 1 << (bankID & 63)
	var cost int64
	blocks, hops := 0, 0
	isLISA, channelWide := false, false
	for _, p := range plans {
		cost += p.Cost
		if !rowOpen {
			cost += int64(c.channel.Slow.RCD)
		}
		blocks += p.Blocks
		hops += p.Hops
		isLISA = isLISA || p.IsLISA
		channelWide = channelWide || p.ChannelWide
		c.cache.Commit(p)
	}
	if channelWide {
		c.channel.RelocateAll(plans[0].Loc, now, cost, blocks)
	} else {
		c.channel.Relocate(plans[0].Loc, now, cost, blocks, isLISA, hops)
	}
	for i, p := range plans {
		c.planPool = append(c.planPool, p)
		plans[i] = nil
	}
	return true
}

// takePlan returns a recycled RelocPlan from the pool, or a fresh one
// when the pool is empty. Callers fully overwrite the plan.
func (c *Controller) takePlan() *RelocPlan {
	if n := len(c.planPool); n > 0 {
		p := c.planPool[n-1]
		c.planPool = c.planPool[:n-1]
		return p
	}
	return new(RelocPlan)
}

// relocFlushReady returns the earliest bus cycle at which the bank's
// deferred relocation work may be flushed: the quiet window after its
// last column access must have elapsed (IdleFlushAfter), and the bank
// must be able to precharge (row open, tRAS met) or activate (row
// closed). math.MaxInt64 when the bank has no pending work. Both the
// idle flush and the next-work probe derive from this single predicate,
// so the cycle-skipping engine can never wake later than a flush.
func (c *Controller) relocFlushReady(bankID int, now int64) int64 {
	plans := c.pendingRelocs[bankID]
	if len(plans) == 0 {
		return math.MaxInt64
	}
	bank := c.channel.Bank(plans[0].Loc)
	var ready int64
	if row, _ := bank.Open(); row != -1 {
		ready, _ = bank.CanPRE(now) // a bank with an open row can always PRE eventually
	} else {
		ready, _ = bank.CanACT(now) // a closed bank can always ACT eventually
	}
	if quiet := c.lastColumn[bankID] + c.cfg.IdleFlushAfter; quiet > ready {
		ready = quiet
	}
	return ready
}

// flushIdleRelocs spends an otherwise idle tick performing deferred
// relocation work on a bank that no queued request needs right now and
// that has been quiet for at least IdleFlushAfter cycles. The banks with
// pending work (relocMask's set bits) are visited in ascending ID order
// so that runs are deterministic when several banks are eligible on the
// same tick. When nothing is flushed, nextAt is the earliest bus cycle a
// flush could happen (math.MaxInt64 if no work is pending), so the
// caller gets the next-work probe from the same single walk.
func (c *Controller) flushIdleRelocs(now int64) (flushed bool, nextAt int64) {
	nextAt = math.MaxInt64
	for w, word := range c.relocMask {
		for ; word != 0; word &= word - 1 {
			bankID := w<<6 | bits.TrailingZeros64(word)
			ready := c.relocFlushReady(bankID, now)
			if ready > now {
				if ready < nextAt {
					nextAt = ready
				}
				continue
			}
			row, _ := c.channel.Bank(c.pendingRelocs[bankID][0].Loc).Open()
			c.flushRelocs(bankID, now, row != -1)
			return true, now + 1
		}
	}
	return false, nextAt
}

// colCand is one bank's pass-1 column candidate: the bank's oldest
// request matching its open row, and that request's bucket index.
type colCand struct {
	r   *Request
	idx int
}

// schedule implements FR-FCFS over queue q: first any request whose column
// command is ready on an open row (oldest first), then the oldest request,
// for which it issues the next command of the ACT/PRE sequence.
//
// Both passes run over the queue's per-bank buckets, so the work per tick
// is bounded by the number of banks with queued work, not the queue depth
// (the lever behind deep write-queue drains). The bucket walk is exactly
// equivalent to the former whole-queue age-order scan:
//
//   - Pass 1: only a bank with an open row can serve a column command,
//     and within one bank every request matching the open row builds the
//     identical command (same rank/group/bank/row, same type — the queue
//     is all-reads or all-writes), so they share one CanIssue answer.
//     The oldest match per open bank therefore stands in for all of
//     them, and trying those candidates oldest-first until one is
//     issuable reproduces the age-order scan's choice (and its CanIssue
//     call order, minus same-bank duplicates). Arbitration is
//     incremental: occupied is head-age ordered, and every candidate a
//     later bank can contribute is younger than that bank's head, so a
//     pending candidate older than the current bank's head is final —
//     it is tried (and usually issues) without visiting the remaining
//     banks, preserving the age scan's early exit.
//
//   - Pass 2 only ever acted on the oldest request per bank (younger
//     requests to a claimed bank were skipped: they must not precharge a
//     row an older request is still waiting on). The bucket heads are
//     those oldest-per-bank requests, and occupied's head-age order is
//     the order the old scan claimed banks in, so a direct front-to-back
//     iteration visits them identically.
//
// When nothing is issuable this tick, nextAt is the earliest bus cycle at
// which any considered command becomes issuable. The DRAM timing windows
// only move when a command issues, so nextAt stays valid until the next
// enqueue — the run loop can skip the idle ticks in between.
func (c *Controller) schedule(q *queue, now int64, schedule func(at int64, tok ev.Token)) (issued bool, nextAt int64) {
	nextAt = math.MaxInt64
	// Pass 1: row hits — column command ready now. Closed banks are
	// skipped whole; an open bank's bucket is scanned only up to its
	// oldest request matching the open row.
	cands := c.cands[:0]
	ci := 0 // arbitration cursor: cands[ci:] are pending, seq-ordered
	tryCand := func(cc colCand) bool {
		if at, ok := c.channel.CanColumn(cc.r.bank, &cc.r.ServiceLoc, cc.r.IsWrite, now); ok {
			if at <= now {
				c.issueColumn(q, cc.idx, cc.r, now, schedule)
				return true
			}
			if at < nextAt {
				nextAt = at
			}
		}
		return false
	}
	for k, h := range q.heads {
		// Pending candidates older than this bank's head cannot be
		// displaced by this or any later bank: arbitrate them now.
		for ci < len(cands) && cands[ci].r.seq < h.seq {
			cc := cands[ci]
			ci++
			if tryCand(cc) {
				return true, now + 1
			}
		}
		var cand colCand
		if h.bank.IsOpen(h.ServiceLoc.CacheRow, h.ServiceLoc.Row) {
			cand = colCand{h, 0}
		} else {
			row, cacheRow := h.bank.Open()
			if row == -1 {
				continue
			}
			// Head misses the open row; find the bank's oldest match.
			bucket := q.byBank[q.occupied[k]]
			for i := 1; i < len(bucket); i++ {
				if r := bucket[i]; r.ServiceLoc.Row == row && r.ServiceLoc.CacheRow == cacheRow {
					cand = colCand{r, i}
					break
				}
			}
			if cand.r == nil {
				continue
			}
		}
		// Keep the pending window seq-ordered; candidates arrive nearly
		// ordered (head order), so the bubble is rare.
		cands = append(cands, cand)
		for j := len(cands) - 1; j > ci && cands[j-1].r.seq > cands[j].r.seq; j-- {
			cands[j-1], cands[j] = cands[j], cands[j-1]
		}
	}
	for ; ci < len(cands); ci++ {
		if tryCand(cands[ci]) {
			return true, now + 1
		}
	}
	// Pass 2: oldest request first, issue ACT or PRE as needed. Each bank
	// belongs to the oldest request targeting it — its bucket head;
	// heads is already in age order.
	for _, r := range q.heads {
		bank := r.bank
		row, cacheRow := bank.Open()
		if row == r.ServiceLoc.Row && cacheRow == r.ServiceLoc.CacheRow {
			continue // waiting on tRCD; pass 1 covers its column command
		}
		if row != -1 {
			// Conflict: precharge the open row, folding in any pending
			// relocation work for the bank (the RELOC burst ends with the
			// precharge the row needed anyway). The readiness probe is
			// CanIssue's CmdPRE arm verbatim; the command itself is only
			// built on the rare tick that actually issues it.
			if at, ok := bank.CanPRE(now); ok {
				if at <= now {
					bank.RowConflict++
					if c.flushRelocs(r.bankID, now, true) {
						return true, now + 1
					}
					pre := dram.Command{Type: dram.CmdPRE,
						Loc: dram.Location{Rank: r.ServiceLoc.Rank, Group: r.ServiceLoc.Group,
							Bank: r.ServiceLoc.Bank, Row: row, CacheRow: cacheRow}}
					c.channel.Issue(&pre, now)
					return true, now + 1
				}
				if at < nextAt {
					nextAt = at
				}
			}
			continue
		}
		if at, ok := c.channel.CanACTAt(bank, r.ServiceLoc.Rank, now); ok {
			if at <= now {
				bank.RowMisses++
				act := dram.Command{Type: dram.CmdACT, Loc: r.ServiceLoc}
				c.channel.Issue(&act, now)
				return true, now + 1
			}
			if at < nextAt {
				nextAt = at
			}
		}
	}
	return false, nextAt
}

func (c *Controller) columnCmd(r *Request) dram.Command {
	t := dram.CmdRD
	if r.IsWrite {
		t = dram.CmdWR
	}
	return dram.Command{Type: t, Loc: r.ServiceLoc}
}

// issueColumn issues the RD/WR for the i-th request of its bank's bucket,
// retires the request, and triggers cache insertion for read misses (the
// relocation runs while the just-accessed source row is still open).
func (c *Controller) issueColumn(q *queue, i int, r *Request, now int64, schedule func(at int64, tok ev.Token)) {
	r.bank.RowHits++
	c.lastColumn[r.bankID] = now
	cmd := c.columnCmd(r)
	end := c.channel.Issue(&cmd, now)
	if r.IsWrite {
		c.NumWrites++
	} else {
		c.NumReads++
		c.ReadLatencySum += end - r.Arrive
		c.latSamples.Add(end - r.Arrive)
	}
	if !r.OnComplete.IsZero() {
		schedule(end, r.OnComplete)
	}
	q.remove(r.bankID, i)

	// Cache insertion on miss: the source row is open in its local row
	// buffer, so the relocation skips the first ACTIVATE (Section 8.1).
	// The relocation work is deferred until the row is about to close so
	// it does not steal row hits from queued requests. A zero-cost plan
	// (the FIGCache-Ideal configuration) updates metadata only.
	if c.cache != nil && !r.CacheHit && !r.noInsert && !r.ServiceLoc.CacheRow {
		if plan := c.cache.Insert(c.channel, r.Loc, now); plan != nil {
			// The hook's plan is scratch, valid only until its next
			// Insert; keep a pooled copy (see CacheHook.Insert).
			p := c.takePlan()
			*p = *plan
			id := p.Loc.BankID(c.channel.Geo)
			c.relocMask[id>>6] |= 1 << (id & 63)
			c.pendingRelocs[id] = append(c.pendingRelocs[id], p)
			c.Inserted++
			if c.cfg.ImmediateReloc {
				c.flushRelocs(id, now, true)
			}
		}
	}
	if c.Release != nil {
		c.Release(r)
	}
}

// AvgReadLatencyNS returns the mean read latency (arrival to last data
// beat) in nanoseconds.
func (c *Controller) AvgReadLatencyNS() float64 {
	if c.NumReads == 0 {
		return 0
	}
	return c.channel.Slow.NS(c.ReadLatencySum) / float64(c.NumReads)
}

// LatencySamples returns the controller's bounded reservoir of per-read
// latency samples (bus cycles): a uniform, deterministic sample of every
// read the controller served. The slice aliases internal storage.
func (c *Controller) LatencySamples() []int64 { return c.latSamples.Samples() }

// ReadLatencyPercentilesNS returns the requested read-latency
// percentiles (each in [0,1]) in nanoseconds, estimated from the sample
// reservoir. The mean alone hides the tail that queueing and refresh
// interference produce; the reservoir keeps the tail visible at O(1)
// memory. Returns nil when no reads were sampled.
func (c *Controller) ReadLatencyPercentilesNS(ps ...float64) []float64 {
	vals := stats.WeightedPercentiles([][]int64{c.latSamples.Samples()}, []int64{c.NumReads}, ps)
	if vals == nil {
		return nil
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = c.channel.Slow.NS(v)
	}
	return out
}

// Debug instrumentation (kept cheap; used by calibration tests and the
// figbench harness to explain latency composition).
func (c *Controller) noteQueueDepths() {
	if n := c.readQ.size(); n > c.MaxReadQ {
		c.MaxReadQ = n
	}
	if n := c.writeQ.size(); n > c.MaxWriteQ {
		c.MaxWriteQ = n
	}
}
