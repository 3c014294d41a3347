package memctrl

import (
	"math"
	"math/bits"

	"repro/internal/dram"
	"repro/internal/stats"
)

// CacheHook is the interface through which an in-DRAM cache (FIGCache or
// LISA-VILLA, in internal/core) plugs into the memory controller. The
// controller consults the hook on every request, and notifies it when a
// miss finishes its column access with the source row still open — the
// moment FIGCache exploits to relocate the row segment into the cache
// without paying the first ACTIVATE (Section 8.1 of the paper).
//
// The hook owns its queued insertions: Insert queues one on its bank,
// and Flush runs the bank's queue when the controller decides the source
// row's useful life is over. The controller keeps only which banks have
// a queue (Pending), so it knows where a flush is due.
type CacheHook interface {
	// Lookup checks whether the block at loc is cached. On a hit it
	// returns the in-DRAM cache location that serves the request: a
	// block of a cache row (CacheRow) in loc's bank, which is all a
	// snapshot keeps of it. The hook updates its benefit/dirty metadata
	// internally.
	Lookup(loc dram.Location, isWrite bool) (redirect dram.Location, hit bool)

	// ShouldInsert asks the insertion policy whether the missing block's
	// segment should be relocated into the cache once its row is open.
	ShouldInsert(loc dram.Location) bool

	// Insert queues the insertion of the segment (or row) containing
	// loc on loc's bank, whose source row is open in its local row
	// buffer, and reports whether it queued one: it does not when the
	// segment is already cached or queued, or when every slot that
	// could take it is reserved. The tag is installed at Flush, so
	// requests arriving while the source row stays open keep hitting it.
	Insert(loc dram.Location) bool

	// Flush installs the tags of the bank's queued insertions, in the
	// order they were queued, empties the queue, and returns the
	// relocation burst that carries them out with the source rows open.
	// bank is a dense bank index (dram.Location.BankID) with a queue.
	Flush(ch *dram.Channel, bank int) RelocBurst

	// Pending reports whether the bank (a dense bank index) has queued
	// insertions.
	Pending(bank int) bool
}

// RelocBurst is the relocation work of one flush: a bank's queued
// insertions, run back to back (Section 8.1). The controller occupies
// the bank (or, ChannelWide, every bank) for Cost cycles, plus one
// ACTIVATE per insertion if the source rows were closed before the
// flush.
type RelocBurst struct {
	Loc    dram.Location // the first insertion's miss location: the bank occupied
	Cost   int64         // occupancy in bus cycles, with the source rows open
	Blocks int           // FIGARO RELOC column operations performed
	Hops   int           // LISA inter-subarray hops performed
	Count  int           // insertions carried out
	IsLISA bool
	// ChannelWide marks a RowClone-PSM relocation: the copy crosses the
	// shared global data bus and occupies every bank in the channel, not
	// just the source bank.
	ChannelWide bool
}

// The controller parameters from Table 1.
const (
	// ReadQueueDepth and WriteQueueDepth are the 64-entry read and write
	// queues.
	ReadQueueDepth  = 64
	WriteQueueDepth = 64
	// Write drain watermarks: the controller switches to write mode when
	// the write queue reaches HighWatermark and leaves it at LowWatermark.
	HighWatermark = 48
	LowWatermark  = 16
	// IdleFlushAfter is how long (bus cycles) a bank must be free of
	// column traffic before an otherwise idle tick may spend it on
	// deferred relocation work: about 80 ns of bank quiet time.
	IdleFlushAfter = 64
)

// Config holds the controller's one ablated policy choice. The zero
// Config is the deferred-relocation design the paper evaluates.
type Config struct {
	// ImmediateReloc executes insertion relocations at miss time instead
	// of deferring them to row close. This is the naive policy the
	// deferred design is ablated against: it steals row hits from queued
	// requests and occupies hot banks at their busiest moment.
	ImmediateReloc bool
}

// latSampleCap bounds each controller's read-latency sample reservoir.
const latSampleCap = 2048

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

	// relocMask has bit i set while bank i has queued insertions
	// (CacheHook.Pending), deferred until the source row's useful life
	// ends (conflict precharge, refresh precharge, or an idle tick).
	// Deferring keeps the row open for queued row hits — the RELOCs only
	// need the row in the local row buffer, and the controller schedules
	// them when no column commands are pending (Section 8.1). An idle
	// tick visits only these banks (dram.Geometry.Validate bounds a
	// channel at 64 banks). Restore rebuilds it from the hook.
	relocMask uint64
	// lastColumn records each bank's last column-access cycle (indexed by
	// dense bank ID); the idle flush waits IdleFlushAfter cycles beyond
	// it, so relocations do not close a row in the middle of a spatial
	// burst whose next block is still working its way down the cache
	// hierarchy.
	lastColumn []int64

	// Stats.
	NumReads, NumWrites    int64
	CacheHits, CacheMisses int64
	ReadLatencySum         int64 // queue-arrival to data cycles, reads only
	Inserted               int64 // segments inserted into the in-DRAM cache
	// latSamples keeps a bounded, deterministic reservoir of per-read
	// latencies (bus cycles) instead of an unbounded append-per-read
	// slice, so full-scale runs stop accumulating one int64 per read.
	latSamples *stats.Reservoir

	// Release, when non-nil, receives each request after the controller
	// has fully served it (column command issued, a read's completion
	// reported, insertion bookkeeping done). The request creator uses it
	// to recycle Request objects; the controller never touches a request
	// after releasing it.
	Release func(*Request)
}

// NewController builds a controller over the channel. cache may be nil for
// the Base configuration.
func NewController(id int, cfg Config, ch *dram.Channel, cache CacheHook) *Controller {
	return &Controller{
		ID:         id,
		cfg:        cfg,
		channel:    ch,
		cache:      cache,
		readQ:      newQueue(ReadQueueDepth),
		writeQ:     newQueue(WriteQueueDepth),
		lastColumn: make([]int64, ch.NumBanks()),
		// Seed by controller ID so per-channel reservoirs differ but any
		// two runs of the same configuration sample identically.
		latSamples: stats.NewReservoir(latSampleCap, uint64(id)+1),
	}
}

// Channel exposes the underlying DRAM channel (stats, tests).
func (c *Controller) Channel() *dram.Channel { return c.channel }

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
// command. When the command is a read's column access, done receives
// the bus cycle its last data beat arrives (tCL + tBL later) and its
// address: every read fetches a block the cache above has a miss
// outstanding for, and the caller completes that miss then. Writes
// report nothing.
//
// The return value is the controller's next-work probe: a lower bound on
// the next bus cycle at which the controller could change state, assuming
// no new request is enqueued before then. The run loop may skip all bus
// cycles up to (but not including) that cycle; ticking earlier is always
// safe and behaves exactly like the skipped idle ticks (a no-op).
func (c *Controller) Tick(now int64, done func(at int64, addr uint64)) int64 {
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

	// Write drain mode hysteresis.
	if c.writing {
		if c.writeQ.size() <= LowWatermark {
			c.writing = false
		}
	} else if c.writeQ.full() || c.writeQ.size() >= HighWatermark {
		c.writing = true
	} else if c.readQ.empty() && c.writeQ.size() > 0 {
		c.writing = true // opportunistic drain when no reads are waiting
	}

	q := c.readQ
	if c.writing {
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
		issued, qNext := c.schedule(q, now, done)
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

// flushRelocs runs the bank's queued insertions as one relocation
// burst, occupying the bank for its cost and leaving it precharged.
// rowOpen indicates that the source rows' data is still reachable via the
// open-row path; if the bank was already closed (e.g. the row was
// precharged by refresh before the flush), each insertion pays an extra
// ACTIVATE to reopen its source row. Returns false when the bank has no
// queued insertion.
func (c *Controller) flushRelocs(bankID int, now int64, rowOpen bool) bool {
	if c.relocMask>>bankID&1 == 0 {
		return false
	}
	c.relocMask &^= 1 << bankID
	b := c.cache.Flush(c.channel, bankID)
	if !rowOpen {
		b.Cost += int64(b.Count) * int64(c.channel.Slow.RCD)
	}
	if b.ChannelWide {
		c.channel.RelocateAll(b.Loc, now, b.Cost)
	} else {
		c.channel.Relocate(b.Loc, now, b.Cost, b.Blocks, b.IsLISA, b.Hops)
	}
	return true
}

// relocFlushReady returns the earliest bus cycle at which the queued
// insertions of a bank may be flushed: the quiet window after its last
// column access must have elapsed (IdleFlushAfter), and the bank must be
// able to precharge (row open, tRAS met) or activate (row closed). Both
// the idle flush and the next-work probe derive from this single
// predicate, so the cycle-skipping engine can never wake later than a
// flush.
func (c *Controller) relocFlushReady(bankID int, now int64) int64 {
	bank := c.channel.BankByID(bankID)
	var ready int64
	if row, _ := bank.Open(); row != -1 {
		ready, _ = bank.CanPRE(now) // a bank with an open row can always PRE eventually
	} else {
		ready, _ = bank.CanACT(now) // a closed bank can always ACT eventually
	}
	if quiet := c.lastColumn[bankID] + IdleFlushAfter; quiet > ready {
		ready = quiet
	}
	return ready
}

// flushIdleRelocs spends an otherwise idle tick performing deferred
// relocation work on a bank that no queued request needs right now and
// that has been quiet for at least IdleFlushAfter cycles. The banks with
// queued insertions (relocMask's set bits) are visited in ascending ID order
// so that runs are deterministic when several banks are eligible on the
// same tick. When nothing is flushed, nextAt is the earliest bus cycle a
// flush could happen (math.MaxInt64 if no work is pending), so the
// caller gets the next-work probe from the same single walk.
func (c *Controller) flushIdleRelocs(now int64) (flushed bool, nextAt int64) {
	nextAt = math.MaxInt64
	for mask := c.relocMask; mask != 0; mask &= mask - 1 {
		bankID := bits.TrailingZeros64(mask)
		ready := c.relocFlushReady(bankID, now)
		if ready > now {
			if ready < nextAt {
				nextAt = ready
			}
			continue
		}
		row, _ := c.channel.BankByID(bankID).Open()
		c.flushRelocs(bankID, now, row != -1)
		return true, now + 1
	}
	return false, nextAt
}

// schedule implements FR-FCFS over queue q in one oldest-first walk: the
// oldest request whose column command is ready on an open row issues;
// failing that, the oldest request whose bank is ready for the next
// command of its ACT/PRE sequence does.
//
//   - Every request matching its bank's open row builds the same column
//     command (same rank/group/bank/row, same type: the queue is
//     all-reads or all-writes), so the bank's oldest such request prices
//     it for all of them, and a ready one issues at once.
//   - Only a bank's oldest request may open or close its row: a younger
//     one must not precharge a row an older request is still waiting on.
//     The first ready ACT or PRE the walk finds issues only if the walk
//     ends with no ready row hit.
//
// When nothing is issuable this tick, nextAt is the earliest bus cycle at
// which any considered command becomes issuable. The DRAM timing windows
// only move when a command issues, so nextAt stays valid until the next
// enqueue — the run loop can skip the idle ticks in between.
func (c *Controller) schedule(q *queue, now int64, done func(at int64, addr uint64)) (issued bool, nextAt int64) {
	nextAt = math.MaxInt64
	var priced, claimed uint64 // bank sets (a channel has at most 64 banks)
	var ready *Request         // the oldest request whose ACT or PRE can issue now
	for i, r := range q.reqs {
		bank, bit := r.bank, uint64(1)<<r.bankID
		oldest := claimed&bit == 0
		claimed |= bit
		row, cacheRow := bank.Open()
		if row == r.ServiceLoc.Row && cacheRow == r.ServiceLoc.CacheRow {
			if priced&bit != 0 {
				continue
			}
			priced |= bit
			if at, ok := c.channel.CanColumn(bank, &r.ServiceLoc, r.IsWrite, now); ok {
				if at <= now {
					c.issueColumn(q, i, r, now, done)
					return true, now + 1
				}
				nextAt = min(nextAt, at)
			}
			continue
		}
		if !oldest || ready != nil {
			continue
		}
		var at int64
		if row != -1 {
			at, _ = bank.CanPRE(now) // a bank with an open row can always PRE eventually
		} else {
			at, _ = c.channel.CanACTAt(bank, r.ServiceLoc.Rank, now) // a closed bank can always ACT eventually
		}
		if at <= now {
			ready = r
		} else {
			nextAt = min(nextAt, at)
		}
	}
	if ready == nil {
		return false, nextAt
	}
	bank := ready.bank
	if row, cacheRow := bank.Open(); row != -1 {
		// Conflict: precharge the open row, folding in any pending
		// relocation work for the bank (the RELOC burst ends with the
		// precharge the row needed anyway).
		bank.RowConflict++
		if !c.flushRelocs(ready.bankID, now, true) {
			loc := ready.ServiceLoc
			pre := dram.Command{Type: dram.CmdPRE,
				Loc: dram.Location{Rank: loc.Rank, Group: loc.Group, Bank: loc.Bank, Row: row, CacheRow: cacheRow}}
			c.channel.Issue(&pre, now)
		}
	} else {
		bank.RowMisses++
		act := dram.Command{Type: dram.CmdACT, Loc: ready.ServiceLoc}
		c.channel.Issue(&act, now)
	}
	return true, now + 1
}

func (c *Controller) columnCmd(r *Request) dram.Command {
	t := dram.CmdRD
	if r.IsWrite {
		t = dram.CmdWR
	}
	return dram.Command{Type: t, Loc: r.ServiceLoc}
}

// issueColumn issues the RD/WR for q's i-th oldest request r, retires
// the request, reports a read's completion to done, and triggers cache
// insertion for misses (the relocation runs while the just-accessed
// source row is still open).
func (c *Controller) issueColumn(q *queue, i int, r *Request, now int64, done func(at int64, addr uint64)) {
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
		done(end, r.Addr)
	}
	q.remove(i)

	// Cache insertion on miss: the source row is open in its local row
	// buffer, so the relocation skips the first ACTIVATE (Section 8.1).
	// The hook queues the insertion, and the controller flushes the
	// bank's queue when the row is about to close, so the relocation does
	// not steal row hits from queued requests.
	if c.cache != nil && !r.CacheHit && !r.noInsert && c.cache.Insert(r.Loc) {
		id := r.Loc.BankID(c.channel.Geo)
		c.relocMask |= 1 << id
		c.Inserted++
		if c.cfg.ImmediateReloc {
			c.flushRelocs(id, now, true)
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
