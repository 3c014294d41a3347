package cache

import (
	"fmt"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/ev"
)

// Scheduler defers an event token by a number of CPU cycles. The system
// simulator provides the implementation; it must also be able to
// execute tokens (ev.Dispatcher), because a cache fill fires its
// waiters synchronously instead of bouncing them through the queue.
type Scheduler interface {
	After(delay int64, tok ev.Token)
	ev.Dispatcher
}

// LevelSchedulerFactory is an optional refinement of Scheduler: a
// scheduler that can hand out a sub-scheduler dedicated to one fixed
// delay. Every After call a Cache issues uses the same delay (its lookup
// latency), so its deferred tokens become due in non-decreasing order
// — a plain FIFO, which a delay-aware scheduler can service without
// paying heap push/pop per event. The factory may hand the same
// sub-scheduler to every caller with the same latency (tokens from
// different caches at one delay still become due in schedule order). New
// unwraps the factory once at construction; plain Schedulers keep
// working unchanged.
type LevelSchedulerFactory interface {
	LevelScheduler(latency int64) Scheduler
}

// Backend receives misses and write-backs from a cache level: either the
// next cache level or the memory-system adapter.
type Backend interface {
	// Request forwards a block fetch (read) or write-back (write).
	// onDone is dispatched when a fetch completes; it is the zero Token
	// for write-backs.
	Request(addr uint64, isWrite bool, coreID int, onDone ev.Token)
}

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	BlockBytes int
	// Latency is the lookup latency in CPU cycles, applied to hits and to
	// miss detection before the request goes downstream.
	Latency int64
	// MSHRs bounds outstanding misses; 0 means unbounded. Table 1 gives
	// 8 MSHRs per core at L1; lower levels are modelled unbounded.
	MSHRs int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0:
		return fmt.Errorf("cache %s: size, ways and block bytes must be positive", c.Name)
	case c.SizeBytes%(c.Ways*c.BlockBytes) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by ways*block (%d)",
			c.Name, c.SizeBytes, c.Ways*c.BlockBytes)
	case (c.SizeBytes/(c.Ways*c.BlockBytes))&(c.SizeBytes/(c.Ways*c.BlockBytes)-1) != 0:
		return fmt.Errorf("cache %s: set count must be a power of two", c.Name)
	case c.Latency < 0 || c.MSHRs < 0:
		return fmt.Errorf("cache %s: latency and MSHRs must be non-negative", c.Name)
	}
	return nil
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   int64
}

type mshr struct {
	blockAddr uint64
	waiters   []ev.Token
	// markDirty records that a write merged into this outstanding fetch,
	// so the filled line starts dirty.
	markDirty bool
}

// Cache is one cache level.
type Cache struct {
	cfg Config
	// lines is the flat backing array of all sets (set i occupies
	// lines[i*Ways:(i+1)*Ways]). One pointer-free allocation: the GC
	// never scans it, and construction is a single zeroed make — both
	// matter when the harness builds thousands of short-lived systems.
	lines []line
	setsN uint64
	shift uint
	next  Backend   //fglint:preserved wiring, bound once at construction; the next level checkpoints its own state
	sched Scheduler //fglint:preserved wiring, bound once at construction; the event queue's snapshot carries the scheduled tokens
	// disp executes waiter tokens synchronously at fill time. Normally
	// the unwrapped scheduler passed to New; separate field because New
	// may replace sched with a level sub-scheduler.
	disp ev.Dispatcher //fglint:preserved wiring, bound once at construction
	// id is this cache's node ID in its Hierarchy (see Hierarchy.Node):
	// the identifier MSHRStart/MSHRFill event tokens carry so a restored
	// run can route them back here. 0 until SetNodeID.
	id int32 //fglint:preserved topology constant, assigned at Hierarchy construction
	// Outstanding misses, in a small slice scanned linearly. Bounded
	// levels (MSHRs > 0, the per-core L1s) hold at most Table 1's 8
	// entries; unbounded levels stay structurally small too — their
	// misses are fed by the bounded L1s plus queued write-backs — so the
	// linear scan beats map hashing on every lookup, insert and remove.
	active []*mshr
	free   []*mshr // recycled MSHRs, fully re-initialized by newMSHR before reuse
	clock  int64
	coreID int // reported downstream for per-core accounting

	// Stats.
	Hits, Misses      int64
	WriteBacks        int64
	MSHRMerges        int64
	MSHRFullStalls    int64
	ReadAcc, WriteAcc int64
}

// New builds a cache level on top of next.
func New(cfg Config, next Backend, sched Scheduler, coreID int) (*Cache, error) {
	return NewIn(nil, cfg, next, sched, coreID)
}

// LineArrayBytes returns the size of the flat line array New allocates
// for this configuration — the dominant memory of a cache level — so a
// caller providing an arena can pre-size it.
func (c Config) LineArrayBytes() int {
	if c.Ways <= 0 || c.BlockBytes <= 0 {
		return 0
	}
	sets := c.SizeBytes / (c.Ways * c.BlockBytes)
	return sets * c.Ways * int(unsafe.Sizeof(line{}))
}

// NewIn builds a cache level on top of next, carving the line array out
// of a (the line struct is pointer-free by design). A nil arena keeps
// the plain heap allocation.
func NewIn(a *arena.Arena, cfg Config, next Backend, sched Scheduler, coreID int) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	disp := ev.Dispatcher(sched)
	if f, ok := sched.(LevelSchedulerFactory); ok {
		sched = f.LevelScheduler(cfg.Latency)
	}
	setsN := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	c := &Cache{
		cfg:    cfg,
		lines:  arena.Slice[line](a, setsN*cfg.Ways),
		setsN:  uint64(setsN),
		next:   next,
		sched:  sched,
		disp:   disp,
		coreID: coreID,
	}
	mshrCap := cfg.MSHRs
	if mshrCap <= 0 {
		mshrCap = 16
	}
	c.active = make([]*mshr, 0, mshrCap)
	shift := uint(0)
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		shift++
	}
	c.shift = shift
	return c, nil
}

// SetNodeID assigns the cache's node ID — the ID its event tokens carry.
// NewHierarchy assigns IDs in construction order; standalone caches
// (tests) keep the zero ID.
func (c *Cache) SetNodeID(id int32) { c.id = id }

// NodeID returns the cache's node ID.
func (c *Cache) NodeID() int32 { return c.id }

// set returns the ways of one cache set.
func (c *Cache) set(idx uint64) []line {
	w := uint64(c.cfg.Ways)
	return c.lines[idx*w : idx*w+w]
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setAndTag(addr uint64) (setIdx uint64, tag uint64) {
	block := addr >> c.shift
	return block & (c.setsN - 1), block / c.setsN
}

func (c *Cache) blockAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.BlockBytes) - 1)
}

// Access performs a load or store. It returns false when the access
// cannot be accepted this cycle (MSHRs exhausted); the caller must retry.
// onDone, unless zero, is dispatched when the data is available (hits:
// after the lookup latency; misses: when the fill returns).
func (c *Cache) Access(addr uint64, isWrite bool, onDone ev.Token) bool {
	c.clock++
	if isWrite {
		c.WriteAcc++
	} else {
		c.ReadAcc++
	}
	setIdx, tag := c.setAndTag(addr)
	set := c.set(setIdx)
	for i := range set {
		// Tag first: a mismatch is the common way and is rejected on one
		// comparison without also loading the valid flag.
		if set[i].tag == tag && set[i].valid {
			set[i].lru = c.clock
			if isWrite {
				set[i].dirty = true
			}
			c.Hits++
			if !onDone.IsZero() {
				c.sched.After(c.cfg.Latency, onDone)
			}
			return true
		}
	}

	// Miss. Merge into an outstanding fetch of the same block if any.
	blk := c.blockAddr(addr)
	if m := c.findMSHR(blk); m != nil {
		c.MSHRMerges++
		c.Misses++
		if isWrite {
			m.markDirty = true
		}
		if !onDone.IsZero() {
			m.waiters = append(m.waiters, onDone)
		}
		return true
	}
	if c.cfg.MSHRs > 0 && len(c.active) >= c.cfg.MSHRs {
		c.MSHRFullStalls++
		return false
	}
	c.Misses++
	m := c.newMSHR(blk, isWrite)
	if !onDone.IsZero() {
		m.waiters = append(m.waiters, onDone)
	}
	c.addMSHR(m)
	// Fetch after the lookup latency (miss detection time).
	c.sched.After(c.cfg.Latency, ev.Token{Kind: ev.MSHRStart, ID: c.id, Arg: blk})
	return true
}

// StartFetch issues the downstream fetch for an outstanding miss: the
// MSHRStart token scheduled by Access has become due (the lookup latency
// elapsed, miss detected).
func (c *Cache) StartFetch(blk uint64) {
	c.next.Request(blk, false, c.coreID, ev.Token{Kind: ev.MSHRFill, ID: c.id, Arg: blk})
}

// findMSHR returns the outstanding miss for blk, or nil.
func (c *Cache) findMSHR(blk uint64) *mshr {
	for _, m := range c.active {
		if m.blockAddr == blk {
			return m
		}
	}
	return nil
}

// addMSHR registers an outstanding miss.
func (c *Cache) addMSHR(m *mshr) {
	c.active = append(c.active, m)
}

// removeMSHR unregisters and returns the outstanding miss for blk.
// Swap-remove is safe: block addresses are unique in the set, and no
// simulated decision reads the slice order.
func (c *Cache) removeMSHR(blk uint64) *mshr {
	for i, m := range c.active {
		if m.blockAddr == blk {
			last := len(c.active) - 1
			c.active[i] = c.active[last]
			c.active[last] = nil
			c.active = c.active[:last]
			return m
		}
	}
	return nil
}

// AccountRefused credits n refused Access attempts to the statistics:
// the dense run loop retries a blocked access every cycle (each retry
// bumping the access counters and MSHR-full stalls), so the cycle-
// skipping engine calls this for the retries it skipped, keeping the
// diagnostic counters engine-independent.
func (c *Cache) AccountRefused(isWrite bool, n int64) {
	c.clock += n
	if isWrite {
		c.WriteAcc += n
	} else {
		c.ReadAcc += n
	}
	c.MSHRFullStalls += n
}

// newMSHR pops a recycled MSHR or builds a fresh one.
func (c *Cache) newMSHR(blk uint64, markDirty bool) *mshr {
	if n := len(c.free); n > 0 {
		m := c.free[n-1]
		c.free = c.free[:n-1]
		m.blockAddr = blk
		m.markDirty = markDirty
		return m
	}
	return &mshr{blockAddr: blk, markDirty: markDirty}
}

// CanAccept reports whether Access(addr, ...) would be accepted this
// cycle, without performing it: a hit, a merge into an outstanding fetch
// of the same block, or a free MSHR. It has no side effects, so the core
// model can probe whether issuing is possible before spending a cycle.
// The capacity check comes first: with a free MSHR every access is
// accepted, so the run loop's frequent probes skip the tag and MSHR
// scans entirely on the common path.
func (c *Cache) CanAccept(addr uint64) bool {
	if c.cfg.MSHRs == 0 || len(c.active) < c.cfg.MSHRs {
		return true
	}
	setIdx, tag := c.setAndTag(addr)
	set := c.set(setIdx)
	for i := range set {
		// Tag first: a mismatch is the common way and is rejected on one
		// comparison without also loading the valid flag.
		if set[i].tag == tag && set[i].valid {
			return true
		}
	}
	return c.findMSHR(c.blockAddr(addr)) != nil
}

// Fill installs a fetched block, evicting the LRU way (write-back if
// dirty) and waking all waiters. Exposed because the MSHRFill token the
// dispatcher routes here is scheduled by StartFetch's downstream
// request.
func (c *Cache) Fill(blk uint64) {
	setIdx, tag := c.setAndTag(blk)
	set := c.set(setIdx)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.WriteBacks++
		victimAddr := (set[victim].tag*c.setsN + setIdx) << c.shift
		c.next.Request(victimAddr, true, c.coreID, ev.Token{})
	}
	c.clock++
	m := c.removeMSHR(blk)
	set[victim] = line{tag: tag, valid: true, dirty: m.markDirty, lru: c.clock}
	// Waiters fire directly instead of bouncing through the scheduler at
	// zero delay: they only mark their own window entry (or upstream
	// MSHR) complete, so their order relative to other same-cycle events
	// is immaterial, and the detour through the event heap costs a
	// push+pop per miss on the hottest path in the simulator. now is not
	// threaded through Fill; waiter actions ignore their argument's
	// absolute value (completion bookkeeping is cycle-exact via the
	// scheduler events that triggered this fill).
	for i, w := range m.waiters {
		c.disp.Dispatch(w, 0)
		m.waiters[i] = ev.Token{}
	}
	m.waiters = m.waiters[:0]
	c.free = append(c.free, m)
}

// Request implements Backend, so a Cache can serve as the next level of
// another Cache: fetches become reads, write-backs become writes.
func (c *Cache) Request(addr uint64, isWrite bool, coreID int, onDone ev.Token) {
	// Lower levels are modelled without an MSHR bound (Table 1 specifies
	// MSHRs only per core); Access never refuses when MSHRs == 0.
	if !c.Access(addr, isWrite, onDone) {
		panic(fmt.Sprintf("cache %s: unbounded level refused a request", c.cfg.Name))
	}
}

// Accesses returns the total number of accesses.
func (c *Cache) Accesses() int64 { return c.Hits + c.Misses }
