package cache

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/ev"
)

// Scheduler defers a cache level's event tokens by its lookup latency.
// The system simulator provides the implementation, bound to one level's
// latency (see NewHierarchy), so every token a Cache hands it becomes
// due in the order it was handed over and the scheduler can queue them
// as a FIFO. It must also be able to execute tokens (ev.Dispatcher),
// because a cache fill fires its waiters synchronously instead of
// bouncing them through the queue.
type Scheduler interface {
	After(tok ev.Token)
	ev.Dispatcher
}

// Backend receives misses and write-backs from a cache level: either the
// next cache level or the memory-system adapter.
type Backend interface {
	// Request forwards a block fetch (read) or write-back (write).
	// onDone is dispatched when a fetch completes; it is the zero Token
	// for write-backs.
	Request(addr uint64, isWrite bool, onDone ev.Token)
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
	case c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("cache %s: block bytes %d must be a power of two", c.Name, c.BlockBytes)
	case c.Latency < 0 || c.MSHRs < 0:
		return fmt.Errorf("cache %s: latency and MSHRs must be non-negative", c.Name)
	}
	return nil
}

// A way's 32-bit tag word packs the line's tag above its two flag bits.
// The tag is the block address shifted right by the set bits, and
// NewHierarchy refuses a memory whose addresses need a tag wider than
// tagBits (see Config.Reach), so the shift left by flagBits loses
// nothing.
const (
	lineValid = 1 << 0
	lineDirty = 1 << 1
	flagBits  = 2
	tagBits   = 32 - flagBits
)

// Reach returns the bytes of address space the level's tags can name:
// a set spans SizeBytes/Ways bytes of it per tag value. An address at or
// above the reach would alias a lower one that shares its low tag bits.
// Table 1's L1 (16 kB per way) reaches 16 TiB.
func (c Config) Reach() uint64 { return uint64(c.SizeBytes/c.Ways) << tagBits }

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
	// sets is the flat backing array of all sets: set i occupies
	// sets[i*2*Ways:(i+1)*2*Ways], its Ways tag words (see lineValid)
	// followed by its Ways LRU stamps, so a lookup's tag compares read
	// one contiguous run of 32-bit words. One pointer-free allocation:
	// the GC never scans it, and construction is a single zeroed make —
	// both matter when the harness builds thousands of short-lived
	// systems, and the 8-core LLC's array alone is 2 MB.
	sets    []uint32
	setsN   uint64
	setBits uint      // log2(setsN): the tag is the block address >> setBits
	shift   uint      // log2(BlockBytes)
	next    Backend   //fglint:preserved wiring, bound once at construction; the next level checkpoints its own state
	sched   Scheduler //fglint:preserved wiring, bound once at construction; the event queue's snapshot carries the scheduled tokens
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
	// clock is the LRU clock. It advances only where a stamp is written
	// (a hit or a fill), which keeps the stamps in write order, so a
	// refused Access changes nothing. Before it would pass 2^32-1,
	// renumber compacts every set's stamps (see tick).
	clock uint32

	// Stats.
	Hits, Misses int64
}

// New builds a cache level on top of next, deferring its tokens and
// dispatching its fill waiters through sched.
func New(cfg Config, next Backend, sched Scheduler) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	setsN := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	c := &Cache{
		cfg:     cfg,
		sets:    make([]uint32, setsN*cfg.Ways*2),
		setsN:   uint64(setsN),
		setBits: uint(bits.TrailingZeros64(uint64(setsN))),
		shift:   uint(bits.TrailingZeros64(uint64(cfg.BlockBytes))),
		next:    next,
		sched:   sched,
	}
	mshrCap := cfg.MSHRs
	if mshrCap <= 0 {
		mshrCap = 16
	}
	c.active = make([]*mshr, 0, mshrCap)
	return c, nil
}

// SetNodeID assigns the cache's node ID — the ID its event tokens carry.
// NewHierarchy assigns IDs in construction order; standalone caches
// (tests) keep the zero ID.
func (c *Cache) SetNodeID(id int32) { c.id = id }

// NodeID returns the cache's node ID.
func (c *Cache) NodeID() int32 { return c.id }

// set returns one cache set: its tag words, then its LRU stamps.
func (c *Cache) set(idx uint64) []uint32 {
	w := uint64(c.cfg.Ways) * 2
	return c.sets[idx*w : idx*w+w]
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// setAndKey returns the set an address maps to and the tag word a valid
// line holding its block has, dirty bit clear. The address must lie
// below Config.Reach, or the tag loses its high bits.
func (c *Cache) setAndKey(addr uint64) (setIdx uint64, key uint32) {
	block := addr >> c.shift
	return block & (c.setsN - 1), uint32(block>>c.setBits)<<flagBits | lineValid
}

// tick advances the LRU clock and returns the stamp it reaches. When
// the clock would pass 2^32-1 it first renumbers every set's stamps, so
// stamps stay in write order within each set and no victim changes.
func (c *Cache) tick() uint32 {
	if c.clock == math.MaxUint32 {
		c.renumber()
	}
	c.clock++
	return c.clock
}

// renumber rewrites each set's valid stamps as 1..k in their current
// order (ties, which only a restored snapshot can hold, in way order, as
// Fill's victim scan breaks them) and restarts the clock at Ways, above
// every stamp. Fill reads only the order of a set's stamps, so every
// later victim is the one the unwrapped stamps would pick.
func (c *Cache) renumber() {
	ways := c.cfg.Ways
	order := make([]int, 0, ways)
	for s := uint64(0); s < c.setsN; s++ {
		set := c.set(s)
		tags, stamps := set[:ways], set[ways:]
		order = order[:0]
		for i, t := range tags {
			if t&lineValid != 0 {
				order = append(order, i)
			}
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(stamps[a], stamps[b]) })
		for k, i := range order {
			stamps[i] = uint32(k + 1)
		}
	}
	c.clock = uint32(ways)
}

func (c *Cache) blockAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.BlockBytes) - 1)
}

// Access performs a load or store. It returns false when the access
// cannot be accepted this cycle (MSHRs exhausted); the caller must retry,
// and the refused attempt leaves the cache unchanged. onDone, unless
// zero, is dispatched when the data is available (hits: after the lookup
// latency; misses: when the fill returns).
func (c *Cache) Access(addr uint64, isWrite bool, onDone ev.Token) bool {
	setIdx, key := c.setAndKey(addr)
	set := c.set(setIdx)
	for i, t := range set[:c.cfg.Ways] {
		// One compare checks tag and valid bit together.
		if t&^lineDirty == key {
			set[c.cfg.Ways+i] = c.tick()
			if isWrite {
				set[i] = t | lineDirty
			}
			c.Hits++
			if !onDone.IsZero() {
				c.sched.After(onDone)
			}
			return true
		}
	}

	// Miss. Merge into an outstanding fetch of the same block if any.
	blk := c.blockAddr(addr)
	if m := c.findMSHR(blk); m != nil {
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
		return false
	}
	c.Misses++
	m := c.newMSHR(blk, isWrite)
	if !onDone.IsZero() {
		m.waiters = append(m.waiters, onDone)
	}
	c.addMSHR(m)
	// Fetch after the lookup latency (miss detection time).
	c.sched.After(ev.Token{Kind: ev.MSHRStart, ID: c.id, Arg: blk})
	return true
}

// StartFetch issues the downstream fetch for an outstanding miss: the
// MSHRStart token scheduled by Access has become due (the lookup latency
// elapsed, miss detected).
func (c *Cache) StartFetch(blk uint64) {
	c.next.Request(blk, false, ev.Token{Kind: ev.MSHRFill, ID: c.id, Arg: blk})
}

// Outstanding reports whether the cache has a miss outstanding for the
// block address blk: whether an MSHRStart or MSHRFill token for it has
// an MSHR to act on.
func (c *Cache) Outstanding(blk uint64) bool { return c.findMSHR(blk) != nil }

// OutstandingMisses returns the number of misses the cache has
// outstanding.
func (c *Cache) OutstandingMisses() int { return len(c.active) }

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
	setIdx, key := c.setAndKey(addr)
	for _, t := range c.set(setIdx)[:c.cfg.Ways] {
		if t&^lineDirty == key {
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
	setIdx, key := c.setAndKey(blk)
	set := c.set(setIdx)
	tags, stamps := set[:c.cfg.Ways], set[c.cfg.Ways:]
	victim := 0
	for i, t := range tags {
		if t&lineValid == 0 {
			victim = i
			break
		}
		if stamps[i] < stamps[victim] {
			victim = i
		}
	}
	if old := tags[victim]; old&(lineValid|lineDirty) == lineValid|lineDirty {
		victimAddr := (uint64(old>>flagBits)<<c.setBits | setIdx) << c.shift
		c.next.Request(victimAddr, true, ev.Token{})
	}
	m := c.removeMSHR(blk)
	if m.markDirty {
		key |= lineDirty
	}
	tags[victim], stamps[victim] = key, c.tick()
	// Waiters fire directly instead of bouncing through the scheduler at
	// zero delay: they only mark their own window entry (or upstream
	// MSHR) complete, so their order relative to other same-cycle events
	// is immaterial, and the system's event queue has no zero-delay lane:
	// each of its lanes holds events a fixed lookup or read latency after
	// they were scheduled. now is not threaded through Fill; waiter
	// actions ignore their argument's absolute value (completion
	// bookkeeping is cycle-exact via the scheduler events that triggered
	// this fill).
	for i, w := range m.waiters {
		c.sched.Dispatch(w, 0)
		m.waiters[i] = ev.Token{}
	}
	m.waiters = m.waiters[:0]
	c.free = append(c.free, m)
}

// Request implements Backend, so a Cache can serve as the next level of
// another Cache: fetches become reads, write-backs become writes.
func (c *Cache) Request(addr uint64, isWrite bool, onDone ev.Token) {
	// Lower levels are modelled without an MSHR bound (Table 1 specifies
	// MSHRs only per core); Access never refuses when MSHRs == 0.
	if !c.Access(addr, isWrite, onDone) {
		panic(fmt.Sprintf("cache %s: unbounded level refused a request", c.cfg.Name))
	}
}

// Accesses returns the total number of accesses.
func (c *Cache) Accesses() int64 { return c.Hits + c.Misses }
