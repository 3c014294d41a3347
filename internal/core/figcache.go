package core

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memctrl"
)

// FIGCacheConfig parameterizes the fine-grained in-DRAM cache.
type FIGCacheConfig struct {
	// SegmentBlocks is the row segment size in cache blocks. The paper's
	// default is 16 blocks (1 kB, 1/8 of an 8 kB row); Section 9.2 sweeps
	// 8 to 128.
	SegmentBlocks int
	// CacheRowsPerBank is the number of in-DRAM cache rows per bank
	// (64 in the paper: two 32-row fast subarrays, or 64 reserved rows of
	// slow subarray 0 in a bank without fast subarrays, FIGCache-Slow).
	CacheRowsPerBank int
	// Replacement selects the eviction policy (default ReplRowBenefit).
	Replacement ReplacementKind
	// InsertThreshold is the number of misses a segment must accumulate
	// before it is inserted. 1 is the paper's insert-any-miss policy;
	// Section 9.4 sweeps 1, 2, 4, 8.
	InsertThreshold int
	// Substrate selects the in-DRAM relocation mechanism (default FIGARO).
	Substrate Substrate
}

// Substrate enumerates the relocation mechanisms FIGCache can be built
// on: FIGARO (the paper's contribution; bank-local, distance-independent)
// or RowClone-PSM (the Section 10 related-work baseline, which moves data
// over the shared internal global data bus and blocks the whole channel).
type Substrate int

const (
	SubstrateFIGARO Substrate = iota
	SubstrateRowClonePSM

	numSubstrates
)

var substrateNames = [numSubstrates]string{"FIGARO", "RowClone-PSM"}

func (s Substrate) String() string {
	if s < 0 || int(s) >= len(substrateNames) {
		return fmt.Sprintf("Substrate(%d)", int(s))
	}
	return substrateNames[s]
}

// DefaultFIGCacheConfig returns the paper's default FIGCache parameters.
// They serve both organizations: the geometry decides where the cache
// rows live (see FIGCache.ShouldInsert).
func DefaultFIGCacheConfig() FIGCacheConfig {
	return FIGCacheConfig{
		SegmentBlocks:    16,
		CacheRowsPerBank: 64,
		Replacement:      ReplRowBenefit,
		InsertThreshold:  1,
	}
}

// Validate reports configuration errors.
func (c FIGCacheConfig) Validate(geo dram.Geometry) error {
	switch {
	case c.SegmentBlocks <= 0 || c.SegmentBlocks > geo.BlocksPerRow():
		return fmt.Errorf("core: segment blocks %d out of range (1..%d)", c.SegmentBlocks, geo.BlocksPerRow())
	case geo.BlocksPerRow()%c.SegmentBlocks != 0:
		return fmt.Errorf("core: segment blocks %d must divide blocks per row %d", c.SegmentBlocks, geo.BlocksPerRow())
	case geo.BlocksPerRow()/c.SegmentBlocks > 64:
		// The RowBenefit policy marks a draining row's segments in one
		// 64-bit word.
		return fmt.Errorf("core: %d segments per row exceed the 64 a row's eviction mask holds", geo.BlocksPerRow()/c.SegmentBlocks)
	case geo.RowsPerBank() > maxSegRows:
		// A segment's tag holds its source row in 24 bits (segKey).
		return fmt.Errorf("core: %d rows per bank exceed the %d a segment tag can name", geo.RowsPerBank(), maxSegRows)
	case c.CacheRowsPerBank <= 0:
		return fmt.Errorf("core: cache rows per bank must be positive, got %d", c.CacheRowsPerBank)
	case c.InsertThreshold <= 0:
		return fmt.Errorf("core: insert threshold must be positive, got %d", c.InsertThreshold)
	case c.Replacement < 0 || c.Replacement >= numReplacementKinds:
		return fmt.Errorf("core: unknown replacement kind %d", int(c.Replacement))
	case c.Substrate < 0 || c.Substrate >= numSubstrates:
		return fmt.Errorf("core: unknown relocation substrate %d", int(c.Substrate))
	}
	return nil
}

// FIGCache is the fine-grained in-DRAM cache of Section 5, covering every
// bank of one channel. It implements memctrl.CacheHook.
type FIGCache struct {
	cfg FIGCacheConfig
	geo dram.Geometry

	banks []bankCache

	// Stats aggregated across banks.
	Insertions  int64
	Evictions   int64
	WriteBacks  int64 // dirty-segment write-back relocations
	ThrottledBy int64 // insertions declined by the threshold policy
}

type bankCache struct {
	fts  *FTS
	repl replacer
	// missCounts tracks per-segment consecutive misses for threshold
	// insertion policies; nil under insert-any-miss (threshold 1), which
	// never counts. Cleared on insertion.
	missCounts map[segKey]int
	// queue holds the bank's queued insertions in the order Insert
	// queued them; Flush installs and empties it when the controller
	// closes the source row. Requests in this window keep hitting the
	// open source row, and a second insertion of a queued segment is
	// refused. A flush rarely finds more than one insertion queued, so
	// the queue is scanned, not indexed.
	queue []insertion
}

// insertion is one queued FIGCache insertion: the miss location whose
// segment it relocates, the slot it reserved, and whether it evicted a
// dirty victim whose write-back runs first.
type insertion struct {
	loc       dram.Location
	slot      int
	writeBack bool
}

// NewFIGCache builds a FIGCache over the channel geometry. Its banks'
// tag stores share one backing array per kind (newFTSs), and the bank
// records, replacers included, sit in one slice, so a channel's cache
// costs a handful of allocations however many banks it covers.
func NewFIGCache(cfg FIGCacheConfig, geo dram.Geometry) (*FIGCache, error) {
	if err := cfg.Validate(geo); err != nil {
		return nil, err
	}
	segsPerRow := geo.BlocksPerRow() / cfg.SegmentBlocks
	nBanks := geo.Ranks * geo.BanksPerRank()
	ftss, err := newFTSs(nBanks, cfg.CacheRowsPerBank*segsPerRow, segsPerRow)
	if err != nil {
		return nil, err
	}
	c := &FIGCache{cfg: cfg, geo: geo, banks: make([]bankCache, nBanks)}
	for i := range c.banks {
		b := &c.banks[i]
		b.fts = &ftss[i]
		// Bank i's Random policy draws from seed i+1.
		b.repl = *newReplacer(cfg.Replacement, 1+uint64(i))
		if cfg.InsertThreshold > 1 {
			b.missCounts = make(map[segKey]int)
		}
	}
	return c, nil
}

// Config returns the cache configuration.
func (c *FIGCache) Config() FIGCacheConfig { return c.cfg }

// FTSForBank exposes a bank's tag store (stats, tests).
func (c *FIGCache) FTSForBank(id int) *FTS { return c.banks[id].fts }

// segOf returns the segment index of a block within its row.
func (c *FIGCache) segOf(block int) int { return block / c.cfg.SegmentBlocks }

// cacheLoc converts an FTS slot plus block offset into the DRAM location
// of the block inside the in-DRAM cache row space.
func (c *FIGCache) cacheLoc(orig dram.Location, fts *FTS, slot, blockInSeg int) dram.Location {
	return dram.Location{
		Rank:     orig.Rank,
		Group:    orig.Group,
		Bank:     orig.Bank,
		Row:      fts.RowOfSlot(slot),
		Block:    fts.SlotOffset(slot)*c.cfg.SegmentBlocks + blockInSeg,
		CacheRow: true,
	}
}

// Lookup implements memctrl.CacheHook: FTS lookup for every request.
func (c *FIGCache) Lookup(loc dram.Location, isWrite bool) (dram.Location, bool) {
	bank := &c.banks[loc.BankID(c.geo)]
	seg := c.segOf(loc.Block)
	slot, hit := bank.fts.Lookup(loc.Row, seg, isWrite)
	if !hit {
		return dram.Location{}, false
	}
	return c.cacheLoc(loc, bank.fts, slot, loc.Block%c.cfg.SegmentBlocks), true
}

// ShouldInsert implements the insertion policy of Section 5.1/9.4:
// insert-any-miss when InsertThreshold is 1, otherwise insert after the
// segment accumulates InsertThreshold consecutive misses. A bank without
// fast subarrays (FIGCache-Slow) hosts its cache rows in slow subarray 0,
// whose segments are never inserted, because FIGARO cannot relocate data
// within a single subarray (Section 5.2).
func (c *FIGCache) ShouldInsert(loc dram.Location) bool {
	if c.geo.FastSubarrays == 0 && c.geo.SubarrayOfRow(loc.Row) == 0 {
		return false
	}
	if c.cfg.InsertThreshold == 1 {
		return true
	}
	bank := &c.banks[loc.BankID(c.geo)]
	key := makeSegKey(loc.Row, c.segOf(loc.Block))
	bank.missCounts[key]++
	if bank.missCounts[key] >= c.cfg.InsertThreshold {
		delete(bank.missCounts, key)
		return true
	}
	c.ThrottledBy++
	return false
}

// queued reports whether the bank has queued the insertion of a
// segment.
func (c *FIGCache) queued(bank *bankCache, row, seg int) bool {
	for _, in := range bank.queue {
		if in.loc.Row == row && c.segOf(in.loc.Block) == seg {
			return true
		}
	}
	return false
}

// Insert implements memctrl.CacheHook: reserve a slot (evicting per the
// replacement policy if full) and queue the insertion. The victim's tag
// leaves the FTS now; a dirty victim's write-back runs at Flush, ahead
// of the insertion's relocation.
func (c *FIGCache) Insert(loc dram.Location) bool {
	bank := &c.banks[loc.BankID(c.geo)]
	seg := c.segOf(loc.Block)
	if bank.fts.Contains(loc.Row, seg) || c.queued(bank, loc.Row, seg) {
		return false // already cached or already being inserted
	}
	writeBack := false
	slot, free := bank.fts.FreeSlot()
	if !free {
		slot = bank.repl.victim(bank.fts)
		if slot < 0 {
			return false // everything evictable is reserved by queued insertions
		}
		_, _, dirty, valid := bank.fts.Evict(slot)
		if valid {
			c.Evictions++
			if dirty {
				writeBack = true
				c.WriteBacks++
			}
		}
	}
	bank.fts.Reserve(slot)
	bank.queue = append(bank.queue, insertion{loc: loc, slot: slot, writeBack: writeBack})
	c.Insertions++
	return true
}

// Flush implements memctrl.CacheHook: install the bank's queued
// segments in queue order, releasing their slots, and return the burst.
// Each insertion relocates its segment with the source row already
// open: n RELOC + ACT(cache row) + PRE via FIGARO, or the
// channel-blocking two-hop copy via RowClone-PSM. A dirty victim first
// adds a standalone write-back: ACT(cache row) + n RELOC + ACT(source
// row) + PRE.
func (c *FIGCache) Flush(ch *dram.Channel, bank int) memctrl.RelocBurst {
	b := &c.banks[bank]
	n := c.cfg.SegmentBlocks
	psm := c.cfg.Substrate == SubstrateRowClonePSM
	insert, writeBack := ch.RelocCost(n, true), ch.RelocStandaloneCost(n, true, false)
	if psm {
		insert, writeBack = ch.PSMCost(n, true), ch.PSMCost(n, false)
	}
	burst := memctrl.RelocBurst{Loc: b.queue[0].loc, Count: len(b.queue), ChannelWide: psm}
	for _, in := range b.queue {
		if in.writeBack {
			burst.Cost += writeBack
			burst.Blocks += n
		}
		burst.Cost += insert
		burst.Blocks += n
		b.fts.Unreserve(in.slot)
		b.fts.Install(in.slot, in.loc.Row, c.segOf(in.loc.Block), false)
	}
	b.queue = b.queue[:0]
	return burst
}

// Pending implements memctrl.CacheHook.
func (c *FIGCache) Pending(bank int) bool { return len(c.banks[bank].queue) > 0 }

// HitRate returns the aggregate in-DRAM cache hit rate.
func (c *FIGCache) HitRate() float64 {
	var hits, misses int64
	for _, b := range c.banks {
		hits += b.fts.Hits
		misses += b.fts.Misses
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Occupancy returns the fraction of cache slots currently valid,
// aggregated over all banks.
func (c *FIGCache) Occupancy() float64 {
	var valid, total int
	for _, b := range c.banks {
		valid += b.fts.ValidSlots()
		total += b.fts.Slots()
	}
	if total == 0 {
		return 0
	}
	return float64(valid) / float64(total)
}

var _ memctrl.CacheHook = (*FIGCache)(nil)
