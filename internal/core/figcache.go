package core

import (
	"fmt"
	"slices"

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

	banks []*bankCache

	// plan is the scratch the next Insert returns a pointer to; per the
	// CacheHook contract the controller copies it before the call after.
	// Keeping it here instead of allocating per insertion is what lets a
	// relocating preset run allocation-free in steady state.
	//fglint:preserved scratch; fully overwritten by every Insert before the pointer is returned
	plan memctrl.RelocPlan

	// Stats aggregated across banks.
	Insertions  int64
	Evictions   int64
	WriteBacks  int64 // dirty-segment write-back relocations
	ThrottledBy int64 // insertions declined by the threshold policy
}

type bankCache struct {
	fts  *FTS
	repl *replacer
	// missCounts tracks per-segment consecutive misses for threshold
	// insertion policies (threshold > 1). Cleared on insertion.
	missCounts map[segKey]int
	// inflight lists, in ascending order, the segments whose insertion
	// the controller has planned but not yet executed (the relocation
	// runs when the source row closes). Requests in this window keep
	// hitting the open source row, and duplicate insertions are
	// suppressed. A bank rarely has more than one insertion planned, so
	// a binary search of a short slice beats hashing.
	inflight []segKey
}

// NewFIGCache builds a FIGCache over the channel geometry.
func NewFIGCache(cfg FIGCacheConfig, geo dram.Geometry) (*FIGCache, error) {
	if err := cfg.Validate(geo); err != nil {
		return nil, err
	}
	segsPerRow := geo.BlocksPerRow() / cfg.SegmentBlocks
	c := &FIGCache{cfg: cfg, geo: geo}
	nBanks := geo.Ranks * geo.BanksPerRank()
	for i := 0; i < nBanks; i++ {
		fts, err := NewFTS(cfg.CacheRowsPerBank*segsPerRow, segsPerRow)
		if err != nil {
			return nil, err
		}
		// Bank i's Random policy draws from seed i+1.
		c.banks = append(c.banks, &bankCache{
			fts:        fts,
			repl:       newReplacer(cfg.Replacement, 1+uint64(i)),
			missCounts: make(map[segKey]int),
		})
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
	bank := c.banks[loc.BankID(c.geo)]
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
	bank := c.banks[loc.BankID(c.geo)]
	key := makeSegKey(loc.Row, c.segOf(loc.Block))
	bank.missCounts[key]++
	if bank.missCounts[key] >= c.cfg.InsertThreshold {
		delete(bank.missCounts, key)
		return true
	}
	c.ThrottledBy++
	return false
}

// Insert implements memctrl.CacheHook: allocate a slot (evicting per the
// replacement policy if full) and return the relocation plan. The source
// row is open when Insert is called, so the insertion relocation skips
// the first ACTIVATE (Section 8.1); a dirty victim adds a standalone
// write-back relocation to the plan cost. The tag is installed by the
// plan's Commit when the controller executes the relocation, so requests
// arriving while the source row remains open keep hitting it.
func (c *FIGCache) Insert(ch *dram.Channel, loc dram.Location, now int64) *memctrl.RelocPlan {
	bank := c.banks[loc.BankID(c.geo)]
	seg := c.segOf(loc.Block)
	key := makeSegKey(loc.Row, seg)
	at, planned := slices.BinarySearch(bank.inflight, key)
	if bank.fts.Contains(loc.Row, seg) || planned {
		return nil // already cached or already being inserted
	}

	var cost int64
	blocks := c.cfg.SegmentBlocks
	psm := c.cfg.Substrate == SubstrateRowClonePSM
	slot, free := bank.fts.FreeSlot()
	if !free {
		slot = bank.repl.victim(bank.fts)
		if slot < 0 {
			return nil // everything evictable is reserved by in-flight work
		}
		_, _, dirty, valid := bank.fts.Evict(slot)
		if valid {
			c.Evictions++
			if dirty {
				// Write the victim segment back: ACT(cache row) + n RELOC +
				// ACT(source row) + PRE.
				if psm {
					cost += ch.PSMCost(blocks, false)
				} else {
					cost += ch.RelocStandaloneCost(blocks, true, false)
				}
				blocks += c.cfg.SegmentBlocks
				c.WriteBacks++
			}
		}
	}
	// Insertion relocation with the source row already open: n RELOC +
	// ACT(cache row) + PRE via FIGARO, or the channel-blocking two-hop
	// copy via RowClone-PSM.
	if psm {
		cost += ch.PSMCost(c.cfg.SegmentBlocks, true)
	} else {
		cost += ch.RelocCost(c.cfg.SegmentBlocks, true)
	}
	bank.inflight = slices.Insert(bank.inflight, at, key)
	bank.fts.Reserve(slot)
	c.Insertions++
	c.plan = memctrl.RelocPlan{
		Loc: loc, Cost: cost, Blocks: blocks, ChannelWide: psm,
		CommitBank: loc.BankID(c.geo), CommitSlot: slot,
		CommitRow: loc.Row, CommitSeg: seg,
	}
	return &c.plan
}

// Commit implements memctrl.CacheHook: install the tag for a plan Insert
// returned, clearing its reservation. Called by the controller when the
// relocation executes.
func (c *FIGCache) Commit(p *memctrl.RelocPlan) {
	bank := c.banks[p.CommitBank]
	if at, ok := slices.BinarySearch(bank.inflight, makeSegKey(p.CommitRow, p.CommitSeg)); ok {
		bank.inflight = slices.Delete(bank.inflight, at, at+1)
	}
	bank.fts.Unreserve(p.CommitSlot)
	bank.fts.Install(p.CommitSlot, p.CommitRow, p.CommitSeg, false)
}

// CheckPlan implements memctrl.CacheHook: a restored plan must name one
// of this cache's banks and one of that bank's tag-store slots.
func (c *FIGCache) CheckPlan(p *memctrl.RelocPlan) error {
	if p.CommitBank < 0 || p.CommitBank >= len(c.banks) {
		return fmt.Errorf("core: FIGCache plan commits to bank %d of %d", p.CommitBank, len(c.banks))
	}
	if n := c.banks[p.CommitBank].fts.Slots(); p.CommitSlot < 0 || p.CommitSlot >= n {
		return fmt.Errorf("core: FIGCache plan commits to slot %d of bank %d's %d", p.CommitSlot, p.CommitBank, n)
	}
	return nil
}

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
