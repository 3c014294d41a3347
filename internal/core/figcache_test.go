package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/memctrl"
)

func newTestChannel(t *testing.T, fastSubarrays int) *dram.Channel {
	t.Helper()
	geo := dram.Default()
	geo.FastSubarrays = fastSubarrays
	slow := dram.DDR4()
	ch, err := dram.NewChannel(geo, slow, slow.Fast(dram.PaperFastScale()), false)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func newTestFIGCache(t *testing.T, mutate func(*FIGCacheConfig)) (*FIGCache, *dram.Channel) {
	t.Helper()
	geo := dram.Default()
	geo.FastSubarrays = 2
	cfg := DefaultFIGCacheConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	fc, err := NewFIGCache(cfg, geo)
	if err != nil {
		t.Fatal(err)
	}
	return fc, newTestChannel(t, 2)
}

// insertNow queues an insertion and flushes its bank at once, emulating
// the controller executing the relocation right away. ok reports
// whether Insert queued one.
func insertNow(fc *FIGCache, ch *dram.Channel, loc dram.Location) (burst memctrl.RelocBurst, ok bool) {
	if !fc.Insert(loc) {
		return memctrl.RelocBurst{}, false
	}
	return fc.Flush(ch, loc.BankID(fc.geo)), true
}

func TestFIGCacheConfigValidate(t *testing.T) {
	geo := dram.Default()
	if err := DefaultFIGCacheConfig().Validate(geo); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*FIGCacheConfig){
		func(c *FIGCacheConfig) { c.SegmentBlocks = 0 },
		func(c *FIGCacheConfig) { c.SegmentBlocks = 3 }, // does not divide 128
		func(c *FIGCacheConfig) { c.SegmentBlocks = 256 },
		func(c *FIGCacheConfig) { c.SegmentBlocks = 1 }, // 128 segments: more than the 64-bit eviction mask holds
		func(c *FIGCacheConfig) { c.CacheRowsPerBank = 0 },
		func(c *FIGCacheConfig) { c.InsertThreshold = 0 },
		func(c *FIGCacheConfig) { c.Replacement = ReplacementKind(99) },
	}
	for i, mutate := range cases {
		cfg := DefaultFIGCacheConfig()
		mutate(&cfg)
		if err := cfg.Validate(geo); err == nil {
			t.Errorf("case %d: accepted invalid config %+v", i, cfg)
		}
	}
	// A segment tag holds its source row in 24 bits: a bank of 2^24 rows
	// fits, one more subarray does not.
	big := geo
	big.SubarraysPerBank = 1 << 24 / geo.RowsPerSubarray
	if err := DefaultFIGCacheConfig().Validate(big); err != nil {
		t.Errorf("2^24 rows per bank: %v", err)
	}
	big.SubarraysPerBank++
	want := fmt.Sprintf("core: %d rows per bank exceed the 16777216 a segment tag can name", big.RowsPerBank())
	if err := DefaultFIGCacheConfig().Validate(big); err == nil || err.Error() != want {
		t.Errorf("%d rows per bank: error %v, want %q", big.RowsPerBank(), err, want)
	}
}

func TestFTSBasics(t *testing.T) {
	f, err := NewFTS(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	if f.CacheRows() != 64 || f.SegsPerRow() != 8 {
		t.Fatalf("geometry: %d rows x %d segs", f.CacheRows(), f.SegsPerRow())
	}
	if _, hit := f.Lookup(100, 3, false); hit {
		t.Fatal("hit on empty FTS")
	}
	slot, free := f.FreeSlot()
	if !free {
		t.Fatal("no free slot in empty FTS")
	}
	f.Install(slot, 100, 3, false)
	got, hit := f.Lookup(100, 3, true)
	if !hit || got != slot {
		t.Fatalf("Lookup = (%d,%v), want (%d,true)", got, hit, slot)
	}
	// Write set the dirty bit; eviction reports it.
	row, seg, dirty, valid := f.Evict(slot)
	if !valid || row != 100 || seg != 3 || !dirty {
		t.Errorf("Evict = (%d,%d,%v,%v)", row, seg, dirty, valid)
	}
	if _, hit := f.Lookup(100, 3, false); hit {
		t.Error("hit after eviction")
	}
}

func TestFTSBenefitSaturates(t *testing.T) {
	f, _ := NewFTS(8, 8)
	f.Install(0, 1, 0, false)
	for i := 0; i < 100; i++ {
		f.Lookup(1, 0, false)
	}
	if got := f.entry(0).benefit; got != 31 {
		t.Errorf("benefit = %d, want saturation at 31 (5 bits)", got)
	}
}

func TestFTSRowBenefitSums(t *testing.T) {
	f, _ := NewFTS(16, 8)
	f.Install(0, 1, 0, false)
	f.Install(1, 2, 0, false)
	f.Lookup(1, 0, false)
	f.Lookup(1, 0, false)
	f.Lookup(2, 0, false)
	if got, evictable := f.RowBenefit(0); got != 3 || !evictable {
		t.Errorf("RowBenefit(0) = %d, %v, want 3, true", got, evictable)
	}
	if got, evictable := f.RowBenefit(1); got != 0 || evictable {
		t.Errorf("RowBenefit(1) = %d, %v, want 0, false", got, evictable)
	}
}

func TestFIGCacheLookupMissThenHit(t *testing.T) {
	fc, ch := newTestFIGCache(t, nil)
	loc := dram.Location{Row: 1000, Block: 35} // segment 2 (blocks 32..47)

	if _, hit := fc.Lookup(loc, false); hit {
		t.Fatal("hit before insertion")
	}
	if !fc.ShouldInsert(loc) {
		t.Fatal("insert-any-miss declined an insertion")
	}
	burst, ok := insertNow(fc, ch, loc)
	if !ok {
		t.Fatal("Insert queued nothing")
	}
	if burst.Blocks != 16 {
		t.Errorf("burst blocks = %d, want 16 (one segment)", burst.Blocks)
	}
	if burst.IsLISA {
		t.Error("FIGCache burst marked as LISA")
	}
	want := ch.RelocCost(16, true)
	if burst.Cost != want {
		t.Errorf("burst cost = %d, want %d", burst.Cost, want)
	}

	// Any block of the cached segment now hits, at the right offset.
	for _, blk := range []int{32, 35, 47} {
		redirect, hit := fc.Lookup(dram.Location{Row: 1000, Block: blk}, false)
		if !hit {
			t.Fatalf("block %d missed after insertion", blk)
		}
		if !redirect.CacheRow {
			t.Fatal("redirect not in cache row space")
		}
		if got, want := redirect.Block%16, blk%16; got != want {
			t.Errorf("block %d: redirect offset %d, want %d", blk, got, want)
		}
	}
	// A block of a different segment in the same row still misses.
	if _, hit := fc.Lookup(dram.Location{Row: 1000, Block: 50}, false); hit {
		t.Error("segment 3 hit; only segment 2 was inserted")
	}
}

func TestFIGCacheDoubleInsertIsNoop(t *testing.T) {
	fc, ch := newTestFIGCache(t, nil)
	loc := dram.Location{Row: 5, Block: 0}
	if _, ok := insertNow(fc, ch, loc); !ok {
		t.Fatal("first insert failed")
	}
	if _, ok := insertNow(fc, ch, loc); ok {
		t.Error("second insert of the same segment queued an insertion")
	}
	if fc.Insertions != 1 {
		t.Errorf("Insertions = %d, want 1", fc.Insertions)
	}
}

func TestFIGCacheEvictionWhenFull(t *testing.T) {
	fc, ch := newTestFIGCache(t, func(c *FIGCacheConfig) { c.CacheRowsPerBank = 1 })
	// One cache row = 8 slots. Insert 9 distinct segments; the 9th must
	// evict.
	for i := 0; i < 9; i++ {
		loc := dram.Location{Row: 100 + i, Block: 0}
		if _, ok := insertNow(fc, ch, loc); !ok {
			t.Fatalf("insert %d returned nil", i)
		}
	}
	if fc.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", fc.Evictions)
	}
	fts := fc.FTSForBank(0)
	if got := fts.ValidSlots(); got != 8 {
		t.Errorf("valid slots = %d, want 8", got)
	}
}

func TestFIGCacheDirtyEvictionAddsWriteBack(t *testing.T) {
	fc, ch := newTestFIGCache(t, func(c *FIGCacheConfig) { c.CacheRowsPerBank = 1 })
	// Fill the row; dirty every segment via write hits.
	for i := 0; i < 8; i++ {
		loc := dram.Location{Row: 100 + i, Block: 0}
		insertNow(fc, ch, loc)
		if _, hit := fc.Lookup(loc, true); !hit {
			t.Fatalf("segment %d should hit", i)
		}
	}
	burst, ok := insertNow(fc, ch, dram.Location{Row: 500, Block: 0})
	if !ok {
		t.Fatal("insert with eviction returned nil")
	}
	if fc.WriteBacks != 1 {
		t.Errorf("WriteBacks = %d, want 1", fc.WriteBacks)
	}
	// Cost must include both the write-back and the insertion relocation.
	want := ch.RelocStandaloneCost(16, true, false) + ch.RelocCost(16, true)
	if burst.Cost != want {
		t.Errorf("burst cost = %d, want %d", burst.Cost, want)
	}
	if burst.Blocks != 32 {
		t.Errorf("burst blocks = %d, want 32 (write-back + insert)", burst.Blocks)
	}
}

// TestFIGCacheSlowExcludesReservedSubarray pins where the geometry puts
// the cache rows: a bank without fast subarrays (FIGCache-Slow) hosts
// them in slow subarray 0, so it never caches that subarray's segments,
// and a bank with fast subarrays reserves nothing.
func TestFIGCacheSlowExcludesReservedSubarray(t *testing.T) {
	for _, fast := range []int{0, 2} {
		geo := dram.Default()
		geo.FastSubarrays = fast
		fc, err := NewFIGCache(DefaultFIGCacheConfig(), geo)
		if err != nil {
			t.Fatal(err)
		}
		// Rows 0..511 live in subarray 0; rows 512 on in later ones.
		if got := fc.ShouldInsert(dram.Location{Row: 10, Block: 0}); got != (fast > 0) {
			t.Errorf("%d fast subarrays: subarray-0 segment accepted = %v, want %v", fast, got, fast > 0)
		}
		if !fc.ShouldInsert(dram.Location{Row: 512, Block: 0}) {
			t.Errorf("%d fast subarrays: segment from subarray 1 declined", fast)
		}
	}
}

func TestInsertionThresholdPolicy(t *testing.T) {
	fc, _ := newTestFIGCache(t, func(c *FIGCacheConfig) { c.InsertThreshold = 4 })
	loc := dram.Location{Row: 9, Block: 0}
	for i := 1; i <= 3; i++ {
		if fc.ShouldInsert(loc) {
			t.Fatalf("threshold 4: accepted on miss %d", i)
		}
	}
	if !fc.ShouldInsert(loc) {
		t.Fatal("threshold 4: declined on 4th miss")
	}
	// Counter was consumed: the next miss starts over.
	if fc.ShouldInsert(loc) {
		t.Error("counter not reset after threshold insertion")
	}
	if fc.ThrottledBy == 0 {
		t.Error("ThrottledBy not counted")
	}
}

func TestRowBenefitReplacementDrainsOneRow(t *testing.T) {
	// With 2 cache rows of 8 slots, fill the cache, make row 1's segments
	// much more beneficial, then insert new segments: the victims must all
	// come from row 0 until it is drained.
	fc, ch := newTestFIGCache(t, func(c *FIGCacheConfig) { c.CacheRowsPerBank = 2 })
	fts := fc.FTSForBank(0)
	for i := 0; i < 16; i++ {
		insertNow(fc, ch, dram.Location{Row: 100 + i, Block: 0})
	}
	// Row 1 holds segments 108..115 (slots 8..15): give them hits.
	for i := 8; i < 16; i++ {
		for j := 0; j < 5; j++ {
			fc.Lookup(dram.Location{Row: 100 + i, Block: 0}, false)
		}
	}
	// Insert 8 new segments; each must evict a row-0 resident.
	for i := 0; i < 8; i++ {
		insertNow(fc, ch, dram.Location{Row: 200 + i, Block: 0})
	}
	for i := 8; i < 16; i++ {
		if !fts.Contains(100+i, 0) {
			t.Errorf("high-benefit segment row %d evicted from row 1", 100+i)
		}
	}
	for i := 0; i < 8; i++ {
		if fts.Contains(100+i, 0) {
			t.Errorf("low-benefit segment row %d survived in row 0", 100+i)
		}
	}
}

// TestRowBenefitVictimPicksFirstLowestRow pins how RowBenefit picks
// the row to drain: the first row, in cache-row order, with the lowest
// cumulative benefit among the rows holding an evictable segment, so a
// row whose valid slots are all reserved is passed over.
func TestRowBenefitVictimPicksFirstLowestRow(t *testing.T) {
	f, _ := NewFTS(12, 4) // three cache rows of four slots
	for slot := 0; slot < 12; slot++ {
		f.Install(slot, 100+slot, 0, false)
	}
	f.Lookup(104, 0, false) // row 1 sums 1, rows 0 and 2 sum 0
	if v := newReplacer(ReplRowBenefit, 1).victim(f); f.RowOfSlot(v) != 0 {
		t.Errorf("victim slot %d in row %d, want row 0 (first of two rows summing 0)", v, f.RowOfSlot(v))
	}
	for slot := 0; slot < 4; slot++ {
		f.Reserve(slot)
	}
	if v := newReplacer(ReplRowBenefit, 1).victim(f); f.RowOfSlot(v) != 2 {
		t.Errorf("victim slot %d in row %d, want row 2 (row 0 is all reserved)", v, f.RowOfSlot(v))
	}
}

func TestSegmentBenefitReplacementEvictsLowest(t *testing.T) {
	fc, ch := newTestFIGCache(t, func(c *FIGCacheConfig) {
		c.CacheRowsPerBank = 1
		c.Replacement = ReplSegmentBenefit
	})
	for i := 0; i < 8; i++ {
		insertNow(fc, ch, dram.Location{Row: 100 + i, Block: 0})
	}
	// Give everything except segment 103 a hit.
	for i := 0; i < 8; i++ {
		if i == 3 {
			continue
		}
		fc.Lookup(dram.Location{Row: 100 + i, Block: 0}, false)
	}
	insertNow(fc, ch, dram.Location{Row: 500, Block: 0})
	fts := fc.FTSForBank(0)
	if fts.Contains(103, 0) {
		t.Error("lowest-benefit segment 103 survived")
	}
	if !fts.Contains(500, 0) {
		t.Error("new segment not installed")
	}
}

func TestLRUReplacementEvictsOldest(t *testing.T) {
	fc, ch := newTestFIGCache(t, func(c *FIGCacheConfig) {
		c.CacheRowsPerBank = 1
		c.Replacement = ReplLRU
	})
	for i := 0; i < 8; i++ {
		insertNow(fc, ch, dram.Location{Row: 100 + i, Block: 0})
	}
	// Touch everything except 100 (the oldest untouched entry).
	for i := 1; i < 8; i++ {
		fc.Lookup(dram.Location{Row: 100 + i, Block: 0}, false)
	}
	insertNow(fc, ch, dram.Location{Row: 500, Block: 0})
	if fc.FTSForBank(0).Contains(100, 0) {
		t.Error("LRU victim 100 survived")
	}
}

// TestRandomReplacementIsDeterministicPerSeed checks that the Random
// policy draws from a fixed per-bank seed: two caches fed the same
// insertions evict the same segments.
func TestRandomReplacementIsDeterministicPerSeed(t *testing.T) {
	run := func() []bool {
		geo := dram.Default()
		geo.FastSubarrays = 2
		cfg := DefaultFIGCacheConfig()
		cfg.CacheRowsPerBank = 1
		cfg.Replacement = ReplRandom
		fc, err := NewFIGCache(cfg, geo)
		if err != nil {
			t.Fatal(err)
		}
		ch := newTestChannel(t, 2)
		for i := 0; i < 20; i++ {
			insertNow(fc, ch, dram.Location{Row: 100 + i, Block: 0})
		}
		out := make([]bool, 20)
		for i := range out {
			out[i] = fc.FTSForBank(0).Contains(100+i, 0)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Random policy not deterministic")
		}
	}
}

func TestFIGCachePerBankIsolation(t *testing.T) {
	fc, ch := newTestFIGCache(t, nil)
	locA := dram.Location{Group: 0, Bank: 0, Row: 7, Block: 0}
	locB := dram.Location{Group: 1, Bank: 2, Row: 7, Block: 0}
	insertNow(fc, ch, locA)
	if _, hit := fc.Lookup(locB, false); hit {
		t.Error("segment cached in bank A hit in bank B")
	}
	if _, hit := fc.Lookup(locA, false); !hit {
		t.Error("segment missing in its own bank")
	}
}

func TestFIGCacheHitRateAndOccupancy(t *testing.T) {
	fc, ch := newTestFIGCache(t, nil)
	loc := dram.Location{Row: 3, Block: 0}
	fc.Lookup(loc, false) // miss
	insertNow(fc, ch, loc)
	fc.Lookup(loc, false) // hit
	if got := fc.HitRate(); got != 0.5 {
		t.Errorf("HitRate = %g, want 0.5", got)
	}
	if fc.Occupancy() <= 0 {
		t.Error("Occupancy should be positive after an insertion")
	}
}

// Property: after any interleaving of inserts and lookups, the FTS index
// stays consistent — every valid slot is findable by its tag and no two
// slots share a tag.
func TestPropertyFTSIndexConsistent(t *testing.T) {
	f := func(ops []uint16) bool {
		geo := dram.Default()
		geo.FastSubarrays = 2
		cfg := DefaultFIGCacheConfig()
		cfg.CacheRowsPerBank = 2
		fc, err := NewFIGCache(cfg, geo)
		if err != nil {
			return false
		}
		ch := newTestChannel(t, 2)
		for _, op := range ops {
			loc := dram.Location{Row: int(op) % 4096, Block: int(op) % 128}
			if op%3 == 0 {
				if _, hit := fc.Lookup(loc, op%2 == 0); !hit && fc.ShouldInsert(loc) {
					insertNow(fc, ch, loc)
				}
			} else {
				fc.Lookup(loc, false)
			}
		}
		fts := fc.FTSForBank(0)
		seen := make(map[segKey]int)
		for i := 0; i < fts.Slots(); i++ {
			e := fts.entry(i)
			if !e.valid {
				continue
			}
			if prev, dup := seen[e.key]; dup {
				t.Logf("slots %d and %d share tag %v", prev, i, e.key)
				return false
			}
			seen[e.key] = i
			if !fts.Contains(e.key.row(), e.key.seg()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the cache never exceeds its slot capacity.
func TestPropertyCapacityNeverExceeded(t *testing.T) {
	f := func(rows []uint16) bool {
		geo := dram.Default()
		geo.FastSubarrays = 2
		cfg := DefaultFIGCacheConfig()
		cfg.CacheRowsPerBank = 2
		fc, err := NewFIGCache(cfg, geo)
		if err != nil {
			return false
		}
		ch := newTestChannel(t, 2)
		for _, r := range rows {
			insertNow(fc, ch, dram.Location{Row: int(r) % 32768, Block: 0})
			if fc.FTSForBank(0).ValidSlots() > fc.FTSForBank(0).Slots() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRowClonePSMSubstrate(t *testing.T) {
	geo := dram.Default()
	geo.FastSubarrays = 2
	cfg := DefaultFIGCacheConfig()
	cfg.Substrate = SubstrateRowClonePSM
	fc, err := NewFIGCache(cfg, geo)
	if err != nil {
		t.Fatal(err)
	}
	ch := newTestChannel(t, 2)
	burst, ok := insertNow(fc, ch, dram.Location{Row: 7, Block: 0})
	if !ok {
		t.Fatal("insert failed")
	}
	if !burst.ChannelWide {
		t.Error("PSM burst not marked channel-wide")
	}
	// PSM relocation is strictly more expensive than FIGARO's: two global
	// data-bus crossings per block plus the intermediate bank's rows.
	if figaro := ch.RelocCost(cfg.SegmentBlocks, true); burst.Cost <= figaro {
		t.Errorf("PSM cost %d not above FIGARO cost %d", burst.Cost, figaro)
	}
}

func TestSubstrateValidation(t *testing.T) {
	cfg := DefaultFIGCacheConfig()
	cfg.Substrate = Substrate(99)
	if err := cfg.Validate(dram.Default()); err == nil {
		t.Error("accepted unknown substrate")
	}
	if SubstrateFIGARO.String() != "FIGARO" || SubstrateRowClonePSM.String() != "RowClone-PSM" {
		t.Error("substrate names wrong")
	}
}
