// Hotspot: a direct look at FIGCache's mechanism at the cache level,
// without the full-system simulator. It drives the FIGCache tag store and
// the DRAM timing model with a synthetic hot-segment access pattern and
// shows how (1) insert-any-miss fills the cache, (2) the benefit counters
// separate hot from cold segments, and (3) the RowBenefit replacement
// policy evicts a whole cache row of cold segments while protecting the
// hot ones.
//
// Run with: go run ./examples/hotspot
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dram"
)

func main() {
	geo := dram.Default()
	geo.FastSubarrays = 2
	slow := dram.DDR4()
	channel, err := dram.NewChannel(geo, slow, slow.Fast(dram.PaperFastScale()), false)
	if err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultFIGCacheConfig()
	cfg.CacheRowsPerBank = 2 // tiny cache so eviction dynamics are visible
	cache, err := core.NewFIGCache(cfg, geo)
	if err != nil {
		log.Fatal(err)
	}

	access := func(row, block int, label string) {
		loc := dram.Location{Row: row, Block: block}
		if _, hit := cache.Lookup(loc, false); hit {
			fmt.Printf("  %-22s row %4d seg %d: HIT\n", label, row, block/16)
			return
		}
		var note string
		if cache.ShouldInsert(loc) && cache.Insert(loc) {
			// The memory controller flushes a bank's queued insertions
			// when the source row closes, and only then are the cache
			// tags installed; this demo has no controller, so it flushes
			// each insertion at once.
			burst := cache.Flush(channel, loc.BankID(geo))
			note = fmt.Sprintf("inserted (%d RELOCs, %d-cycle occupancy)", burst.Blocks, burst.Cost)
		}
		fmt.Printf("  %-22s row %4d seg %d: miss, %s\n", label, row, block/16, note)
	}

	fmt.Println("--- phase 1: first touch of 8 hot segments (fills cache row 0) ---")
	for i := 0; i < 8; i++ {
		access(1000+i, 0, "hot first touch")
	}

	fmt.Println("--- phase 2: hot segments re-accessed 5x (benefit accumulates) ---")
	for pass := 0; pass < 5; pass++ {
		for i := 0; i < 8; i++ {
			loc := dram.Location{Row: 1000 + i, Block: 0}
			if _, hit := cache.Lookup(loc, false); !hit {
				log.Fatalf("hot segment %d missed unexpectedly", i)
			}
		}
	}
	fmt.Printf("  all 8 hot segments hit on every pass (hit rate so far %.1f%%)\n", cache.HitRate()*100)

	fmt.Println("--- phase 3: 8 cold segments stream through (fill cache row 1) ---")
	for i := 0; i < 8; i++ {
		access(2000+i, 0, "cold stream")
	}

	fmt.Println("--- phase 4: 8 new segments force eviction ---")
	fmt.Println("  RowBenefit selects the cache row with the lowest cumulative")
	fmt.Println("  benefit (the cold row) and drains it one segment per insertion:")
	for i := 0; i < 8; i++ {
		access(3000+i, 0, "new segment")
	}

	fmt.Println("--- phase 5: verify the hot row survived ---")
	hot, cold := 0, 0
	for i := 0; i < 8; i++ {
		if _, h := cache.Lookup(dram.Location{Row: 1000 + i, Block: 0}, false); h {
			hot++
		}
		if _, h := cache.Lookup(dram.Location{Row: 2000 + i, Block: 0}, false); h {
			cold++
		}
	}
	fmt.Printf("  hot segments still cached: %d/8; cold segments still cached: %d/8\n", hot, cold)
	fmt.Printf("  insertions %d, evictions %d, write-backs %d\n",
		cache.Insertions, cache.Evictions, cache.WriteBacks)

	// Timing footnote: what one insertion costs the bank.
	fmt.Printf("\nper-insertion bank occupancy: %d bus cycles (%.1f ns) for a 16-block segment\n",
		channel.RelocCost(16, true), slow.NS(channel.RelocCost(16, true)))
}
