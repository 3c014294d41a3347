package core

import (
	"fmt"
	"testing"

	"repro/internal/dram"
)

// TestFunctionalEndToEnd drives FIGCache's policy decisions and the
// FunctionalBank data model together: every insertion the cache plans is
// executed as a real FIGARO relocation on the data-carrying bank, and
// every subsequent cache hit is checked to read exactly the bytes the
// source row holds. This closes the loop between the timing/policy model
// (what the evaluation measures) and the data path (what the DRAM would
// actually return).
func TestFunctionalEndToEnd(t *testing.T) {
	const (
		subarrays  = 8
		rowsPerSub = 16
		cols       = 16 // blocks per row (scaled down from 128)
		colBytes   = 64
		segBlocks  = 4 // segment = 4 blocks (scaled from 16)
	)
	geo := dram.Geometry{
		Ranks: 1, BankGroups: 1, BanksPerGroup: 1,
		SubarraysPerBank: subarrays - 1, RowsPerSubarray: rowsPerSub,
		RowBytes: cols * colBytes, BlockBytes: colBytes,
		FastSubarrays: 1, RowsPerFastSubarray: rowsPerSub,
	}
	cfg := FIGCacheConfig{
		SegmentBlocks:    segBlocks,
		CacheRowsPerBank: 2,
		Replacement:      ReplRowBenefit,
		InsertThreshold:  1,
	}
	fc, err := NewFIGCache(cfg, geo)
	if err != nil {
		t.Fatal(err)
	}
	slow := dram.DDR4()
	ch, err := dram.NewChannel(geo, slow, slow.Fast(dram.PaperFastScale()), false)
	if err != nil {
		t.Fatal(err)
	}

	// Functional bank: regular rows live in subarrays 0..6; the cache
	// rows live in subarray 7 (the "fast subarray").
	fb, err := NewFunctionalBank(subarrays, rowsPerSub, cols, colBytes)
	if err != nil {
		t.Fatal(err)
	}
	const cacheSub = subarrays - 1

	// Fill every regular row with a unique pattern.
	rowPattern := func(sub, row, col, b int) byte {
		return byte(sub*31 + row*17 + col*7 + b)
	}
	for sub := 0; sub < cacheSub; sub++ {
		for row := 0; row < rowsPerSub; row++ {
			data := make([]byte, cols*colBytes)
			for col := 0; col < cols; col++ {
				for b := 0; b < colBytes; b++ {
					data[col*colBytes+b] = rowPattern(sub, row, col, b)
				}
			}
			if err := fb.WriteRow(sub, row, data); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Access a stream of blocks; on each planned insertion, perform the
	// FIGARO relocation on the functional bank. On each hit, verify the
	// cache row holds the source bytes at the redirected location.
	bankRowToSub := func(row int) (sub, rowInSub int) {
		return row / rowsPerSub, row % rowsPerSub
	}
	verifyHit := func(loc, redirect dram.Location) error {
		srcSub, srcRow := bankRowToSub(loc.Row)
		cacheRow := redirect.Row // cache rows live in the cache subarray
		same, err := fb.ColumnsEqual(srcSub, srcRow, loc.Block, cacheSub, cacheRow, redirect.Block)
		if err != nil {
			return err
		}
		if !same {
			return fmt.Errorf("hit on %v redirected to %v reads wrong data", loc, redirect)
		}
		return nil
	}

	accesses := 0
	hits := 0
	// Sweep segments of rows in subarrays 0..2, twice.
	for pass := 0; pass < 2; pass++ {
		for row := 0; row < 3*rowsPerSub; row += 2 {
			for blk := 0; blk < segBlocks; blk++ {
				loc := dram.Location{Row: row, Block: blk}
				accesses++
				if redirect, hit := fc.Lookup(loc, false); hit {
					hits++
					if err := verifyHit(loc, redirect); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if blk != 0 || !fc.ShouldInsert(loc) {
					continue
				}
				if !fc.Insert(loc) {
					continue
				}
				// Execute the relocation functionally: the FTS slot
				// determines the destination cache row and column.
				fts := fc.FTSForBank(0)
				slot := -1
				fc.Flush(ch, 0)
				if s, ok := fts.Lookup(loc.Row, loc.Block/segBlocks, false); ok {
					slot = s
				} else {
					t.Fatalf("committed insertion for row %d not in FTS", loc.Row)
				}
				srcSub, srcRow := bankRowToSub(loc.Row)
				dstRow := fts.RowOfSlot(slot)
				dstCol := fts.SlotOffset(slot) * segBlocks
				segStart := (loc.Block / segBlocks) * segBlocks
				if err := fb.RelocateSegment(srcSub, srcRow, segStart, cacheSub, dstRow, dstCol, segBlocks); err != nil {
					t.Fatalf("functional relocation failed: %v", err)
				}
			}
		}
	}
	if hits == 0 {
		t.Fatal("second sweep produced no cache hits")
	}
	t.Logf("verified %d hits over %d accesses functionally", hits, accesses)

	// Finally: every valid FTS entry must be functionally consistent.
	fts := fc.FTSForBank(0)
	checked := 0
	for slot := 0; slot < fts.Slots(); slot++ {
		e := fts.entry(slot)
		if !e.valid {
			continue
		}
		srcSub, srcRow := bankRowToSub(e.key.row())
		dstRow := fts.RowOfSlot(slot)
		dstCol := fts.SlotOffset(slot) * segBlocks
		for b := 0; b < segBlocks; b++ {
			same, err := fb.ColumnsEqual(srcSub, srcRow, e.key.seg()*segBlocks+b, cacheSub, dstRow, dstCol+b)
			if err != nil {
				t.Fatal(err)
			}
			if !same {
				t.Fatalf("slot %d block %d inconsistent with source row %d", slot, b, e.key.row())
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no valid FTS entries to check")
	}
	t.Logf("verified %d resident segments against their source rows", checked)
}
