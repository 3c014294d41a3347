package dram

// RowClass identifies the latency class of a row: rows in regular (slow)
// subarrays use the nominal DDR4 timings, rows in fast subarrays (short
// bitlines) use the reduced timings of Timing.Fast.
type RowClass int

const (
	RowSlow RowClass = iota
	RowFast
)

// Bank models one DRAM bank: the open-row state plus the earliest bus
// cycle at which each command type may next be issued to the bank.
//
// The bank does not store data; the simulator is timing-only. Correctness
// of the FIGARO relocation data path is validated separately by the
// functional model in internal/core and the circuit model in
// internal/spice.
type Bank struct {
	geo  Geometry
	slow Timing // timings for rows in slow subarrays
	fast Timing // timings for rows in fast subarrays

	// allFast marks every subarray as fast (the LL-DRAM idealized
	// configuration, where the whole chip is built from short-bitline
	// subarrays).
	allFast bool

	// Open-row state. openRow == -1 means the bank is precharged.
	openRow      int
	openCacheRow bool // the open row is in the cache-only row space

	// Earliest issue cycles for each command class.
	nextACT int64
	nextPRE int64
	nextRD  int64
	nextWR  int64

	// Stats.
	NumACT      int64 // activates to slow rows
	NumACTFast  int64 // activates to fast rows
	NumPRE      int64
	NumRD       int64
	NumWR       int64
	NumRELOC    int64
	NumRBMHops  int64
	RowHits     int64 // column accesses to an already-open row
	RowMisses   int64 // column accesses requiring an ACT on a closed bank
	RowConflict int64 // column accesses requiring PRE of a different row
}

// timingFor returns the timing set that applies to a row. The pointer
// avoids copying the ~200-byte Timing struct on every command; callers
// only read it.
func (b *Bank) timingFor(cacheRow bool, row int) *Timing {
	if b.classOf(cacheRow, row) == RowFast {
		return &b.fast
	}
	return &b.slow
}

// classOf returns the latency class of a row. Cache rows are fast when the
// geometry provides fast subarrays (FIGCache-Fast, LISA-VILLA); otherwise
// cache rows are reserved rows of a slow subarray (FIGCache-Slow) and keep
// slow timings.
func (b *Bank) classOf(cacheRow bool, row int) RowClass {
	if b.allFast {
		return RowFast
	}
	if cacheRow && b.geo.FastSubarrays > 0 {
		return RowFast
	}
	return RowSlow
}

// Open reports the currently open row, or (-1, false) if precharged.
func (b *Bank) Open() (row int, cacheRow bool) { return b.openRow, b.openCacheRow }

// IsOpen reports whether the given row is the open row of the bank.
func (b *Bank) IsOpen(cacheRow bool, row int) bool {
	return b.openRow == row && b.openCacheRow == cacheRow && b.openRow >= 0
}

// CanACT reports the earliest cycle an ACTIVATE may issue. The bank must
// be precharged.
func (b *Bank) CanACT(now int64) (int64, bool) {
	if b.openRow != -1 {
		return 0, false
	}
	return maxI64(now, b.nextACT), true
}

// CanPRE reports the earliest cycle a PRECHARGE may issue. The bank must
// have an open row.
func (b *Bank) CanPRE(now int64) (int64, bool) {
	if b.openRow == -1 {
		return 0, false
	}
	return maxI64(now, b.nextPRE), true
}

// CanRD and CanWR report the earliest cycle a column command to the open
// row may issue. The target row must be open.
func (b *Bank) CanRD(now int64, cacheRow bool, row int) (int64, bool) {
	if !b.IsOpen(cacheRow, row) {
		return 0, false
	}
	return maxI64(now, b.nextRD), true
}

// CanWR is the write analogue of CanRD.
func (b *Bank) CanWR(now int64, cacheRow bool, row int) (int64, bool) {
	if !b.IsOpen(cacheRow, row) {
		return 0, false
	}
	return maxI64(now, b.nextWR), true
}

// ACT opens a row at cycle at (which must satisfy CanACT).
func (b *Bank) ACT(at int64, cacheRow bool, row int) {
	t := b.timingFor(cacheRow, row)
	b.openRow = row
	b.openCacheRow = cacheRow
	b.nextRD = maxI64(b.nextRD, at+int64(t.RCD))
	b.nextWR = maxI64(b.nextWR, at+int64(t.RCD))
	b.nextPRE = maxI64(b.nextPRE, at+int64(t.RAS))
	b.nextACT = maxI64(b.nextACT, at+int64(t.RC))
	if b.classOf(cacheRow, row) == RowFast {
		b.NumACTFast++
	} else {
		b.NumACT++
	}
}

// PRE closes the open row at cycle at (which must satisfy CanPRE).
func (b *Bank) PRE(at int64) {
	t := b.timingFor(b.openCacheRow, b.openRow)
	b.openRow = -1
	b.openCacheRow = false
	b.nextACT = maxI64(b.nextACT, at+int64(t.RP))
	b.NumPRE++
}

// RD issues a read burst at cycle at and returns the cycle at which the
// last data beat arrives at the controller.
func (b *Bank) RD(at int64) (dataEnd int64) {
	t := b.timingFor(b.openCacheRow, b.openRow)
	// A later PRECHARGE must respect tRTP.
	b.nextPRE = maxI64(b.nextPRE, at+int64(t.RTP))
	b.NumRD++
	return at + int64(t.ReadLatency())
}

// WR issues a write burst at cycle at and returns the cycle at which the
// last data beat is written.
func (b *Bank) WR(at int64) (dataEnd int64) {
	t := b.timingFor(b.openCacheRow, b.openRow)
	end := at + int64(t.WriteLatency())
	// Write recovery: the row may not be precharged until tWR after the
	// last data beat.
	b.nextPRE = maxI64(b.nextPRE, end+int64(t.WR))
	b.NumWR++
	return end
}

// Occupy blocks all activity in the bank until cycle until. It models
// multi-command in-DRAM operations (FIGARO relocation bursts, LISA row
// movement, refresh) that own the bank for a computed duration.
func (b *Bank) Occupy(until int64) {
	b.nextACT = maxI64(b.nextACT, until)
	b.nextPRE = maxI64(b.nextPRE, until)
	b.nextRD = maxI64(b.nextRD, until)
	b.nextWR = maxI64(b.nextWR, until)
}

// ForceClose marks the bank precharged without timing side effects beyond
// those already applied via Occupy. Relocation sequences end with a
// PRECHARGE whose latency is folded into the occupancy duration.
func (b *Bank) ForceClose() {
	if b.openRow != -1 {
		b.openRow = -1
		b.openCacheRow = false
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
