package dram

import (
	"fmt"

	"repro/internal/arena"
)

// Channel models one memory channel: its ranks, banks, the shared data
// bus, and the rank-level constraints (tRRD, tFAW, tCCD, tWTR, tRTW,
// refresh). The memory controller asks the channel when a command can
// issue and then issues it; the channel updates all affected timing
// windows.
type Channel struct {
	Geo  Geometry
	Slow Timing
	Fast Timing

	banks []Bank // dense: rank-major, then bank group, then bank

	// Rank-level state, indexed by rank.
	actTimes   [][]int64 // recent ACT issue cycles per rank, for tFAW
	lastACT    []int64   // last ACT per rank, for tRRD (conservative: _L)
	nextREF    []int64   // next refresh deadline per rank
	refPending []bool

	// Data-bus state: the kind and data-end cycle of the last column
	// command, for read/write turnaround penalties. Same-direction bursts
	// pipeline behind the CAS latency, so their spacing is governed by
	// tCCD, not by the full CL+BL.
	lastColType CmdType
	lastColEnd  int64 // last data beat cycle of the previous column burst

	// Column-to-column (tCCD) windows, kept at channel level instead of
	// being fanned out to every bank on each column issue: colReadyS is
	// the earliest next column anywhere in the channel (tCCD_S), and
	// colReadyL[rank*groups+group] the earliest within the last command's
	// bank group (tCCD_L).
	colReadyS int64
	colReadyL []int64

	// Trace, if enabled, records every issued command (tests/debugging).
	Trace        []CommandTrace //fglint:preserved debug-only command log; sim runs never enable it, so no checkpoint carries one
	TraceOn      bool
	NumREF       int64
	RelocBusy    int64 // bus cycles banks spent occupied by relocation work
	NumPSMBlocks int64 // blocks moved via RowClone-PSM (channel-blocking)
}

// NewChannel builds a channel for the geometry with the given slow/fast
// timing sets. allFast marks every subarray fast (LL-DRAM).
func NewChannel(geo Geometry, slow Timing, fast Timing, allFast bool) (*Channel, error) {
	return NewChannelIn(nil, geo, slow, fast, allFast)
}

// NewChannelIn is NewChannel with the bank array and per-rank timing
// registers (all pointer-free) carved out of a. A nil arena keeps plain
// allocations.
func NewChannelIn(a *arena.Arena, geo Geometry, slow Timing, fast Timing, allFast bool) (*Channel, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if err := slow.Validate(); err != nil {
		return nil, err
	}
	if err := fast.Validate(); err != nil {
		return nil, err
	}
	nBanks := geo.Ranks * geo.BanksPerRank()
	c := &Channel{Geo: geo, Slow: slow, Fast: fast}
	c.banks = arena.Slice[Bank](a, nBanks)
	for i := range c.banks {
		// Precharged, with every timing window expired: commands may issue
		// at cycle 0.
		c.banks[i] = Bank{geo: geo, slow: slow, fast: fast, allFast: allFast, openRow: -1}
	}
	// Each rank's tFAW history is carved at its full length, capped so
	// an append can never cross into the next rank's window: the first
	// activates of a fresh channel allocate nothing.
	c.actTimes = make([][]int64, geo.Ranks)
	hist := arena.Slice[int64](a, geo.Ranks*actHistory)
	for r := range c.actTimes {
		c.actTimes[r] = hist[r*actHistory : r*actHistory : (r+1)*actHistory]
	}
	c.lastACT = arena.Slice[int64](a, geo.Ranks)
	c.nextREF = arena.Slice[int64](a, geo.Ranks)
	c.refPending = arena.Slice[bool](a, geo.Ranks)
	c.colReadyL = arena.Slice[int64](a, geo.Ranks*geo.BankGroups)
	for r := range c.nextREF {
		c.nextREF[r] = int64(slow.REFI)
		c.lastACT[r] = -int64(slow.RRDL)
	}
	return c, nil
}

// Bank returns the bank at a location.
func (c *Channel) Bank(loc Location) *Bank { return &c.banks[loc.BankID(c.Geo)] }

// BankByID returns the bank with the given dense index.
func (c *Channel) BankByID(id int) *Bank { return &c.banks[id] }

// NumBanks returns the number of banks in the channel.
func (c *Channel) NumBanks() int { return len(c.banks) }

// CanIssue reports whether cmd may issue at cycle now, and if not now, the
// earliest cycle at which the bank/rank/bus constraints would allow it.
// ok is false when the command is structurally impossible in the current
// state (e.g. RD to a closed row), regardless of time. The command is
// taken by pointer purely to keep the ~100-byte struct off the hot
// path's copy costs; it is never retained.
func (c *Channel) CanIssue(cmd *Command, now int64) (at int64, ok bool) {
	bank := c.Bank(cmd.Loc)
	switch cmd.Type {
	case CmdACT:
		at, ok = bank.CanACT(now)
		if !ok {
			return 0, false
		}
		at = maxI64(at, c.rankACTReady(cmd.Loc.Rank, now))
		return at, true
	case CmdPRE:
		return bank.CanPRE(now)
	case CmdRD:
		at, ok = bank.CanRD(now, cmd.Loc.CacheRow, cmd.Loc.Row)
		if !ok {
			return 0, false
		}
		at = c.colReady(at, &cmd.Loc)
		return c.busReady(at, CmdRD), true
	case CmdWR:
		at, ok = bank.CanWR(now, cmd.Loc.CacheRow, cmd.Loc.Row)
		if !ok {
			return 0, false
		}
		at = c.colReady(at, &cmd.Loc)
		return c.busReady(at, CmdWR), true
	case CmdREF:
		// All banks in the rank must be precharged.
		base := cmd.Loc.Rank * c.Geo.BanksPerRank()
		for i := 0; i < c.Geo.BanksPerRank(); i++ {
			b := &c.banks[base+i]
			if b.openRow != -1 {
				return 0, false
			}
			if t, _ := b.CanACT(now); t > now {
				now = t
			}
		}
		return now, true
	default:
		return 0, false
	}
}

// Issue issues cmd at cycle at (previously validated by CanIssue) and
// returns the cycle the command's effect completes: the last data beat for
// RD/WR, or the issue cycle for ACT/PRE/REF. Like CanIssue, the command
// pointer is never retained.
func (c *Channel) Issue(cmd *Command, at int64) int64 {
	if c.TraceOn {
		c.Trace = append(c.Trace, CommandTrace{At: at, Cmd: *cmd})
	}
	bank := c.Bank(cmd.Loc)
	switch cmd.Type {
	case CmdACT:
		bank.ACT(at, cmd.Loc.CacheRow, cmd.Loc.Row)
		c.noteACT(cmd.Loc.Rank, at)
		return at
	case CmdPRE:
		bank.PRE(at)
		return at
	case CmdRD:
		end := bank.RD(at)
		c.noteColumn(cmd, at, end)
		return end
	case CmdWR:
		end := bank.WR(at)
		c.noteColumn(cmd, at, end)
		return end
	case CmdREF:
		end := at + int64(c.Slow.RFC)
		base := cmd.Loc.Rank * c.Geo.BanksPerRank()
		for i := 0; i < c.Geo.BanksPerRank(); i++ {
			c.banks[base+i].Occupy(end)
		}
		c.refPending[cmd.Loc.Rank] = false
		c.nextREF[cmd.Loc.Rank] += int64(c.Slow.REFI)
		c.NumREF++
		return end
	default:
		panic(fmt.Sprintf("dram: Issue does not handle %v directly", cmd.Type))
	}
}

// CanColumn is CanIssue's CmdRD/CmdWR arm for a caller that already
// holds the resolved bank: same checks in the same order, minus the
// Command construction and bank re-lookup. The scheduler probes column
// candidates every tick, so the ~100-byte command build and the bank-ID
// multiply chain were pure per-tick overhead.
func (c *Channel) CanColumn(bank *Bank, loc *Location, isWrite bool, now int64) (at int64, ok bool) {
	if isWrite {
		at, ok = bank.CanWR(now, loc.CacheRow, loc.Row)
	} else {
		at, ok = bank.CanRD(now, loc.CacheRow, loc.Row)
	}
	if !ok {
		return 0, false
	}
	at = c.colReady(at, loc)
	if isWrite {
		return c.busReady(at, CmdWR), true
	}
	return c.busReady(at, CmdRD), true
}

// CanACTAt is CanIssue's CmdACT arm for a caller that already holds the
// resolved bank.
func (c *Channel) CanACTAt(bank *Bank, rank int, now int64) (int64, bool) {
	at, ok := bank.CanACT(now)
	if !ok {
		return 0, false
	}
	return maxI64(at, c.rankACTReady(rank, now)), true
}

// rankACTReady returns the earliest cycle an ACT can issue in a rank given
// tRRD and tFAW.
func (c *Channel) rankACTReady(rank int, now int64) int64 {
	at := maxI64(now, c.lastACT[rank]+int64(c.Slow.RRDL))
	hist := c.actTimes[rank]
	if len(hist) >= 4 {
		at = maxI64(at, hist[len(hist)-4]+int64(c.Slow.FAW))
	}
	return at
}

// actHistory is how many recent ACT issue cycles each rank keeps for the
// tFAW window.
const actHistory = 8

func (c *Channel) noteACT(rank int, at int64) {
	c.lastACT[rank] = at
	// Keep the last actHistory ACT times, sliding in place within the
	// capacity NewChannelIn carved.
	hist := c.actTimes[rank]
	if len(hist) >= actHistory {
		copy(hist, hist[len(hist)-(actHistory-1):])
		hist = hist[:actHistory-1]
	}
	c.actTimes[rank] = append(hist, at)
}

// busReady returns the earliest cycle a column command of kind k can use
// the shared data bus: same-direction bursts pipeline (tCCD spacing,
// enforced bank-wide by noteColumn), while direction changes pay the
// write-to-read (tWTR) or read-to-write (tRTW) turnaround.
func (c *Channel) busReady(at int64, k CmdType) int64 {
	if c.lastColEnd > 0 {
		switch {
		case c.lastColType == CmdWR && k == CmdRD:
			// Write-to-read turnaround (conservatively tWTR_L).
			at = maxI64(at, c.lastColEnd+int64(c.Slow.WTRL))
		case c.lastColType == CmdRD && k == CmdWR:
			at = maxI64(at, c.lastColEnd+int64(c.Slow.RTW))
		}
	}
	return at
}

// noteColumn records data-bus occupancy and the column-to-column
// constraints (tCCD). We conservatively apply tCCD_L within the same
// bank group and tCCD_S across groups; colReady consults the windows at
// issue-check time, so nothing is fanned out per bank.
func (c *Channel) noteColumn(cmd *Command, at, end int64) {
	c.lastColType = cmd.Type
	c.lastColEnd = end
	if t := at + int64(c.Slow.CCDS); t > c.colReadyS {
		c.colReadyS = t
	}
	g := cmd.Loc.Rank*c.Geo.BankGroups + cmd.Loc.Group
	if t := at + int64(c.Slow.CCDL); t > c.colReadyL[g] {
		c.colReadyL[g] = t
	}
}

// colReady applies the channel-level tCCD windows to a column command's
// earliest issue cycle.
func (c *Channel) colReady(at int64, loc *Location) int64 {
	if c.colReadyS > at {
		at = c.colReadyS
	}
	if l := c.colReadyL[loc.Rank*c.Geo.BankGroups+loc.Group]; l > at {
		at = l
	}
	return at
}

// NextRefresh returns the earliest cycle at which RefreshDue will report
// a due refresh: zero if one is already pending, otherwise the nearest
// rank deadline. Refresh deadlines advance only when a REF issues, so the
// value is stable between refreshes and lets the run loop skip idle time.
func (c *Channel) NextRefresh() int64 {
	next := int64(1<<63 - 1)
	for r := range c.nextREF {
		if c.refPending[r] {
			return 0
		}
		if c.nextREF[r] < next {
			next = c.nextREF[r]
		}
	}
	return next
}

// RefreshDue reports whether a refresh is due for any rank at cycle now,
// and which rank.
func (c *Channel) RefreshDue(now int64) (rank int, due bool) {
	for r := range c.nextREF {
		if now >= c.nextREF[r] {
			c.refPending[r] = true
		}
		if c.refPending[r] {
			return r, true
		}
	}
	return 0, false
}

// --- FIGARO and LISA relocation primitives ------------------------------

// RelocCost returns the bank-occupancy cycles of a FIGARO relocation of
// blocks columns from an already-open source row into a destination row of
// the same bank, following Sections 4.1-4.2 and 8.1 of the paper:
//
//	n x RELOC (copy columns through the global row buffer)
//	ACTIVATE destination (overwrites the relocated columns)
//	PRECHARGE (fold tRP into the occupancy; the bank ends precharged)
//
// The first ACTIVATE of the source row is not counted: FIGCache triggers
// relocation while servicing the miss that already opened the row
// (Section 8.1). dstFast selects the destination row's latency class.
func (c *Channel) RelocCost(blocks int, dstCacheRow bool) int64 {
	dst := c.Slow
	if dstCacheRow && (c.Geo.FastSubarrays > 0) {
		dst = c.Fast
	}
	return int64(blocks*c.Slow.RELOC) + int64(dst.RCD) + int64(dst.RP)
}

// RelocStandaloneCost returns the occupancy of a relocation that must open
// the source row first (used for dirty-segment write-backs from the cache
// to the source row): ACT(src) + n x RELOC + ACT(dst) + PRE.
func (c *Channel) RelocStandaloneCost(blocks int, srcCacheRow, dstCacheRow bool) int64 {
	src, dst := c.Slow, c.Slow
	if srcCacheRow && c.Geo.FastSubarrays > 0 {
		src = c.Fast
	}
	if dstCacheRow && c.Geo.FastSubarrays > 0 {
		dst = c.Fast
	}
	return int64(src.RCD) + int64(blocks*c.Slow.RELOC) + int64(dst.RCD) + int64(dst.RP)
}

// Relocate occupies the bank at loc for cost cycles starting at cycle at
// and leaves the bank precharged, modelling an in-DRAM relocation burst.
// It returns the cycle the bank becomes available again.
func (c *Channel) Relocate(loc Location, at, cost int64, blocks int, isLISA bool, hops int) int64 {
	bank := c.Bank(loc)
	bank.ForceClose()
	end := at + cost
	bank.Occupy(end)
	c.RelocBusy += cost
	kind := CmdRELOC
	if isLISA {
		bank.NumRBMHops += int64(hops)
		kind = CmdRBM
	} else {
		bank.NumRELOC += int64(blocks)
	}
	if c.TraceOn {
		c.Trace = append(c.Trace, CommandTrace{At: at, End: end, Cmd: Command{Type: kind, Loc: loc}})
	}
	return end
}

// PSMCost returns the occupancy cycles of relocating blocks columns with
// RowClone-PSM (Section 10's related-work substrate): each block crosses
// the shared internal global data bus twice (source bank to an
// intermediate bank, then intermediate to destination, since source and
// destination share a bank), at one column transfer per tCCD_L, plus the
// activates and precharges of the three rows involved. Unlike FIGARO,
// this occupies the whole channel: the global data bus serves all banks.
func (c *Channel) PSMCost(blocks int, srcOpen bool) int64 {
	cost := int64(2 * blocks * c.Slow.CCDL)
	// Intermediate and destination activates plus the final precharge.
	cost += int64(2*c.Slow.RCD) + int64(c.Slow.RP)
	if !srcOpen {
		cost += int64(c.Slow.RCD)
	}
	return cost
}

// RelocateAll occupies every bank in the channel until at+cost: the
// RowClone-PSM relocation path, which monopolizes the global data bus and
// blocks memory requests to all banks (the bank-level-parallelism loss
// Section 10 describes). The source bank ends precharged.
func (c *Channel) RelocateAll(loc Location, at, cost int64, blocks int) int64 {
	end := at + cost
	c.Bank(loc).ForceClose()
	for i := range c.banks {
		c.banks[i].Occupy(end)
	}
	c.RelocBusy += cost
	c.NumPSMBlocks += int64(blocks)
	if c.TraceOn {
		c.Trace = append(c.Trace, CommandTrace{At: at, End: end, Cmd: Command{Type: CmdRELOC, Loc: loc}})
	}
	return end
}

// RBMCost returns the bank-occupancy cycles of a LISA-VILLA full-row
// relocation over the given number of inter-subarray hops:
// ACT(src) + hops x tRBM + PRE. The latency is distance-dependent, unlike
// FIGARO's RELOC (Section 3).
func (c *Channel) RBMCost(hops int, srcOpen bool) int64 {
	cost := int64(hops * c.Slow.RBMHop)
	if !srcOpen {
		cost += int64(c.Slow.RCD)
	}
	return cost + int64(c.Slow.RP)
}

// ResetStats clears all per-bank and channel counters (not timing state).
func (c *Channel) ResetStats() {
	for i := range c.banks {
		b := &c.banks[i]
		b.NumACT, b.NumACTFast, b.NumPRE, b.NumRD, b.NumWR = 0, 0, 0, 0, 0
		b.NumRELOC, b.NumRBMHops = 0, 0
		b.RowHits, b.RowMisses, b.RowConflict = 0, 0, 0
	}
	c.NumREF = 0
	c.RelocBusy = 0
	c.Trace = c.Trace[:0]
}

// Stats aggregates the per-bank counters of the channel.
type Stats struct {
	ACT, ACTFast, PRE, RD, WR, REF int64
	RELOC, RBMHops                 int64
	RowHits, RowMisses, RowConf    int64
	RelocBusy                      int64
}

// CollectStats sums counters across all banks.
func (c *Channel) CollectStats() Stats {
	var s Stats
	for i := range c.banks {
		b := &c.banks[i]
		s.ACT += b.NumACT
		s.ACTFast += b.NumACTFast
		s.PRE += b.NumPRE
		s.RD += b.NumRD
		s.WR += b.NumWR
		s.RELOC += b.NumRELOC
		s.RBMHops += b.NumRBMHops
		s.RowHits += b.RowHits
		s.RowMisses += b.RowMisses
		s.RowConf += b.RowConflict
	}
	s.REF = c.NumREF
	s.RelocBusy = c.RelocBusy
	return s
}

// RowBufferHitRate returns the fraction of column accesses that hit an
// already-open row.
func (s Stats) RowBufferHitRate() float64 {
	total := s.RowHits + s.RowMisses + s.RowConf
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}
