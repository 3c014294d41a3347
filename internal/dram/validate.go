package dram

import "fmt"

// Violation describes one timing-constraint violation found in a command
// trace.
type Violation struct {
	Constraint string
	At         int64 // issue cycle of the violating command
	// Prev is the issue cycle of the earlier command it conflicts with,
	// or, for a refresh deadline, the cycle the deadline fell on.
	Prev   int64
	Cmd    Command
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s violated (prev at %d): %s %v",
		v.At, v.Constraint, v.Prev, v.Detail, v.Cmd)
}

// maxPostponedREF is how many REF commands a rank may postpone: JESD79-4
// allows eight, so the interval between two REFs is at most 9 x tREFI.
const maxPostponedREF = 8

// ValidateTrace replays a recorded command trace against the JEDEC timing
// constraints and protocol rules, independently of the issue-time checks
// the Channel performs. It is the simulator's safety net: any scheduling
// bug that sneaks a command past CanIssue is caught here.
//
// Checked rules, by constraint name. An _S value spaces commands in
// different bank groups of a rank and an _L value commands in one bank
// group; as in DDR4, a pair in one group must obey both.
//
//	ACT:  bank-closed (bank precharged); tRC since the bank's previous
//	      ACT; tRP since its PRE; tRRD_S since the rank's previous ACT;
//	      tRRD_L since the bank group's previous ACT; tFAW over any five
//	      ACTs of the rank; tRFC since the rank's REF.
//	PRE:  bank-open; tRAS since ACT; tRTP since RD; tWR after WR data.
//	RD:   row-open (the row open and matching); tRCD since ACT; tCCD_S
//	      since the previous column command; tCCD_L since the bank
//	      group's previous column command; tWTR_S after the previous
//	      command's WR data; tWTR_L after the bank group's last WR data.
//	WR:   row-open; tRCD since ACT; tCCD_S; tCCD_L; tRTW after the
//	      previous command's RD data.
//	REF:  all-precharged (every bank in the rank); tRP-before-REF since
//	      every PRE; refresh-deadline: a rank's k-th REF falls due at
//	      k x tREFI and may be postponed at most eight intervals, so it
//	      must issue by (k+8) x tREFI. The trace's last command must not
//	      lie past the deadline of the REF that would follow either.
//
// The refresh-deadline rule counts a rank's REFs from the start of the
// trace and puts the k-th due at k x tREFI, so the trace must start at
// cycle 0 of a fresh Channel. A trace begun later, after Restore or
// with tracing switched on mid-run, reports false refresh-deadline
// violations once it passes 9 x tREFI.
//
// Relocation occupancy (RELOC/RBM) is applied by the Channel outside the
// command stream, so traces containing relocations validate the explicit
// commands only.
func ValidateTrace(geo Geometry, slow, fast Timing, allFast bool, trace []CommandTrace) []Violation {
	type bankState struct {
		openRow     int
		openCache   bool
		lastACT     int64
		lastPRE     int64
		lastPREFast bool // the precharged row's timing class
		lastRD      int64
		lastWREnd   int64
		openIsFast  bool
	}
	const never = -1 << 40
	nBanks := geo.Ranks * geo.BanksPerRank()
	banks := make([]bankState, nBanks)
	for i := range banks {
		banks[i].openRow = -1
		banks[i].lastACT = never
		banks[i].lastPRE = never
		banks[i].lastWREnd = never
		banks[i].lastRD = never
	}
	// Per bank group (rank-major): the last ACT, the last column command
	// and the end of the last WR data, for the _L rules.
	type groupState struct{ lastACT, lastCol, lastWREnd int64 }
	groups := make([]groupState, geo.Ranks*geo.BankGroups)
	for i := range groups {
		groups[i] = groupState{never, never, never}
	}
	rankACTs := make([][]int64, geo.Ranks)
	lastREF := make([]int64, geo.Ranks)
	refs := make([]int64, geo.Ranks) // REFs issued per rank
	for r := range lastREF {
		lastREF[r] = never
	}
	var lastCol struct {
		at, end int64
		kind    CmdType
		valid   bool
	}

	timingFor := func(cache bool) Timing {
		if allFast || (cache && geo.FastSubarrays > 0) {
			return fast
		}
		return slow
	}
	// refDeadline is the cycle by which rank r's next REF must issue.
	refDeadline := func(r int) int64 {
		return (refs[r] + 1 + maxPostponedREF) * int64(slow.REFI)
	}

	var out []Violation
	add := func(constraint string, at, prev int64, cmd Command, detail string) {
		out = append(out, Violation{Constraint: constraint, At: at, Prev: prev, Cmd: cmd, Detail: detail})
	}

	var last CommandTrace // the latest-issued command
	for _, tr := range trace {
		cmd, at := tr.Cmd, tr.At
		if at >= last.At {
			last = tr
		}
		id := cmd.Loc.BankID(geo)
		b := &banks[id]
		g := &groups[cmd.Loc.Rank*geo.BankGroups+cmd.Loc.Group]
		t := timingFor(cmd.Loc.CacheRow)
		switch cmd.Type {
		case CmdACT:
			if b.openRow != -1 {
				add("bank-closed", at, b.lastACT, cmd, "ACT on open bank")
			}
			openT := timingFor(b.openIsFast)
			if at-b.lastACT < int64(openT.RC) && at-b.lastACT < int64(t.RC) {
				// Use the more permissive of the two timing classes: the
				// channel applies the class of each command's own row.
				add("tRC", at, b.lastACT, cmd, fmt.Sprintf("%d < tRC", at-b.lastACT))
			}
			if at-b.lastPRE < int64(minInt(openT.RP, t.RP)) {
				add("tRP", at, b.lastPRE, cmd, fmt.Sprintf("%d < tRP", at-b.lastPRE))
			}
			if at-lastREF[cmd.Loc.Rank] < int64(slow.RFC) {
				add("tRFC", at, lastREF[cmd.Loc.Rank], cmd, "ACT during refresh")
			}
			hist := rankACTs[cmd.Loc.Rank]
			if n := len(hist); n > 0 && at-hist[n-1] < int64(slow.RRDS) {
				add("tRRD_S", at, hist[n-1], cmd, fmt.Sprintf("%d < tRRD_S", at-hist[n-1]))
			}
			if at-g.lastACT < int64(slow.RRDL) {
				add("tRRD_L", at, g.lastACT, cmd, fmt.Sprintf("%d < tRRD_L in one bank group", at-g.lastACT))
			}
			if n := len(hist); n >= 4 && at-hist[n-4] < int64(slow.FAW) {
				add("tFAW", at, hist[n-4], cmd, fmt.Sprintf("five ACTs in %d", at-hist[n-4]))
			}
			rankACTs[cmd.Loc.Rank] = append(hist, at)
			g.lastACT = at
			b.openRow = cmd.Loc.Row
			b.openCache = cmd.Loc.CacheRow
			b.openIsFast = allFast || (cmd.Loc.CacheRow && geo.FastSubarrays > 0)
			b.lastACT = at
		case CmdPRE:
			if b.openRow == -1 {
				add("bank-open", at, b.lastPRE, cmd, "PRE on closed bank")
				continue
			}
			openT := timingFor(b.openIsFast)
			if at-b.lastACT < int64(openT.RAS) {
				add("tRAS", at, b.lastACT, cmd, fmt.Sprintf("%d < tRAS", at-b.lastACT))
			}
			if at-b.lastRD < int64(openT.RTP) {
				add("tRTP", at, b.lastRD, cmd, fmt.Sprintf("%d < tRTP", at-b.lastRD))
			}
			if at-b.lastWREnd < int64(openT.WR) {
				add("tWR", at, b.lastWREnd, cmd, fmt.Sprintf("%d < tWR after WR data", at-b.lastWREnd))
			}
			b.openRow = -1
			b.lastPRE = at
			b.lastPREFast = b.openIsFast
		case CmdRD, CmdWR:
			if b.openRow != cmd.Loc.Row || b.openCache != cmd.Loc.CacheRow {
				add("row-open", at, b.lastACT, cmd,
					fmt.Sprintf("column access to row %d but open row is %d", cmd.Loc.Row, b.openRow))
			}
			openT := timingFor(b.openIsFast)
			if at-b.lastACT < int64(openT.RCD) {
				add("tRCD", at, b.lastACT, cmd, fmt.Sprintf("%d < tRCD", at-b.lastACT))
			}
			if lastCol.valid {
				if at-lastCol.at < int64(slow.CCDS) {
					add("tCCD_S", at, lastCol.at, cmd, fmt.Sprintf("%d < tCCD_S", at-lastCol.at))
				}
				if lastCol.kind == CmdWR && cmd.Type == CmdRD && at-lastCol.end < int64(slow.WTRS) {
					add("tWTR_S", at, lastCol.end, cmd, fmt.Sprintf("%d < tWTR_S after WR data", at-lastCol.end))
				}
				if lastCol.kind == CmdRD && cmd.Type == CmdWR && at-lastCol.end < int64(slow.RTW) {
					add("tRTW", at, lastCol.end, cmd, fmt.Sprintf("%d < tRTW after RD data", at-lastCol.end))
				}
			}
			if at-g.lastCol < int64(slow.CCDL) {
				add("tCCD_L", at, g.lastCol, cmd, fmt.Sprintf("%d < tCCD_L in one bank group", at-g.lastCol))
			}
			if cmd.Type == CmdRD && at-g.lastWREnd < int64(slow.WTRL) {
				add("tWTR_L", at, g.lastWREnd, cmd, fmt.Sprintf("%d < tWTR_L after WR data in one bank group", at-g.lastWREnd))
			}
			end := at + int64(openT.ReadLatency())
			if cmd.Type == CmdWR {
				end = at + int64(openT.WriteLatency())
				b.lastWREnd = end
				g.lastWREnd = end
			} else {
				b.lastRD = at
			}
			g.lastCol = at
			lastCol.at, lastCol.end, lastCol.kind, lastCol.valid = at, end, cmd.Type, true
		case CmdREF:
			r := cmd.Loc.Rank
			base := r * geo.BanksPerRank()
			for i := 0; i < geo.BanksPerRank(); i++ {
				if banks[base+i].openRow != -1 {
					add("all-precharged", at, banks[base+i].lastACT, cmd,
						fmt.Sprintf("REF with bank %d open", i))
				}
				if at-banks[base+i].lastPRE < int64(timingFor(banks[base+i].lastPREFast).RP) {
					add("tRP-before-REF", at, banks[base+i].lastPRE, cmd, "REF before precharge settled")
				}
			}
			if due := refDeadline(r); at > due {
				add("refresh-deadline", at, due, cmd,
					fmt.Sprintf("REF %d of rank %d more than %d intervals late", refs[r]+1, r, maxPostponedREF))
			}
			refs[r]++
			lastREF[r] = at
		case CmdRELOC, CmdRBM:
			// In-DRAM relocation burst: the bank is owned until tr.End and
			// ends precharged. Rebase the bank state so subsequent
			// commands are validated against the occupancy end.
			end := tr.End
			if end < at {
				end = at
			}
			b.openRow = -1
			b.lastPRE = end - int64(t.RP)
			b.lastACT = end - int64(t.RC)
			b.lastRD = end - int64(t.RTP)
			b.lastWREnd = end - int64(t.WR)
		}
	}
	if len(trace) > 0 {
		for r := range refs {
			if due := refDeadline(r); last.At > due {
				add("refresh-deadline", last.At, due, last.Cmd,
					fmt.Sprintf("trace ends with REF %d of rank %d more than %d intervals late", refs[r]+1, r, maxPostponedREF))
			}
		}
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
